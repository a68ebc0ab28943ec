/**
 * @file
 * Process-wide cache of lexed source files.
 *
 * PR 4's driver lexed every path it was handed, so a header reached
 * through the compile database, an explicit path, *and* the include
 * closure was scanned up to three times and could emit the same
 * finding once per visit. The cache keys on the normalised absolute
 * path: every pass (per-file checks, include graph) shares one
 * SourceFile per distinct file on disk.
 */

#ifndef BEACON_LINT_SOURCE_CACHE_HH
#define BEACON_LINT_SOURCE_CACHE_HH

#include <map>
#include <string>

#include "source_file.hh"

namespace beacon_lint
{

/** Loads and lexes each distinct file exactly once. */
class SourceCache
{
  public:
    /**
     * The lexed view of @p path (normalised before lookup), or
     * nullptr when the file cannot be read (@p error is set; a
     * failed path is cached too, so one bad file errors once).
     */
    const SourceFile *get(const std::string &path,
                          std::string &error);

    /** Normalised absolute form used as the cache key. */
    static std::string canonical(const std::string &path);

    /** Number of distinct files lexed so far (cache misses). */
    std::size_t filesLexed() const { return lexed; }

    /** Number of get() calls served from the cache. */
    std::size_t cacheHits() const { return hits; }

  private:
    struct Slot
    {
        bool ok = false;
        std::string error;
        SourceFile file;
    };

    std::map<std::string, Slot> slots;
    std::size_t lexed = 0;
    std::size_t hits = 0;
};

} // namespace beacon_lint

#endif // BEACON_LINT_SOURCE_CACHE_HH
