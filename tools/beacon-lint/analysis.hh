/**
 * @file
 * Whole-program analysis framework for beacon-lint.
 *
 * Besides the per-file checks, beacon-lint runs one pass that sees
 * the whole repository at once, driven by the same lexical code view
 * (no libclang — the CI leg still needs nothing beyond the C++
 * toolchain): the include/layer pass (include_graph.cc) extracts the
 * project include graph and enforces the architecture DAG, failing
 * on back-edges and include cycles.
 *
 * The pass operates on a Project rooted at the repository (or at a
 * fixture tree under testdata/ in self-test mode), so the same logic
 * is exercised by the self-test and by the repo gate.
 */

#ifndef BEACON_LINT_ANALYSIS_HH
#define BEACON_LINT_ANALYSIS_HH

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "checks.hh"
#include "source_cache.hh"

namespace beacon_lint
{

/**
 * One analysed source tree: the repository root plus every lintable
 * file found under `<root>/src`, lexed through the shared cache.
 */
struct Project
{
    /** Normalised absolute repository root. */
    std::string root;
    /** Sorted absolute paths of every lintable file under src/. */
    std::vector<std::string> files;
    /** Lexer cache shared with the per-file checks. */
    SourceCache *cache = nullptr;

    /** @p path relative to root, '/'-separated (stable across
     *  machines — used for every report and finding). */
    std::string relative(const std::string &path) const;

    /**
     * The src/ module a path belongs to ("sim", "dram", ...), or ""
     * for anything outside `src/` (bench, tests, tools, system
     * headers) — those are outside the architecture DAG.
     */
    std::string moduleOf(const std::string &path) const;
};

/**
 * Build a Project rooted at @p root: finds and lexes every source
 * file under `<root>/src`. Returns false and sets @p error when the
 * tree cannot be read.
 */
bool buildProject(const std::string &root, SourceCache &cache,
                  Project &out, std::string &error);

// --- architecture DAG -----------------------------------------------

/**
 * The layering contract of src/ (docs/static_analysis.md):
 *
 *     common -> sim -> {dram, cxl} -> ndp -> {accel, memmgmt}
 *                                              -> service
 *
 * with genomics/graph as pure workload libraries over common, and
 * obs/check as leaf-only taps: any module may include them, but they
 * may depend only on the kernels they observe (common/sim, plus
 * dram's command vocabulary for the protocol checker).
 *
 * Returns the allowed dependency set of @p module (not including the
 * module itself, which is always allowed), or nullptr for a module
 * that is not part of the contract.
 */
const std::set<std::string> *allowedDeps(const std::string &module);

/** True for the tap modules any src/ module may include. */
bool isTapModule(const std::string &module);

/** One project-internal include edge. */
struct IncludeEdge
{
    std::string from;      //!< absolute path of the including file
    std::size_t line = 0;  //!< 1-based #include line
    std::string to;        //!< absolute path of the included file
};

/**
 * Resolve every `#include "..."` in @p project to files that exist
 * under the tree (quoted includes resolve against `<root>/src`, then
 * against the including file's directory). System and third-party
 * includes are ignored.
 */
std::vector<IncludeEdge> includeEdges(const Project &project);

/**
 * The include/layer pass: appends `layer-back-edge` findings for
 * include edges that violate the DAG and `include-cycle` findings
 * for file-level include cycles.
 */
void runIncludeGraphPass(const Project &project,
                         std::vector<Finding> &out);

} // namespace beacon_lint

#endif // BEACON_LINT_ANALYSIS_HH
