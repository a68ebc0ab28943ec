/**
 * @file
 * beacon-lint driver.
 *
 * Modes:
 *   beacon-lint -p build/compile_commands.json \
 *               --repo-root . [paths...]
 *       Run the per-file checks over every translation unit in the
 *       compile database plus any extra files/directories given
 *       (headers are not listed in the database, so CI passes src/
 *       as an extra path), then — when --repo-root is given — the
 *       whole-program include/layer DAG pass over everything
 *       beneath <root>/src. Exit 1 when any unsuppressed finding
 *       remains.
 *
 *   beacon-lint --json ...
 *       Emit findings as a JSON array on stdout instead of the
 *       text lines (machine consumers; CI uses the text form with
 *       .github/problem-matchers/beacon-lint.json).
 *
 *   beacon-lint --self-test tools/beacon-lint/testdata
 *       Run every per-file check over the fixture files, and the
 *       layer DAG pass over the mini source tree under
 *       testdata/project/, asserting that the findings match the
 *       `// beacon-lint: expect(<check>)` markers exactly — each
 *       check must both fire where expected and stay quiet where an
 *       allow() annotation suppresses it.
 *
 * Every file is lexed at most once per process (SourceCache), and
 * findings are deduplicated on (file, line, check): a header reached
 * through the compile database, an explicit path, and the include
 * closure reports each finding once.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis.hh"
#include "checks.hh"
#include "source_cache.hh"
#include "source_file.hh"

namespace fs = std::filesystem;
using namespace beacon_lint;

namespace
{

/** Whole-program pass diagnostics (not per-file Check entries). */
const std::pair<const char *, const char *> pass_checks[] = {
    {"layer-back-edge",
     "include edge violating the architecture DAG"},
    {"include-cycle", "file-level include cycle"},
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [-p compile_commands.json] [--check NAME]...\n"
        "          [--repo-root DIR] [--json]\n"
        "          [--self-test DIR] [--list-checks] [paths...]\n",
        argv0);
    return 2;
}

bool
lintableExtension(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp" || ext == ".h";
}

/** Files named by a compile database (the "file" of each entry). */
std::vector<std::string>
compileDatabaseFiles(const std::string &db_path, std::string &error)
{
    std::ifstream in(db_path);
    if (!in) {
        error = "cannot open compile database " + db_path;
        return {};
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string json = text.str();

    std::vector<std::string> files;
    std::string directory;
    static const std::regex kv_re(
        "\"(directory|file)\"\\s*:\\s*\"([^\"]*)\"");
    auto begin =
        std::sregex_iterator(json.begin(), json.end(), kv_re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::string key = (*it)[1].str();
        const std::string value = (*it)[2].str();
        if (key == "directory") {
            directory = value;
        } else {
            fs::path p(value);
            if (p.is_relative() && !directory.empty())
                p = fs::path(directory) / p;
            files.push_back(SourceCache::canonical(p.string()));
        }
    }
    return files;
}

/** Expand files/directories into lintable source files. */
void
collectPaths(const std::string &arg, std::set<std::string> &out)
{
    const fs::path p(arg);
    if (fs::is_directory(p)) {
        for (const auto &entry :
             fs::recursive_directory_iterator(p)) {
            if (entry.is_regular_file() &&
                lintableExtension(entry.path()))
                out.insert(SourceCache::canonical(
                    entry.path().string()));
        }
    } else {
        out.insert(SourceCache::canonical(arg));
    }
}

bool
checkEnabled(const std::vector<std::string> &enabled,
             const std::string &name)
{
    return enabled.empty() ||
           std::find(enabled.begin(), enabled.end(), name) !=
               enabled.end();
}

/**
 * Run the whole-program layer DAG pass rooted at @p root. Appends
 * annotation-filtered findings; returns false (with @p error set) on
 * project-build failure.
 */
bool
runProjectPasses(const std::string &root, SourceCache &cache,
                 const std::vector<std::string> &enabled,
                 std::vector<Finding> &findings, std::string &error)
{
    Project project;
    if (!buildProject(root, cache, project, error))
        return false;

    std::vector<Finding> raw;
    runIncludeGraphPass(project, raw);

    for (Finding &finding : raw) {
        if (!checkEnabled(enabled, finding.check))
            continue;
        std::string file_error;
        const SourceFile *file =
            cache.get(finding.path, file_error);
        if (file &&
            findingAllowed(*file, finding.line, finding.check))
            continue;
        findings.push_back(std::move(finding));
    }
    return true;
}

int
runSelfTest(const std::string &dir)
{
    std::set<std::string> paths;
    collectPaths(dir, paths);
    if (paths.empty()) {
        std::fprintf(stderr,
                     "beacon-lint: no fixtures under %s\n",
                     dir.c_str());
        return 2;
    }

    SourceCache cache;
    using Key = std::pair<std::string, std::size_t>;
    std::map<std::string, std::set<Key>> actual, expected;

    for (const std::string &path : paths) {
        std::string error;
        const SourceFile *file = cache.get(path, error);
        if (!file) {
            std::fprintf(stderr, "beacon-lint: %s\n", error.c_str());
            return 2;
        }
        // Self-test ignores layer scoping: fixtures exercise every
        // check no matter where the testdata directory lives.
        for (const Finding &f : lintFile(*file, {}, false))
            actual[path].insert({f.check, f.line});
        for (const auto &e : expectedFindings(*file))
            expected[path].insert(e);
        actual[path]; // make quiet files participate both ways
    }

    // The layer DAG pass runs over the fixture source tree.
    const fs::path project_dir = fs::path(dir) / "project";
    if (fs::is_directory(project_dir)) {
        std::vector<Finding> findings;
        std::string error;
        if (!runProjectPasses(project_dir.string(), cache, {},
                              findings, error)) {
            std::fprintf(stderr, "beacon-lint: %s\n",
                         error.c_str());
            return 2;
        }
        for (const Finding &f : findings)
            actual[f.path].insert({f.check, f.line});
    } else {
        std::fprintf(stderr,
                     "beacon-lint: warning: no project/ fixture "
                     "tree under %s; layer DAG pass not "
                     "self-tested\n",
                     dir.c_str());
    }

    int failures = 0;
    std::size_t files = 0;
    for (const auto &[path, want] : expected)
        actual[path]; // expected-only files still compared
    for (const auto &[path, got] : actual) {
        ++files;
        const std::set<Key> &want = expected[path];
        for (const auto &[check, line] : want) {
            if (!got.count({check, line})) {
                std::printf("FAIL %s:%zu: expected [%s] did not "
                            "fire\n",
                            path.c_str(), line, check.c_str());
                ++failures;
            }
        }
        for (const auto &[check, line] : got) {
            if (!want.count({check, line})) {
                std::printf("FAIL %s:%zu: unexpected [%s]\n",
                            path.c_str(), line, check.c_str());
                ++failures;
            }
        }
    }
    if (failures == 0) {
        std::printf("beacon-lint self-test: %zu fixture file(s) "
                    "OK\n",
                    files);
        return 0;
    }
    std::printf("beacon-lint self-test: %d mismatch(es)\n",
                failures);
    return 1;
}

/**
 * Dedupe @p all on (file, line, check) and sort for stable output:
 * a header reached through N translation units, an explicit path,
 * and the include closure reports each finding once.
 */
std::vector<const Finding *>
dedupeFindings(const std::vector<Finding> &all)
{
    std::set<std::tuple<std::string, std::size_t, std::string>>
        seen;
    std::vector<const Finding *> unique;
    for (const Finding &f : all)
        if (seen.insert({f.path, f.line, f.check}).second)
            unique.push_back(&f);
    std::sort(unique.begin(), unique.end(),
              [](const Finding *a, const Finding *b) {
                  return std::tie(a->path, a->line, a->check) <
                         std::tie(b->path, b->line, b->check);
              });
    return unique;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string db_path;
    std::string self_test_dir;
    std::string repo_root;
    bool json_output = false;
    std::vector<std::string> enabled;
    std::set<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-p" && i + 1 < argc) {
            db_path = argv[++i];
        } else if (arg == "--check" && i + 1 < argc) {
            enabled.push_back(argv[++i]);
        } else if (arg == "--self-test" && i + 1 < argc) {
            self_test_dir = argv[++i];
        } else if (arg == "--repo-root" && i + 1 < argc) {
            repo_root = argv[++i];
        } else if (arg == "--json") {
            json_output = true;
        } else if (arg == "--list-checks") {
            for (const Check &check : allChecks())
                std::printf("%-26s %s\n", check.name.c_str(),
                            check.description.c_str());
            for (const auto &[name, description] : pass_checks)
                std::printf("%-26s %s (whole-program; needs "
                            "--repo-root)\n",
                            name, description);
            return 0;
        } else if (arg == "-h" || arg == "--help") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            collectPaths(arg, paths);
        }
    }

    if (!self_test_dir.empty())
        return runSelfTest(self_test_dir);

    if (!db_path.empty()) {
        std::string error;
        for (const std::string &file :
             compileDatabaseFiles(db_path, error))
            paths.insert(file);
        if (!error.empty()) {
            std::fprintf(stderr, "beacon-lint: %s\n", error.c_str());
            return 2;
        }
    }
    if (paths.empty() && repo_root.empty())
        return usage(argv[0]);

    SourceCache cache;
    std::vector<Finding> all;

    std::size_t files = 0;
    for (const std::string &path : paths) {
        // The compile database may name generated or third-party
        // files outside the repo layers; everything under Layer
        // scoping simply has no applicable checks.
        std::string error;
        const SourceFile *file = cache.get(path, error);
        if (!file) {
            std::fprintf(stderr, "beacon-lint: %s\n", error.c_str());
            return 2;
        }
        ++files;
        for (Finding &f : lintFile(*file, enabled, true))
            all.push_back(std::move(f));
    }

    if (!repo_root.empty()) {
        std::string error;
        if (!runProjectPasses(repo_root, cache, enabled, all,
                              error)) {
            std::fprintf(stderr, "beacon-lint: %s\n", error.c_str());
            return 2;
        }
    }

    const std::vector<const Finding *> unique =
        dedupeFindings(all);

    if (json_output) {
        std::printf("[");
        for (std::size_t i = 0; i < unique.size(); ++i) {
            const Finding *f = unique[i];
            std::printf("%s\n  {\"file\": \"%s\", \"line\": %zu, "
                        "\"check\": \"%s\", \"message\": \"%s\"}",
                        i ? "," : "",
                        jsonEscape(f->path).c_str(), f->line,
                        jsonEscape(f->check).c_str(),
                        jsonEscape(f->message).c_str());
        }
        std::printf("%s]\n", unique.empty() ? "" : "\n");
    } else {
        for (const Finding *f : unique)
            std::printf("%s:%zu: warning: [%s] %s\n",
                        f->path.c_str(), f->line, f->check.c_str(),
                        f->message.c_str());
        std::printf("beacon-lint: %zu file(s) lexed (%zu cache "
                    "hits), %zu finding(s)\n",
                    cache.filesLexed(), cache.cacheHits(),
                    unique.size());
    }
    (void)files;
    return unique.empty() ? 0 : 1;
}
