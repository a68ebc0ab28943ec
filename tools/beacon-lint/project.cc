/**
 * @file
 * Project construction and the architecture DAG contract.
 */

#include "analysis.hh"

#include <algorithm>
#include <filesystem>

namespace fs = std::filesystem;

namespace beacon_lint
{

namespace
{

bool
lintableExtension(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp" || ext == ".h";
}

} // namespace

std::string
Project::relative(const std::string &path) const
{
    const std::string canon = SourceCache::canonical(path);
    std::string rel =
        fs::path(canon).lexically_relative(fs::path(root)).string();
    std::replace(rel.begin(), rel.end(), '\\', '/');
    return rel;
}

std::string
Project::moduleOf(const std::string &path) const
{
    const std::string rel = relative(path);
    if (rel.rfind("src/", 0) != 0)
        return "";
    const std::size_t start = 4;
    const std::size_t slash = rel.find('/', start);
    if (slash == std::string::npos)
        return ""; // a file directly under src/ has no module
    return rel.substr(start, slash - start);
}

bool
buildProject(const std::string &root, SourceCache &cache,
             Project &out, std::string &error)
{
    out.root = SourceCache::canonical(root);
    out.cache = &cache;
    out.files.clear();

    const fs::path src = fs::path(out.root) / "src";
    if (!fs::is_directory(src)) {
        error = "no src/ directory under " + out.root;
        return false;
    }
    for (const auto &entry : fs::recursive_directory_iterator(src)) {
        if (entry.is_regular_file() &&
            lintableExtension(entry.path()))
            out.files.push_back(
                SourceCache::canonical(entry.path().string()));
    }
    std::sort(out.files.begin(), out.files.end());

    // Lex everything up front so the passes never hit IO errors
    // mid-analysis.
    for (const std::string &file : out.files) {
        std::string file_error;
        if (!cache.get(file, file_error)) {
            error = file_error;
            return false;
        }
    }
    return true;
}

const std::set<std::string> *
allowedDeps(const std::string &module)
{
    // The DAG of docs/static_analysis.md. A module may always
    // include itself; tap modules (obs, check) may additionally be
    // included from anywhere (see isTapModule).
    static const std::map<std::string, std::set<std::string>> dag = {
        {"common", {}},
        {"sim", {"common"}},
        {"dram", {"common", "sim"}},
        {"cxl", {"common", "sim"}},
        {"ndp", {"common", "sim", "dram", "cxl"}},
        {"genomics", {"common"}},
        {"graph", {"common"}},
        {"memmgmt", {"common", "sim", "dram", "cxl", "ndp"}},
        {"accel",
         {"common", "sim", "dram", "cxl", "ndp", "memmgmt",
          "genomics", "graph"}},
        {"service",
         {"common", "sim", "dram", "cxl", "ndp", "memmgmt", "accel",
          "genomics", "graph"}},
        {"rack",
         {"common", "sim", "dram", "cxl", "ndp", "memmgmt", "accel",
          "genomics", "graph", "service"}},
        // Taps observe the kernels; they must never depend on the
        // component layers they are observed *from*, or the tap
        // edge would close a cycle.
        {"obs", {"common", "sim"}},
        {"check", {"common", "sim", "dram"}},
    };
    auto it = dag.find(module);
    return it == dag.end() ? nullptr : &it->second;
}

bool
isTapModule(const std::string &module)
{
    return module == "obs" || module == "check";
}

} // namespace beacon_lint
