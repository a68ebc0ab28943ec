#include "sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <ostream>
#include <sstream>

#include "accel/report.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/thread_pool.hh"

namespace beacon
{

namespace
{

// Wall-clock elapsed time feeds only the wall_seconds field, which
// the golden gate and cross-worker-count diffs exclude
// (BEACON_BENCH_JSON_NO_WALL).
double
// beacon-lint: allow(determinism-wallclock)
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               // beacon-lint: allow(determinism-wallclock)
               std::chrono::steady_clock::now() - since)
        .count();
}

/** splitmix64 finaliser decorrelating per-job seeds. */
std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t index)
{
    std::uint64_t z = base + (index + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

SweepRunner::SweepRunner(unsigned jobs, std::uint64_t seed)
    : num_jobs(jobs ? jobs : 1), base_seed(seed)
{
}

unsigned
SweepRunner::jobsFromEnv()
{
    const char *env = std::getenv("BEACON_BENCH_JOBS");
    if (!env)
        return ThreadPool::defaultThreads();
    const auto jobs = parsePositive<unsigned>(env);
    if (!jobs)
        BEACON_FATAL("invalid BEACON_BENCH_JOBS='", env,
                     "': expected a positive integer");
    return *jobs;
}

std::size_t
SweepRunner::enqueue(SweepKey key, JobFn fn)
{
    pending.push_back({std::move(key), std::move(fn)});
    return pending.size() - 1;
}

std::size_t
SweepRunner::enqueueRun(SweepKey key, const SystemParams &params,
                        const Workload &workload, std::size_t tasks,
                        std::vector<std::string> stat_keys,
                        AfterRunFn after_run)
{
    return enqueue(
        std::move(key),
        [params, &workload, tasks, stat_keys = std::move(stat_keys),
         after_run = std::move(after_run)](RunContext &) {
            SweepOutcome out;
            NdpSystem system(params, workload);
            out.result = system.run(tasks);
            for (const std::string &stat : stat_keys)
                out.stats.emplace_back(
                    stat, system.stats().sumMatching(stat));
            if (after_run)
                after_run(system, out);
            return out;
        });
}

void
SweepRunner::setFilter(const std::string &pattern)
{
    filter = std::regex(pattern);
    have_filter = true;
}

std::vector<SweepOutcome>
SweepRunner::run()
{
    std::vector<Pending> jobs_to_run;
    jobs_to_run.swap(pending);

    std::vector<SweepOutcome> outcomes(jobs_to_run.size());

    if (list_only) {
        // Enumerate without executing: every point one stdout line,
        // every outcome skipped.
        for (std::size_t i = 0; i < jobs_to_run.size(); ++i) {
            outcomes[i].key = jobs_to_run[i].key;
            outcomes[i].skipped = true;
            std::printf("%s/%s\n",
                        jobs_to_run[i].key.dataset.c_str(),
                        jobs_to_run[i].key.label.c_str());
        }
        return outcomes;
    }

    // Filter decisions are made serially up front so worker threads
    // never touch the shared regex.
    std::vector<char> filtered_out(jobs_to_run.size(), 0);
    if (have_filter) {
        for (std::size_t i = 0; i < jobs_to_run.size(); ++i) {
            const std::string identity = jobs_to_run[i].key.dataset +
                                         "/" +
                                         jobs_to_run[i].key.label;
            filtered_out[i] = !std::regex_search(identity, filter);
        }
    }

    std::vector<std::exception_ptr> errors(jobs_to_run.size());
    std::atomic<bool> cancelled{false};

    auto execute = [&](std::size_t i) {
        outcomes[i].key = jobs_to_run[i].key;
        if (filtered_out[i] ||
            cancelled.load(std::memory_order_acquire)) {
            outcomes[i].skipped = true;
            return;
        }
        // beacon-lint: allow(determinism-wallclock) wall_seconds only
        const auto start = std::chrono::steady_clock::now();
        RunContext ctx;
        ctx.index = i;
        ctx.rng = Rng(mixSeed(base_seed, i));
        try {
            SweepOutcome out = jobs_to_run[i].fn(ctx);
            out.key = jobs_to_run[i].key;
            out.wall_seconds = elapsedSeconds(start);
            outcomes[i] = std::move(out);
        } catch (...) {
            errors[i] = std::current_exception();
            cancelled.store(true, std::memory_order_release);
        }
    };

    const unsigned workers = unsigned(std::min<std::size_t>(
        num_jobs, std::max<std::size_t>(jobs_to_run.size(), 1)));
    if (workers <= 1) {
        for (std::size_t i = 0; i < jobs_to_run.size(); ++i)
            execute(i);
    } else {
        // The pool joins before run() returns: no detached threads
        // survive a sweep, even one aborted by a worker exception.
        ThreadPool pool(workers);
        std::vector<std::future<void>> done;
        done.reserve(jobs_to_run.size());
        for (std::size_t i = 0; i < jobs_to_run.size(); ++i)
            done.push_back(pool.submit([&execute, i] { execute(i); }));
        for (auto &future : done)
            future.get();
    }

    // Serial-equivalent error surfacing: the recorded failure with
    // the lowest submission index wins.
    for (std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    return outcomes;
}

// ---------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------

namespace
{

/** Shortest round-trippable decimal form of @p v. */
std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeStatPairs(
    std::ostream &os,
    const std::vector<std::pair<std::string, double>> &pairs,
    const std::string &pad)
{
    os << "{";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (i)
            os << ",";
        os << "\n" << pad << "  \"" << jsonEscape(pairs[i].first)
           << "\": " << jsonNumber(pairs[i].second);
    }
    if (!pairs.empty())
        os << "\n" << pad;
    os << "}";
}

/**
 * One record's "self_profile" object: totals, throughput, and the
 * non-empty per-category breakdown (all wall-clock based, so only
 * ever emitted under include_runtime).
 */
void
writeSelfProfileJson(std::ostream &os, const obs::SelfProfileResult &sp)
{
    os << "      \"self_profile\": {\n";
    os << "        \"events\": " << sp.events << ",\n";
    os << "        \"wall_seconds\": "
       << jsonNumber(sp.wall_seconds) << ",\n";
    os << "        \"events_per_second\": "
       << jsonNumber(sp.eventsPerSecond()) << ",\n";
    os << "        \"top_categories\": [";
    const std::vector<std::string> top = sp.topCategories();
    for (std::size_t i = 0; i < top.size(); ++i)
        os << (i ? ", " : "") << "\"" << top[i] << "\"";
    os << "],\n";
    os << "        \"categories\": {";
    bool first = true;
    for (std::size_t c = 0; c < sp.by_cat.size(); ++c) {
        const obs::SelfProfileCat &cat = sp.by_cat[c];
        if (!cat.events)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\n          \"" << eventCatName(EventCat(c))
           << "\": {\"events\": " << cat.events
           << ", \"wall_seconds\": " << jsonNumber(cat.wall_seconds)
           << ", \"max_event_seconds\": "
           << jsonNumber(cat.max_event_seconds) << "}";
    }
    if (!first)
        os << "\n        ";
    os << "}\n      },\n";
}

} // namespace

void
writeSweepJson(std::ostream &os, const SweepReport &report,
               bool include_runtime)
{
    // writeRunResultJson prints doubles via operator<<; raise the
    // stream precision so values round-trip exactly.
    const auto saved_precision = os.precision(17);

    os << "{\n";
    os << "  \"schema\": \"beacon-bench-3\",\n";
    os << "  \"harness\": \"" << jsonEscape(report.harness)
       << "\",\n";
    os << "  \"bench_scale\": " << report.bench_scale << ",\n";
    if (include_runtime) {
        os << "  \"jobs\": " << report.jobs << ",\n";
        os << "  \"wall_seconds\": "
           << jsonNumber(report.wall_seconds) << ",\n";
    }
    os << "  \"records\": [";
    for (std::size_t i = 0; i < report.records.size(); ++i) {
        const SweepOutcome &rec = report.records[i];
        if (i)
            os << ",";
        os << "\n    {\n";
        os << "      \"dataset\": \"" << jsonEscape(rec.key.dataset)
           << "\",\n";
        os << "      \"label\": \"" << jsonEscape(rec.key.label)
           << "\",\n";
        // Emitted only when set, so pre-existing golden files keep
        // their exact byte shape.
        if (rec.skipped)
            os << "      \"skipped\": true,\n";
        if (!rec.trace_file.empty())
            os << "      \"trace_file\": \""
               << jsonEscape(rec.trace_file) << "\",\n";
        if (!rec.timeseries_file.empty())
            os << "      \"timeseries_file\": \""
               << jsonEscape(rec.timeseries_file) << "\",\n";
        if (!rec.reqtrace_file.empty())
            os << "      \"reqtrace_file\": \""
               << jsonEscape(rec.reqtrace_file) << "\",\n";
        if (include_runtime) {
            os << "      \"wall_seconds\": "
               << jsonNumber(rec.wall_seconds) << ",\n";
            if (rec.self_profile.enabled)
                writeSelfProfileJson(os, rec.self_profile);
        }
        os << "      \"stats\": ";
        writeStatPairs(os, rec.stats, "      ");
        os << ",\n";
        os << "      \"run\":\n";
        writeRunResultJson(os, rec.result, 6);
        os << "\n    }";
    }
    if (!report.records.empty())
        os << "\n  ";
    os << "],\n";
    os << "  \"derived\": ";
    writeStatPairs(os, report.derived, "  ");
    os << "\n}\n";

    os.precision(saved_precision);
}

std::string
sweepJsonString(const SweepReport &report, bool include_runtime)
{
    std::ostringstream os;
    writeSweepJson(os, report, include_runtime);
    return os.str();
}

} // namespace beacon
