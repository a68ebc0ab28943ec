/**
 * @file
 * Host-performance benchmark of the BEACON simulator.
 *
 *   beacon_perfbench --workload <name> [--seed <n>] [--seconds <s>]
 *                    [--trace 0|1] [--git-rev <rev>]
 *   beacon_perfbench --selftest --workload <name> [--seed <n>]
 *
 * A measured run repeats set-up and simulation of one workload for
 * --seconds and prints, as its last stdout line, one JSON object
 * with keys correct / attempted / failed / metrics. With --trace 0
 * the metrics are the end-to-end ones (medians over the untraced
 * simulations, scaled to a fixed host speed by the reference kernel
 * of reference.hh); with --trace 1 untraced and traced simulations
 * alternate and the metrics are the per-layer ones. Every simulation
 * is checked: the model digest (pinned at the default seed),
 * invariants at every seed, and identical outputs across the run.
 *
 * The self-test runs a workload twice untraced, once traced and once
 * with the checkers armed, and requires identical digests and counts
 * and zero checker findings.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "json.hh"
#include "reference.hh"
#include "workloads.hh"

using namespace perfbench;
using beacon::EventCat;

namespace
{

using Clock = std::chrono::steady_clock;

/** Simulations a measured run makes at least, however long. */
constexpr std::size_t min_samples = 3;
/**
 * Share of an untraced run spent on set-up-only repetitions, spread
 * over the run, so that setup_s is taken over many set-ups even
 * where one takes a few milliseconds.
 */
constexpr double setup_share = 0.15;

struct Args
{
    std::string workload;
    std::uint64_t seed = default_seed;
    double seconds = 10;
    bool trace = false;
    bool selftest = false;
    std::string git_rev = "unknown";
};

[[noreturn]] void
usage(const char *argv0, const std::string &why)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload <name> [--seed <n>] "
                 "[--seconds <s>] [--trace 0|1] [--git-rev <rev>]\n"
                 "       %s --selftest --workload <name> [--seed <n>]\n",
                 argv0, why.c_str(), argv0, argv0);
    std::exit(2);
}

/** Whole-string unsigned parse; exits with usage on anything else. */
std::uint64_t
parseUnsigned(const char *argv0, const std::string &flag,
              const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0')
        usage(argv0, "bad value for " + flag + ": '" + text + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(argv[0], "missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(argv[0], flag, value);
        } else if (flag == "--seconds") {
            a.seconds = double(parseUnsigned(argv[0], flag, value));
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage(argv[0], "--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--git-rev") {
            a.git_rev = value;
        } else {
            usage(argv[0], "unknown flag " + flag);
        }
    }
    if (!parseWorkload(a.workload))
        usage(argv[0], "unknown workload '" + a.workload + "'");
    return a;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/**
 * Peak resident memory of this process image. VmHWM, unlike
 * getrusage()'s ru_maxrss, restarts at exec, so a parent's larger
 * footprint does not show through.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/**
 * Failed simulations of a run: those with a problem of their own,
 * and those whose digest or counts differ from the run's first (or,
 * among traced ones, whose profiled counts differ from the first
 * traced simulation's).
 */
std::uint64_t
countFailures(const std::vector<Sample> &samples)
{
    std::uint64_t failed = 0;
    const Sample &ref = samples.front();
    const Sample *traced_ref = nullptr;
    for (const Sample &s : samples) {
        bool bad = !s.problems.empty() || s.digest != ref.digest ||
                   s.counts != ref.counts;
        for (const std::string &p : s.problems)
            std::fprintf(stderr, "problem: %s\n", p.c_str());
        if (s.trace) {
            std::uint64_t traced_events = 0;
            for (const LayerProfile::Layer &l : s.trace->layers)
                traced_events += l.events;
            bad |= traced_events != s.counts.events;
            if (!traced_ref)
                traced_ref = &s;
            bad |= !s.trace->sameCounts(*traced_ref->trace);
        }
        if (bad && s.problems.empty())
            std::fprintf(stderr, "problem: simulation differs from the "
                                 "run's first\n");
        failed += bad;
    }
    return failed;
}

/** The result line's metrics object and its "name: {value, unit}". */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        obj.add(name, JsonObject().add("value", value).add(
                          "unit", std::string(unit)));
    }

    const JsonObject &json() const { return obj; }

  private:
    JsonObject obj;
};

double
medianOf(const std::vector<Sample> &samples, double (*field)(const Sample &))
{
    std::vector<double> v;
    for (const Sample &s : samples)
        v.push_back(field(s));
    return median(std::move(v));
}

double runS(const Sample &s) { return s.run_s; }

double
seconds(std::chrono::nanoseconds t)
{
    return std::chrono::duration<double>(t).count();
}

/**
 * End-to-end metrics of an untraced run. Round i ran samples[i],
 * reference pass refs[2i], setups[i] and pass refs[2i + 1]. The
 * round's times are scaled by reference_nominal_s over the mean of
 * the passes of rounds i - 1 to i + 1: one 0.1 s pass samples the
 * host's speed too briefly to stand for a simulation of seconds, but
 * six around it follow the host's slower phases.
 */
Metrics
endToEnd(const std::vector<Sample> &samples,
         const std::vector<std::vector<double>> &setups,
         const std::vector<double> &refs, double peak_rss_mb)
{
    const Sample &ref = samples.front();
    std::vector<double> runs, setup_all;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const auto first = refs.begin() + std::ptrdiff_t(2 * i) -
                           std::ptrdiff_t(i > 0 ? 2 : 0);
        const auto last = refs.begin() +
                          std::ptrdiff_t(std::min(2 * i + 4, refs.size()));
        double host = 0;
        for (auto r = first; r != last; ++r)
            host += *r;
        const double scale =
            reference_nominal_s * double(last - first) / host;
        runs.push_back(samples[i].run_s * scale);
        for (const double t : setups[i])
            setup_all.push_back(t * scale);
    }
    const double run_s = median(std::move(runs));
    Metrics m;
    m.add("run_s", run_s, "s");
    m.add("setup_s", median(std::move(setup_all)), "s");
    m.add("sim_us_per_host_s", ref.sim_us / run_s, "us/s");
    m.add("dram_req_per_host_s", double(ref.counts.dram_reqs) / run_s,
          "1/s");
    m.add("peak_rss_mb", peak_rss_mb, "MB");
    return m;
}

/**
 * Per-layer metrics of a traced run, whose untraced[i] and traced[i]
 * ran back to back.
 */
Metrics
perLayer(const std::vector<Sample> &untraced,
         const std::vector<Sample> &traced)
{
    const Counts &c = untraced.front().counts;
    const LayerProfile &t = *traced.front().trace;
    std::vector<Sample> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    const auto host_s = [&](EventCat cat) {
        std::vector<double> v;
        for (const Sample &s : traced)
            v.push_back(seconds(s.trace->layer(cat).host));
        return median(std::move(v));
    };
    const auto events = [&](EventCat cat) {
        return double(t.layer(cat).events);
    };
    // The queue's own cost: the untraced simulation's time less the
    // traced twin's time inside callbacks. The traced run_s would
    // also count the profiler's own work outside the callbacks.
    std::vector<double> self_s;
    for (std::size_t i = 0; i < traced.size(); ++i)
        self_s.push_back(untraced[i].run_s -
                         seconds(traced[i].trace->callbackTime()));
    const double untraced_run_s = medianOf(untraced, runS);
    const double traced_run_s = medianOf(traced, runS);
    const double reqs = double(c.dram_reqs);

    Metrics m;
    m.add("sim.events", double(c.events), "count");
    m.add("sim.events_per_dram_req", ratio(double(c.events), reqs),
          "events/req");
    m.add("sim.ns_per_event", 1e9 * untraced_run_s / double(c.events),
          "ns");
    m.add("sim.heap_peak", double(t.heap_peak), "count");
    m.add("sim.cancelled_peak", double(t.cancelled_peak), "count");
    m.add("sim.self_s", median(std::move(self_s)), "s");

    const double dram_events = events(EventCat::Dram);
    m.add("dram.events", dram_events, "count");
    m.add("dram.host_s", host_s(EventCat::Dram), "s");
    m.add("dram.events_per_req", ratio(dram_events, reqs), "events/req");
    m.add("dram.cmds", double(c.dram_cmds), "count");
    m.add("dram.events_per_cmd", ratio(dram_events, double(c.dram_cmds)),
          "events/cmd");
    // Requests served from an open row: the controller's rowHits
    // counter also counts the first column after a request's own ACT.
    m.add("dram.row_hit_rate",
          std::max(0.0, 1.0 - ratio(double(c.dram_acts), reqs)), "ratio");

    const double cxl_host_s = host_s(EventCat::Cxl);
    m.add("cxl.events", events(EventCat::Cxl), "count");
    m.add("cxl.host_s", cxl_host_s, "s");
    m.add("cxl.messages", double(c.cxl_messages), "count");
    m.add("cxl.host_ns_per_msg",
          ratio(1e9 * cxl_host_s, double(c.cxl_messages)), "ns");
    m.add("cxl.useful_byte_ratio",
          ratio(double(c.useful_bytes), double(c.wire_bytes)), "ratio");

    m.add("ndp.events", events(EventCat::Ndp), "count");
    m.add("ndp.host_s", host_s(EventCat::Ndp), "s");
    m.add("ndp.tasks", double(c.ndp_tasks), "count");
    m.add("ndp.atomic_ops", double(c.atomic_ops), "count");
    m.add("ndp.atomic_conflict_ratio",
          ratio(double(c.atomic_conflicts), double(c.atomic_ops)), "ratio");

    m.add("service.events", events(EventCat::Service), "count");
    m.add("service.host_s", host_s(EventCat::Service), "s");
    m.add("service.jobs_completed", double(c.jobs_completed), "count");
    m.add("service.jobs_rejected", double(c.jobs_rejected), "count");

    m.add("genomics.build_s", medianOf(all, [](const Sample &s) {
              return s.genomics_build_s;
          }),
          "s");
    m.add("accel.machine_build_s", medianOf(all, [](const Sample &s) {
              return s.machine_build_s;
          }),
          "s");
    m.add("trace.overhead_pct",
          100.0 * (traced_run_s / untraced_run_s - 1.0), "%");
    return m;
}

void
printProvenance(const Args &a)
{
    const JsonObject config =
        JsonObject()
            .add("des", std::string("serial"))
            .add("obs", std::string("off"))
            .add("checkers", std::string("off"));
    const JsonObject p =
        JsonObject()
            .add("workload", a.workload)
            .add("seed", a.seed)
            .add("seconds", a.seconds)
            .add("trace", a.trace)
            .add("git_rev", a.git_rev)
            .add("build_type", std::string(PERFBENCH_BUILD_TYPE))
            .add("compiler", std::string(PERFBENCH_COMPILER))
            .add("nproc",
                 std::uint64_t(std::thread::hardware_concurrency()))
            .add("config", config);
    std::printf("provenance %s\n", p.str().c_str());
}

void
logSample(const char *what, const Sample &s)
{
    std::fprintf(stderr,
                 "%s: setup %.4f s (genomics %.4f, machine %.4f), "
                 "run %.4f s, %llu events%s\n",
                 what, s.setup_s, s.genomics_build_s, s.machine_build_s,
                 s.run_s, (unsigned long long)s.counts.events,
                 s.problems.empty() ? "" : ", PROBLEMS");
}

int
measure(const Args &a)
{
    const WorkloadKind kind = *parseWorkload(a.workload);
    printProvenance(a);
    // Stay on one CPU, so that no simulation pays for a migration.
    if (const int cpu = sched_getcpu(); cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
    }
    std::fflush(stdout);

    std::vector<Sample> untraced, traced;
    std::vector<std::vector<double>> setups;
    std::vector<double> refs;
    const auto since = [](Clock::time_point t) {
        return std::chrono::duration<double>(Clock::now() - t).count();
    };
    // The workload's own peak, read before any reference pass.
    double peak_rss_mb = 0;
    const Clock::time_point start = Clock::now();
    // Traced runs alternate with untraced ones, so both see the same
    // machine conditions and the overhead ratio is taken pairwise.
    // Untraced runs follow each simulation with set-up-only
    // repetitions for setup_share of the time. No round starts that
    // would end past --seconds if it took as long as the last one.
    double last_round = 0;
    while (untraced.size() < (a.trace ? 1 : min_samples) ||
           since(start) + last_round < a.seconds) {
        const Clock::time_point round = Clock::now();
        untraced.push_back(runWorkload(kind, a.seed, {}));
        logSample("untraced", untraced.back());
        if (a.trace) {
            traced.push_back(runWorkload(kind, a.seed, {.traced = true}));
            logSample("traced", traced.back());
            last_round = since(round);
            continue;
        }
        if (untraced.size() == 1)
            peak_rss_mb = peakRssMb();
        const double budget =
            since(round) * setup_share / (1.0 - setup_share);
        refs.push_back(referenceSeconds());
        std::fprintf(stderr, "reference: %.4f s\n", refs.back());
        setups.push_back({untraced.back().setup_s});
        const Clock::time_point reps = Clock::now();
        while (since(reps) < budget)
            setups.back().push_back(setupOnly(kind, a.seed));
        refs.push_back(referenceSeconds());
        std::fprintf(stderr, "reference: %.4f s\n", refs.back());
        last_round = since(round);
    }
    std::size_t setup_count = 0;
    for (const std::vector<double> &round : setups)
        setup_count += round.size();
    std::fprintf(stderr, "%zu simulations, %zu set-ups\n",
                 untraced.size() + traced.size(), setup_count);

    std::vector<Sample> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    const std::uint64_t failed = countFailures(all);

    std::printf("digest %s\n", all.front().digest.c_str());
    if (!a.trace) {
        // The unscaled figures, beside the scaled ones of the result.
        const JsonObject host =
            JsonObject()
                .add("run_s_median", medianOf(untraced, runS))
                .add("reference_s_median", median(refs));
        std::printf("host %s\n", host.str().c_str());
    }
    const JsonObject metrics =
        a.trace ? perLayer(untraced, traced).json()
                : endToEnd(untraced, setups, refs, peak_rss_mb).json();
    const JsonObject result = JsonObject()
                                  .add("correct", failed == 0)
                                  .add("attempted", std::uint64_t(all.size()))
                                  .add("failed", failed)
                                  .add("metrics", metrics);
    std::printf("%s\n", result.str().c_str());
    return 0;
}

int
selftest(const Args &a)
{
    const WorkloadKind kind = *parseWorkload(a.workload);
    const std::vector<Sample> runs = {
        runWorkload(kind, a.seed, {}),
        runWorkload(kind, a.seed, {}),
        runWorkload(kind, a.seed, {.traced = true}),
        runWorkload(kind, a.seed, {.checkers = true}),
    };
    const char *names[] = {"untraced", "untraced", "traced",
                           "checker-armed"};
    for (std::size_t i = 0; i < runs.size(); ++i)
        logSample(names[i], runs[i]);
    const std::uint64_t failed = countFailures(runs);
    std::printf("%s seed %llu: %s\n  digest %s\n", a.workload.c_str(),
                (unsigned long long)a.seed,
                failed == 0 ? "identical digests and counts, no findings"
                            : "FAILED",
                runs.front().digest.c_str());
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return args.selftest ? selftest(args) : measure(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "beacon_perfbench: %s\n", e.what());
        return 1;
    }
}
