/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses.
 *
 * Every bench prints the same series the paper reports, normalised
 * the same way (to the 48-thread CPU baseline and to the MEDAL/NEST
 * hardware baselines). Dataset sizes are scaled for simulator
 * tractability; set BEACON_BENCH_SCALE=<n> to multiply genome sizes
 * and read counts.
 *
 * Harnesses run their independent simulations through SweepRunner
 * (accel/sweep.hh): BEACON_BENCH_JOBS workers execute sweep points
 * concurrently, and results are merged in submission order so the
 * printed tables and emitted JSON are bit-identical to a serial run.
 * Every harness accepts `--json <path>` and writes the
 * beacon-bench-3 schema (see EXPERIMENTS.md); with
 * BEACON_BENCH_JSON_NO_WALL=1 the wall-clock fields are omitted so
 * two emissions of the same sweep compare byte-for-byte.
 */

#ifndef BEACON_BENCH_BENCH_UTIL_HH
#define BEACON_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "accel/cpu_baseline.hh"
#include "accel/experiment.hh"
#include "accel/sweep.hh"
#include "accel/system.hh"
#include "accel/workload.hh"
#include "common/logging.hh"
#include "common/parse.hh"

namespace beacon::bench
{

/** Scale factor from BEACON_BENCH_SCALE (default 1); a value that
 *  is not a positive integer is fatal. */
inline unsigned
benchScale()
{
    const char *env = std::getenv("BEACON_BENCH_SCALE");
    if (!env)
        return 1;
    const auto scale = parsePositive<unsigned>(env);
    if (!scale)
        BEACON_FATAL("invalid BEACON_BENCH_SCALE='", env,
                     "': expected a positive integer");
    return *scale;
}

/** The five seeding presets at bench-tractable sizes. */
inline std::vector<genomics::DatasetPreset>
benchSeedingPresets()
{
    auto presets = genomics::seedingPresets();
    const unsigned scale = benchScale();
    for (auto &preset : presets) {
        preset.genome.length =
            std::max<std::size_t>(1u << 16,
                                  preset.genome.length / 4) *
            scale;
        // Enough tasks to saturate the NDP modules (steady state).
        preset.reads.num_reads = 1024 * scale;
    }
    return presets;
}

/** The k-mer counting preset at bench-tractable size. */
inline genomics::DatasetPreset
benchKmcPreset()
{
    genomics::DatasetPreset preset = genomics::kmerCountingPreset();
    preset.genome.length = (1u << 17) * benchScale();
    return preset;
}

/** Geometric mean of a series. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

/** Print one header cell / row cell with fixed width. */
inline void
printCell(const std::string &text, int width = 12)
{
    std::printf("%*s", width, text.c_str());
}

inline void
printHeader(const std::string &first,
            const std::vector<std::string> &columns, int width = 12)
{
    std::printf("%-14s", first.c_str());
    for (const auto &column : columns)
        printCell(column, width);
    std::printf("\n");
}

inline void
printRow(const std::string &label, const std::vector<double> &values,
         const char *format = "%.2fx", int width = 12)
{
    std::printf("%-14s", label.c_str());
    for (double v : values) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), format, v);
        printCell(buf, width);
    }
    std::printf("\n");
}

// ---------------------------------------------------------------
// Harness plumbing: arguments, timing, JSON emission
// ---------------------------------------------------------------

/** Options common to every harness. */
struct BenchOptions
{
    std::string json_path; //!< empty = no JSON emission
    /** Enumerate sweep points (one "dataset/label" line each)
     *  without running any simulation. */
    bool list = false;
    /** Regex over "dataset/label"; non-matching points are skipped
     *  (empty = run everything). */
    std::string filter;
    /** Directory for per-point Chrome traces ("" = tracing off). */
    std::string trace_dir;
    /** Directory for per-point time series ("" = sampling off). */
    std::string timeseries_dir;
    /** Sampling interval for --timeseries, in simulated ns. */
    std::uint64_t sample_interval_ns = 10000; // 10 us
    /** Report the host-side event-loop self-profile in the JSON. */
    bool self_profile = false;
    /** Directory for per-point request traces ("" = off). */
    std::string reqtrace_dir;
    /** SLO window-roll interval in simulated ns (0 = SLO off). */
    std::uint64_t slo_window_ns = 0;
    /** Flight-recorder dump path ("" = recorder off). */
    std::string flight_recorder;
    /** Emit the wall-clock JSON fields (BEACON_BENCH_JSON_NO_WALL
     *  unset or 0); see jsonIncludesWall(). */
    bool json_wall = true;
};

/**
 * Whether bench JSON carries its wall-clock fields: yes when
 * BEACON_BENCH_JSON_NO_WALL is unset or "0", no when it is "1"; any
 * other value is fatal.
 */
inline bool
jsonIncludesWall()
{
    const char *env = std::getenv("BEACON_BENCH_JSON_NO_WALL");
    if (!env)
        return true;
    const std::string value = env;
    if (value != "0" && value != "1")
        BEACON_FATAL("invalid BEACON_BENCH_JSON_NO_WALL='", value,
                     "': expected 0 or 1");
    return value == "0";
}

/** Print the shared harness usage and exit with rc=2. */
[[noreturn]] inline void
benchUsage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s [--json <path>] [--list] "
                 "[--filter <regex>] [--trace [dir]] "
                 "[--timeseries [dir]] "
                 "[--sample-interval-ns <n>] "
                 "[--self-profile] "
                 "[--request-trace [dir]] "
                 "[--slo-window-ns <n>] "
                 "[--flight-recorder [path]]\n",
                 prog);
    std::exit(2);
}

/**
 * Parse the shared harness flags; exits with usage on anything else,
 * including a malformed interval value.
 * `--trace` / `--timeseries` take an optional directory (default:
 * the current directory) and write one file per executed sweep
 * point, named from the harness and the point's dataset/label — the
 * names are a pure function of the sweep, so reruns and different
 * BEACON_BENCH_JOBS values produce byte-identical artefacts.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions opts;
    // The optional directory operand: consume argv[i+1] unless it is
    // absent or the next flag.
    const auto dir_operand = [&](int &i) -> std::string {
        if (i + 1 < argc && argv[i + 1][0] != '-')
            return argv[++i];
        return ".";
    };
    // A positive interval in simulated ns, small enough to convert
    // to ps ticks without overflow.
    const auto interval_ns = [&](int &i) -> std::uint64_t {
        const char *flag = argv[i];
        const char *text = argv[++i];
        const auto ns = parsePositive<std::uint64_t>(
            text, std::numeric_limits<std::uint64_t>::max() / 1000);
        if (!ns) {
            std::fprintf(stderr,
                         "invalid %s '%s': expected a positive "
                         "integer\n",
                         flag, text);
            benchUsage(argv[0]);
        }
        return *ns;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            opts.json_path = argv[++i];
        } else if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--filter" && i + 1 < argc) {
            opts.filter = argv[++i];
        } else if (arg == "--trace") {
            opts.trace_dir = dir_operand(i);
        } else if (arg == "--timeseries") {
            opts.timeseries_dir = dir_operand(i);
        } else if (arg == "--sample-interval-ns" && i + 1 < argc) {
            opts.sample_interval_ns = interval_ns(i);
        } else if (arg == "--self-profile") {
            opts.self_profile = true;
        } else if (arg == "--request-trace") {
            opts.reqtrace_dir = dir_operand(i);
        } else if (arg == "--slo-window-ns" && i + 1 < argc) {
            opts.slo_window_ns = interval_ns(i);
        } else if (arg == "--flight-recorder") {
            if (i + 1 < argc && argv[i + 1][0] != '-')
                opts.flight_recorder = argv[++i];
            else
                opts.flight_recorder = "beacon-flightrec.json";
        } else {
            benchUsage(argv[0]);
        }
    }
    opts.json_wall = jsonIncludesWall();
    return opts;
}

/**
 * The per-machine telemetry configuration the flags ask for; the
 * flags are its only source (no flag, no telemetry).
 */
inline obs::ObsConfig
obsConfigFor(const BenchOptions &opts)
{
    obs::ObsConfig cfg;
    cfg.trace = !opts.trace_dir.empty();
    if (!opts.timeseries_dir.empty())
        cfg.sample_interval = opts.sample_interval_ns * 1000; // ->ps
    cfg.self_profile = opts.self_profile;
    cfg.request_trace = !opts.reqtrace_dir.empty();
    cfg.slo_window = opts.slo_window_ns * 1000; // ns -> ps
    cfg.flight_recorder_path = opts.flight_recorder;
    return cfg;
}

/**
 * For harnesses that build no NdpSystem (fig01, table1): a telemetry
 * flag would observe nothing, so it is a usage error rather than a
 * silent no-op.
 */
inline void
rejectTelemetryFlags(const BenchOptions &opts, const char *prog)
{
    if (obsConfigFor(opts).enabled()) {
        std::fprintf(stderr,
                     "%s runs no accelerator machine: telemetry flags "
                     "do not apply\n",
                     prog);
        benchUsage(prog);
    }
}

/** "harness_dataset_label" with non-filename characters mapped to
 *  '-' — the deterministic per-point artefact stem. */
inline std::string
obsFileStem(const std::string &harness, const SweepKey &key)
{
    std::string stem = harness + "_" + key.dataset + "_" + key.label;
    for (char &c : stem)
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '_' && c != '.')
            c = '-';
    return stem;
}

/**
 * End-of-point telemetry emission: stop sampling (while the machine
 * and any orchestrator series callbacks are still alive), write the
 * per-point trace / time-series files, and snapshot the self-profile
 * into the outcome. No stdout output — the determinism gates diff
 * harness stdout byte-for-byte.
 */
inline void
emitObsOutputs(NdpSystem &system, const BenchOptions &opts,
               const std::string &harness, const SweepKey &key,
               SweepOutcome &out)
{
    obs::Observability *o = system.observability();
    if (!o)
        return;
    o->finish();
    // The JSON records the artefact names relative to the --trace /
    // --timeseries directory, keeping the report independent of
    // where the caller pointed the output (determinism diffs compare
    // reports from different directories).
    if (!opts.trace_dir.empty() && o->trace()) {
        out.trace_file = obsFileStem(harness, key) + ".trace.json";
        o->writeTrace(opts.trace_dir + "/" + out.trace_file);
    }
    if (!opts.timeseries_dir.empty() && o->sampler()) {
        out.timeseries_file =
            obsFileStem(harness, key) + ".timeseries.json";
        o->writeTimeseries(opts.timeseries_dir + "/" +
                           out.timeseries_file);
    }
    if (!opts.reqtrace_dir.empty() && o->requestTrace()) {
        out.reqtrace_file =
            obsFileStem(harness, key) + ".reqtrace.json";
        o->writeRequestTrace(opts.reqtrace_dir + "/" +
                             out.reqtrace_file);
    }
    if (o->selfProfiling())
        out.self_profile = o->selfProfile();
}

/**
 * The harnesses' one way to enqueue a machine run:
 * SweepRunner::enqueueRun with the flag-derived ObsConfig, emitting
 * the point's telemetry artefacts before the outcome is returned.
 */
inline std::size_t
enqueueRunObs(SweepRunner &runner, const std::string &harness,
              const BenchOptions &opts, const SweepKey &key,
              SystemParams params, const Workload &workload,
              std::size_t tasks = 0,
              std::vector<std::string> stat_keys = {})
{
    params.obs = obsConfigFor(opts);
    return runner.enqueueRun(
        key, params, workload, tasks, std::move(stat_keys),
        [harness, opts, key](NdpSystem &system, SweepOutcome &out) {
            emitObsOutputs(system, opts, harness, key, out);
        });
}

/** Hand the sweep-point controls (--list / --filter) to a runner. */
inline void
applyBenchControls(SweepRunner &runner, const BenchOptions &opts)
{
    runner.setListOnly(opts.list);
    if (!opts.filter.empty())
        runner.setFilter(opts.filter);
}

/** Wall-clock stopwatch for the whole-harness timing field (the
 *  JSON wall_seconds value, excluded from determinism diffs).
 *  beacon-lint: allow-file(determinism-wallclock) */
class BenchTimer
{
  public:
    BenchTimer() : start(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

/** Fresh report stamped with harness name, scale, and job count. */
inline SweepReport
makeReport(const char *harness, const SweepRunner &runner)
{
    SweepReport report;
    report.harness = harness;
    report.bench_scale = benchScale();
    report.jobs = runner.jobs();
    return report;
}

/**
 * Write the report to opts.json_path (if set), without the
 * non-deterministic wall-clock fields when opts.json_wall is false
 * (BEACON_BENCH_JSON_NO_WALL=1).
 */
inline void
emitJson(SweepReport &report, const BenchOptions &opts,
         const BenchTimer &timer)
{
    report.wall_seconds = timer.seconds();
    // List mode enumerates points; nothing ran, so nothing to emit.
    if (opts.json_path.empty() || opts.list)
        return;
    std::ofstream out(opts.json_path);
    if (!out)
        BEACON_FATAL("cannot open --json path '", opts.json_path,
                     "'");
    writeSweepJson(out, report, opts.json_wall);
    std::fprintf(stderr, "bench JSON written to %s\n",
                 opts.json_path.c_str());
}

// ---------------------------------------------------------------
// Ladder panels (Figs. 12/14/15)
// ---------------------------------------------------------------

/** Stat keys carried by the CPU-baseline pseudo-record. */
inline constexpr const char *cpu_seconds_key = "cpu.seconds";
inline constexpr const char *cpu_energy_key = "cpu.energy_pj";

/** Enqueue the analytic CPU baseline as one sweep job. */
inline std::size_t
enqueueCpuBaseline(SweepRunner &runner, const std::string &dataset,
                   const Workload &workload, bool kmc_single_pass)
{
    return runner.enqueue(
        {dataset, "cpu-48t"},
        [&workload, kmc_single_pass](RunContext &) {
            SweepOutcome out;
            const CpuBaselineResult cpu = cpuBaseline(
                measureFootprint(workload,
                                 WorkloadContext{kmc_single_pass, 0}));
            out.stats.emplace_back(cpu_seconds_key, cpu.seconds);
            out.stats.emplace_back(cpu_energy_key,
                                   cpu.energy_pj.value());
            return out;
        });
}

/** First stats value recorded under @p key (0 when absent). */
inline double
statOf(const SweepOutcome &outcome, const char *key)
{
    for (const auto &[name, value] : outcome.stats)
        if (name == key)
            return value;
    return 0;
}

/**
 * Print one step-by-step optimization panel (the shape of
 * Figs. 12/14/15): per dataset, speedup over the CPU baseline for
 * every ladder rung, the hardware baseline, the final-design ratio
 * over that baseline, and the fraction of the idealized design's
 * performance. A second table reports energy reduction over the CPU
 * baseline per rung.
 *
 * All (dataset x {cpu, rungs, baseline, ideal}) points run through
 * @p runner concurrently; the tables print from the merged outcomes
 * and are appended to @p report.
 */
inline void
ladderPanel(
    SweepRunner &runner, SweepReport &report,
    const BenchOptions &opts, const std::string &title,
    const std::vector<std::pair<std::string, const Workload *>>
        &datasets,
    const SystemParams &hw_baseline,
    const std::vector<LadderStep> &ladder, std::size_t tasks = 0)
{
    // Submission order per dataset: cpu, rungs..., baseline, ideal.
    const std::size_t stride = ladder.size() + 3;
    for (const auto &[name, workload] : datasets) {
        enqueueCpuBaseline(runner, name, *workload,
                           ladder.back().params.opts.kmc_single_pass);
        for (const LadderStep &step : ladder)
            enqueueRunObs(runner, report.harness, opts,
                          {name, step.label}, step.params, *workload,
                          tasks);
        enqueueRunObs(runner, report.harness, opts,
                      {name, hw_baseline.name}, hw_baseline,
                      *workload, tasks);
        enqueueRunObs(runner, report.harness, opts,
                      {name, ladder.back().params.name + "-ideal"},
                      ladder.back().params.idealized(), *workload,
                      tasks);
    }
    const std::vector<SweepOutcome> outcomes = runner.run();
    if (runner.listOnly()) {
        // Enumeration only: the points were printed by run().
        report.add(outcomes);
        return;
    }

    std::printf("--- %s ---\n", title.c_str());
    std::vector<std::string> columns;
    for (const LadderStep &step : ladder)
        columns.push_back(step.label);
    columns.push_back(hw_baseline.name);
    columns.push_back("final/base");
    columns.push_back("%of-ideal");
    printHeader("dataset", columns, 14);

    std::vector<std::string> printed_datasets;
    std::vector<std::vector<double>> energy_rows;
    std::vector<double> final_vs_base, pct_ideal;
    for (std::size_t d = 0; d < datasets.size(); ++d) {
        bool row_filtered = false;
        for (std::size_t s = 0; s < stride; ++s)
            row_filtered |= outcomes[d * stride + s].skipped;
        if (row_filtered)
            continue; // --filter removed part of this ladder
        const SweepOutcome &cpu = outcomes[d * stride];
        const double cpu_seconds = statOf(cpu, cpu_seconds_key);
        const double cpu_energy = statOf(cpu, cpu_energy_key);
        const SweepOutcome *rungs = &outcomes[d * stride + 1];
        const RunResult &final_run =
            rungs[ladder.size() - 1].result;
        const RunResult &base =
            outcomes[d * stride + 1 + ladder.size()].result;
        const RunResult &ideal =
            outcomes[d * stride + 2 + ladder.size()].result;

        std::vector<double> row, erow;
        for (std::size_t s = 0; s < ladder.size(); ++s) {
            row.push_back(cpu_seconds / rungs[s].result.seconds);
            erow.push_back(cpu_energy /
                           rungs[s].result.energy.totalPj().value());
        }
        row.push_back(cpu_seconds / base.seconds);
        const double vs_base =
            double(base.ticks) / double(final_run.ticks);
        row.push_back(vs_base);
        const double ideal_pct = 100.0 * double(ideal.ticks) /
                                 double(final_run.ticks);
        row.push_back(ideal_pct);
        final_vs_base.push_back(vs_base);
        pct_ideal.push_back(ideal_pct);
        printRow(datasets[d].first, row, "%.2f", 14);

        erow.push_back(cpu_energy / base.energy.totalPj().value());
        erow.push_back(base.energy.totalPj().value() /
                       final_run.energy.totalPj().value());
        erow.push_back(100.0 * ideal.energy.totalPj().value() /
                       final_run.energy.totalPj().value());
        energy_rows.push_back(std::move(erow));
        printed_datasets.push_back(datasets[d].first);
    }
    std::printf("%-14s final vs %s: %s (geomean), "
                "%.1f%% of idealized design\n",
                "summary", hw_baseline.name.c_str(),
                formatX(geomean(final_vs_base)).c_str(),
                geomean(pct_ideal));

    std::printf("\nenergy reduction vs CPU (and final/base, "
                "ideal%%):\n");
    printHeader("dataset", columns, 14);
    for (std::size_t i = 0; i < printed_datasets.size(); ++i)
        printRow(printed_datasets[i], energy_rows[i], "%.2f", 14);
    std::printf("\n");

    report.add(outcomes);
    report.derive(title + " :: final_vs_base_geomean",
                  geomean(final_vs_base));
    report.derive(title + " :: pct_of_ideal_geomean",
                  geomean(pct_ideal));
}

} // namespace beacon::bench

#endif // BEACON_BENCH_BENCH_UTIL_HH
