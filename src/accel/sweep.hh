/**
 * @file
 * Parallel experiment sweep engine.
 *
 * The paper's evaluation is a grid of independent simulations
 * (dataset preset x optimization-ladder rung x machine). SweepRunner
 * executes those points concurrently on a thread pool, each in a
 * fully isolated run context: every job constructs its own NdpSystem
 * (and with it a private EventQueue and StatRegistry) and receives a
 * private Rng stream seeded from (base seed, submission index). A
 * machine never leaves the thread that built it, and that
 * confinement is why the machine and its registry take no locks.
 * Results are merged by submission index, so the outcome vector —
 * and any JSON serialised from it — is bit-identical to a serial run
 * regardless of the worker count.
 *
 * The worker count comes from BEACON_BENCH_JOBS (default: hardware
 * concurrency); jobs=1 degenerates to a plain serial loop.
 */

#ifndef BEACON_ACCEL_SWEEP_HH
#define BEACON_ACCEL_SWEEP_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "accel/system.hh"
#include "accel/workload.hh"
#include "common/rng.hh"
#include "obs/self_profile.hh"

namespace beacon
{

/** Identity of one sweep point, echoed into reports and JSON. */
struct SweepKey
{
    std::string dataset; //!< preset / workload name ("" when n/a)
    std::string label;   //!< ladder rung or configuration label
};

/** Result of one sweep point. */
struct SweepOutcome
{
    SweepKey key;
    RunResult result;
    /** Extracted StatRegistry values (insertion-ordered). */
    std::vector<std::pair<std::string, double>> stats;
    /** Host wall-clock of this job (non-deterministic; excluded
     *  from determinism-compared JSON). */
    double wall_seconds = 0;
    /** True when the job was cancelled before it ran (a previously
     *  submitted job threw). */
    bool skipped = false;
    /** Telemetry artefacts written by this point ("" = none).
     *  Deterministic paths: emitted even in no-wall JSON. */
    std::string trace_file;
    std::string timeseries_file;
    std::string reqtrace_file;
    /** Host-side event-loop profile (enabled=false when off;
     *  wall-clock based, reported only with include_runtime). */
    obs::SelfProfileResult self_profile;
};

/**
 * Per-job isolated context. The Rng stream depends only on the
 * runner's base seed and the job's submission index, never on the
 * worker that happens to execute the job.
 */
struct RunContext
{
    std::size_t index = 0; //!< submission index
    Rng rng;               //!< private deterministic stream
};

/** Thread-pooled runner for independent simulation jobs. */
class SweepRunner
{
  public:
    using JobFn = std::function<SweepOutcome(RunContext &)>;

    explicit SweepRunner(unsigned jobs = jobsFromEnv(),
                         std::uint64_t base_seed = 0xBEACC0DEull);

    /**
     * Worker count from BEACON_BENCH_JOBS, or hardware concurrency
     * when the variable is unset; always >= 1. A value that is not
     * a positive integer is fatal.
     */
    static unsigned jobsFromEnv();

    unsigned jobs() const { return num_jobs; }

    /** Enqueue an arbitrary job. @return its submission index. */
    std::size_t enqueue(SweepKey key, JobFn fn);

    /** Runs on a finished machine inside its job (e.g. to emit
     *  the run's telemetry artefacts into the outcome). */
    using AfterRunFn = std::function<void(NdpSystem &, SweepOutcome &)>;

    /**
     * Enqueue one NdpSystem simulation: builds the system inside the
     * job (own EventQueue + StatRegistry), runs @p tasks tasks,
     * extracts sumMatching() of every name in @p stat_keys from the
     * run's registry, then calls @p after_run (if set). @p workload
     * must outlive run() and is shared read-only across workers.
     */
    std::size_t enqueueRun(SweepKey key, const SystemParams &params,
                           const Workload &workload,
                           std::size_t tasks = 0,
                           std::vector<std::string> stat_keys = {},
                           AfterRunFn after_run = {});

    /**
     * Execute every queued job and return the outcomes in submission
     * order. If any job throws, the remaining unstarted jobs are
     * cancelled, all workers are joined, and the recorded exception
     * with the lowest submission index is rethrown — exactly what a
     * serial loop would have surfaced.
     */
    std::vector<SweepOutcome> run();

    /**
     * List mode: run() prints every queued point as one
     * "dataset/label" line and returns all outcomes skipped, without
     * executing anything.
     */
    void setListOnly(bool on) { list_only = on; }
    bool listOnly() const { return list_only; }

    /**
     * Only execute points whose "dataset/label" identity matches
     * @p pattern (ECMAScript regex, partial match); everything else
     * is returned skipped. The outcome vector keeps its shape, so
     * positional consumers (ladder panels) stay valid.
     */
    void setFilter(const std::string &pattern);

  private:
    struct Pending
    {
        SweepKey key;
        JobFn fn;
    };

    unsigned num_jobs;
    std::uint64_t base_seed;
    std::vector<Pending> pending;
    bool list_only = false;
    bool have_filter = false;
    std::regex filter;
};

/**
 * A harness-level report: every sweep outcome plus derived scalars,
 * serialisable as JSON (the BENCH_*.json schema; see
 * EXPERIMENTS.md).
 */
struct SweepReport
{
    std::string harness;     //!< e.g. "fig12_fm_seeding"
    unsigned bench_scale = 1;
    unsigned jobs = 1;       //!< worker count used
    /** Whole-harness wall-clock (non-deterministic). */
    double wall_seconds = 0;
    std::vector<SweepOutcome> records;
    /** Derived scalars (geomeans, shares), insertion-ordered. */
    std::vector<std::pair<std::string, double>> derived;

    void
    add(const std::vector<SweepOutcome> &outcomes)
    {
        records.insert(records.end(), outcomes.begin(),
                       outcomes.end());
    }

    void
    derive(std::string key, double value)
    {
        derived.emplace_back(std::move(key), value);
    }
};

/**
 * Serialise a report. With @p include_runtime false the execution
 * metadata (worker count, every wall-clock field) is omitted, making
 * the output a pure function of the simulated runs — byte-identical
 * across worker counts and reruns.
 */
void writeSweepJson(std::ostream &os, const SweepReport &report,
                    bool include_runtime = true);

/** writeSweepJson into a string (tests, golden comparisons). */
std::string sweepJsonString(const SweepReport &report,
                            bool include_runtime = true);

} // namespace beacon

#endif // BEACON_ACCEL_SWEEP_HH
