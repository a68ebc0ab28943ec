/**
 * @file
 * Pool orchestrator: many concurrent genomics jobs on one shared
 * NdpSystem.
 *
 * The orchestrator plays the role of the pool's service frontend:
 *  - admission: each tenant's index structures are allocated through
 *    the memory-management framework with memory clean disabled, so
 *    a tenant that does not fit is rejected instead of evicting a
 *    co-tenant; per-job scratch reservations additionally gate job
 *    concurrency on remaining pool capacity;
 *  - scheduling: whenever the machine has a free task slot, a
 *    pluggable policy (scheduler.hh) picks which tenant's ready task
 *    runs next;
 *  - attribution: every dispatched task is tagged with its tenant id
 *    (job.hh), so the fabric, the DRAM path, and the NDP modules
 *    split their counters by tenant — the per-tenant values must sum
 *    to the untagged totals (conservation, test-enforced);
 *  - reporting: per-tenant job-completion latency percentiles,
 *    throughput, queueing delay, and energy shares.
 *
 * Determinism: every decision derives from the event-queue order and
 * one seed, so runs are bit-identical across hosts and thread counts
 * (the orchestrator itself is single-threaded; SweepRunner provides
 * the parallelism across sweep points).
 */

#ifndef BEACON_SERVICE_ORCHESTRATOR_HH
#define BEACON_SERVICE_ORCHESTRATOR_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/system.hh"
#include "obs/request_context.hh"
#include "obs/trace.hh"
#include "service/job.hh"
#include "service/scheduler.hh"

namespace beacon
{

namespace obs
{
class RequestTrace;
} // namespace obs

/** Orchestrator configuration. */
struct OrchestratorParams
{
    SchedulerKind scheduler = SchedulerKind::Fcfs;
    /** Seeds the arrival processes (open-loop Poisson draws). */
    std::uint64_t seed = 1;
    /**
     * Offset added to this orchestrator's dense local tenant ids. A
     * single-host run keeps 0 (tenants are 1..N, as always); a rack
     * machine gives each host a disjoint base so every tenant id —
     * and thus every tagged counter — is globally unique on the
     * shared pool.
     */
    unsigned tenant_id_base = 0;
    /**
     * Optional job-ingress hook. When set, submitJob() defers
     * admission (scratch reservation and task enqueue) until the
     * hook invokes the passed continuation; the job counts as
     * outstanding from submission, and its queue wait includes the
     * ingress delay. Rack hosts use this to stream each job's input
     * over their rack uplink and scatter it through the HDM decoder
     * before the job becomes runnable; the job id (second argument)
     * lets the transfer carry the request context for hop-level
     * trace attribution. The continuation must be called exactly
     * once, from an event-queue callback.
     */
    std::function<void(TenantId, std::uint64_t,
                       std::function<void()>)>
        ingress;
};

/** Per-tenant outcome of a service run. */
struct TenantReport
{
    TenantId tenant;
    std::string name;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_rejected = 0;
    std::uint64_t tasks_completed = 0;
    /** Job-completion latency (submission to last task retired). */
    double p50_latency_ms = 0;
    double p99_latency_ms = 0;
    double mean_latency_ms = 0;
    /** Mean wait from submission to first task dispatch. */
    double mean_queue_ms = 0;
    double jobs_per_second = 0;
    /** Attribution pulled from the tenant-tagged counters. */
    Tick pe_busy_ticks = 0;
    Bytes fabric_bytes;
    Bytes dram_bytes;
    /** Energy share: each component split by the tenant's fraction
     *  of PE busy time / fabric bytes / DRAM bytes. */
    Picojoules energy_pj;
    /**
     * Request-scoped latency breakdown, summed over the tenant's
     * completed jobs (obs::RequestTrace; only filled — has_breakdown
     * — when request tracing was on). Component ticks sum exactly to
     * breakdown_total_ticks, which is the sum of end-to-end job
     * latencies in ticks.
     */
    bool has_breakdown = false;
    std::uint64_t breakdown_jobs = 0;
    Tick breakdown_total_ticks = 0;
    std::array<Tick, obs::num_span_kinds> breakdown_ticks{};
    /**
     * Exact SLO accounting over every completed job (filled —
     * has_slo — when the tenant states a target, slo_ms > 0). A
     * breach is a job latency strictly above the target.
     */
    bool has_slo = false;
    std::uint64_t slo_jobs = 0;
    std::uint64_t slo_breaches = 0;
    /** Breach fraction (breaches / jobs, 0 when idle). */
    double slo_burn = 0;
};

/** Whole-run outcome: the machine plus every tenant. */
struct ServiceReport
{
    RunResult machine;
    std::vector<TenantReport> tenants;
};

/** The orchestrator; owns scheduling state, not the machine. */
class PoolOrchestrator
{
  public:
    PoolOrchestrator(NdpSystem &system,
                     const OrchestratorParams &params);
    ~PoolOrchestrator();

    /**
     * Admit a tenant: allocate its workload's structures in a
     * disjoint pool region (no memory clean) and register the layout
     * with the machine. Returns the tenant id, or 0 when admission
     * fails — see lastError().
     */
    TenantId addTenant(const TenantSpec &spec);

    /** Failure reason of the last rejected addTenant() call. */
    const std::string &lastError() const { return last_error; }

    /**
     * Run every admitted tenant's job mix to completion and report.
     * Call once.
     */
    ServiceReport run();

    // ------------------------------------------------------------
    // Cooperative API. run() is built from these pieces; an external
    // driver that multiplexes several orchestrators over one machine
    // (src/rack) calls them directly: start() every host, install a
    // combined slot-freed observer that fans out to every host's
    // dispatch(), drive the shared event queue until every host
    // finished(), then collectReport() each host once.
    // ------------------------------------------------------------

    /**
     * Register sampler series, schedule open-loop arrivals, submit
     * initial closed-loop jobs, and dispatch. Does NOT install the
     * machine's slot-freed observer — run() (or the external driver)
     * owns that. Call once, before any event executes.
     */
    void start();

    /** Completed-or-rejected jobs across all tenants. */
    std::uint64_t doneJobs() const;

    /** True once every job completed or was rejected. */
    bool finished() const { return doneJobs() >= target_jobs; }

    /** Move ready tasks onto the machine while slots are free. */
    void dispatch();

    /** Ids of every admitted tenant, in admission order. */
    std::vector<TenantId> tenantIds() const;

    /**
     * Build the per-tenant report against an already-computed
     * machine result. Call once, after the run finished.
     */
    ServiceReport collectReport(const RunResult &machine);

  private:
    struct Job
    {
        std::uint64_t id = 0;
        Tick submit_tick = 0;
        Tick first_dispatch_tick = 0;
        bool dispatched_any = false;
        unsigned tasks_remaining = 0;
        /** Scratch reservation held until completion ("" = none). */
        std::string scratch_app;
        /** Queued -> completed trace span (no-op when off). */
        obs::TraceSpan span;
        unsigned slot = 0;
    };

    /** One ready task: generator index plus owning job. */
    struct ReadyTask
    {
        std::uint64_t seq = 0;       //!< global arrival sequence
        std::size_t workload_index = 0;
        std::shared_ptr<Job> job;
    };

    struct TenantState
    {
        TenantSpec spec;
        TenantId id;
        std::uint64_t jobs_submitted = 0;
        std::uint64_t jobs_completed = 0;
        std::uint64_t jobs_rejected = 0;
        std::uint64_t tasks_completed = 0;
        std::size_t next_workload_task = 0;
        std::deque<ReadyTask> ready;
        /** Jobs waiting for a scratch reservation. */
        std::deque<std::shared_ptr<Job>> admission_wait;
        std::vector<Tick> job_latencies;
        std::vector<Tick> queue_waits;
        /** Streaming latency histogram (registry-owned), feeding
         *  live percentile series without retaining every sample. */
        SampleStat *latency_ms_stat = nullptr;
        // Tracing: a tenant summary track (queue-depth counter,
        // dispatch instants) plus numbered job-slot tracks so
        // concurrent job spans never overlap within one track.
        obs::TrackId track = 0;
        std::vector<char> slot_busy;
        std::vector<obs::TrackId> slot_tracks;
    };

    /** Submit one job of @p tenant at the current tick. */
    void submitJob(TenantState &tenant);

    /** Try to reserve @p job's scratch; queue the tasks on success. */
    bool admitJob(TenantState &tenant,
                  const std::shared_ptr<Job> &job);

    /** Admission tail of submitJob(), run after ingress (if any). */
    void completeSubmission(TenantId tenant,
                            const std::shared_ptr<Job> &job);

    /** One task of @p tenant's @p job retired. */
    void onTaskDone(TenantId tenant, const std::shared_ptr<Job> &job);

    /** Closed-loop tenants top up their outstanding jobs. */
    void replenishClosedLoop(TenantState &tenant);

    /** Retry admission-blocked jobs after capacity was released. */
    void retryAdmissions();

    /** All counters by tenant must sum to the untagged totals. */
    void verifyConservation() const;

    /** Lowest free job-slot track of @p tenant (tracing only). */
    unsigned acquireJobSlot(TenantState &tenant);

    TenantState &stateOf(TenantId tenant);

    NdpSystem &system;
    OrchestratorParams p;
    /** Index = tenant id - tenant_id_base - 1. */
    std::vector<TenantState> tenants;
    std::string last_error;
    std::uint64_t next_seq = 0;
    /** Job ids start at 1; 0 is the "no request context" sentinel
     *  carried by untenanted traffic (obs::RequestContext). */
    std::uint64_t next_job_id = 1;
    std::uint64_t jobs_outstanding = 0;
    std::uint64_t target_jobs = 0;
    bool ran = false;
    std::unique_ptr<Scheduler> scheduler;
    /** Machine's trace sink (null when tracing is off). */
    obs::TraceSink *trace = nullptr;
    /** Machine's request trace (null when request tracing is off). */
    obs::RequestTrace *reqtrace = nullptr;
};

} // namespace beacon

#endif // BEACON_SERVICE_ORCHESTRATOR_HH
