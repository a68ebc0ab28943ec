/**
 * @file
 * Multi-tenant job model.
 *
 * A tenant is one customer of the shared pool: it brings a genomics
 * workload (its index structures get a dedicated, disjoint region of
 * pool memory at admission) and submits jobs — batches of that
 * workload's tasks — according to an arrival process. The
 * orchestrator (orchestrator.hh) schedules ready tasks from every
 * admitted tenant onto one shared NdpSystem.
 */

#ifndef BEACON_SERVICE_JOB_HH
#define BEACON_SERVICE_JOB_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "accel/workload.hh"
#include "ndp/task.hh"

namespace beacon
{

/** How a tenant's jobs arrive. */
enum class ArrivalKind : std::uint8_t
{
    /** Keep @p concurrency jobs outstanding until num_jobs ran. */
    ClosedLoop,
    /** Poisson arrivals at @p jobs_per_second, drawn from the
     *  orchestrator's deterministic Rng. */
    OpenPoisson,
};

/** Arrival-process description of one tenant. */
struct ArrivalProcess
{
    ArrivalKind kind = ArrivalKind::ClosedLoop;
    /** Outstanding-job target (closed loop). */
    unsigned concurrency = 1;
    /** Mean arrival rate (open-loop Poisson). */
    double jobs_per_second = 0;
};

/** Everything the orchestrator needs to admit and run one tenant. */
struct TenantSpec
{
    std::string name;
    /** The tenant's workload; its structures() define the memory
     *  quota requested at admission. Must outlive the orchestrator. */
    const Workload *workload = nullptr;
    /** Total jobs the tenant submits over the run. */
    unsigned num_jobs = 1;
    /** Workload tasks per job (job completes when all retire). */
    unsigned tasks_per_job = 4;
    /** Strict-priority level; higher is more urgent. */
    unsigned priority = 0;
    /** Fair-share weight (PE-slot proportional share). */
    double weight = 1.0;
    /**
     * Transient per-job scratch footprint the admission controller
     * reserves from pool capacity for each in-flight job and
     * releases at job completion; zero disables per-job gating.
     */
    Bytes scratch_bytes_per_job;
    /**
     * Latency SLO target for one job, in milliseconds; 0 disables
     * SLO accounting for the tenant. Jobs completing above the
     * target count as breaches in the tenant's report
     * (TenantReport::slo_breaches / slo_burn).
     */
    double slo_ms = 0;
    ArrivalProcess arrival;
};

/**
 * Tags an application task with its owning tenant. Pure pass-through
 * otherwise, so timing is identical to the untenanted task.
 */
class TenantTask : public Task
{
  public:
    TenantTask(TaskPtr inner_task, TenantId tenant,
               std::uint64_t job = 0)
        : inner(std::move(inner_task)), tid(tenant), job_id(job)
    {
    }

    EngineKind engine() const override { return inner->engine(); }
    TaskStep next() override { return inner->next(); }
    TenantId tenant() const override { return tid; }
    std::uint64_t jobId() const override { return job_id; }

  private:
    TaskPtr inner;
    TenantId tid;
    std::uint64_t job_id;
};

} // namespace beacon

#endif // BEACON_SERVICE_JOB_HH
