/**
 * @file
 * Multi-tenant service tests: scheduler policy behavior, orchestrator
 * admission control, per-tenant stat conservation against the
 * untagged machine totals (with every checker armed), per-tenant
 * SLO breach accounting, and determinism of the service report.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accel/system.hh"
#include "accel/workload.hh"
#include "check/checker_config.hh"
#include "service/orchestrator.hh"

namespace beacon
{
namespace
{

// ---------------------------------------------------------------
// Scheduler unit tests
// ---------------------------------------------------------------

SchedCandidate
candidate(unsigned tenant, std::uint64_t head_seq,
          unsigned priority, double weight)
{
    SchedCandidate c;
    c.tenant = TenantId{tenant};
    c.head_seq = head_seq;
    c.priority = priority;
    c.weight = weight;
    return c;
}

TEST(Scheduler, FcfsPicksOldestHead)
{
    auto sched = makeScheduler(SchedulerKind::Fcfs);
    const std::vector<SchedCandidate> ready = {
        candidate(1, 7, 0, 1), candidate(2, 3, 5, 1),
        candidate(3, 9, 9, 1)};
    EXPECT_EQ(sched->pick(ready), TenantId{2}) << "ignores priority";
}

TEST(Scheduler, PriorityPicksHighestThenOldest)
{
    auto sched = makeScheduler(SchedulerKind::Priority);
    const std::vector<SchedCandidate> ready = {
        candidate(1, 1, 0, 1), candidate(2, 8, 4, 1),
        candidate(3, 5, 4, 1)};
    EXPECT_EQ(sched->pick(ready), TenantId{3})
        << "highest priority, ties broken by arrival";
}

TEST(Scheduler, FairShareFollowsWeights)
{
    auto sched = makeScheduler(SchedulerKind::FairShare);
    const std::vector<SchedCandidate> ready = {
        candidate(1, 0, 0, 3.0), candidate(2, 1, 0, 1.0)};
    unsigned picks_heavy = 0;
    for (int i = 0; i < 40; ++i) {
        const TenantId picked = sched->pick(ready);
        if (picked == TenantId{1})
            ++picks_heavy;
        for (const SchedCandidate &c : ready)
            if (c.tenant == picked)
                sched->onDispatch(c, 100.0);
    }
    EXPECT_EQ(picks_heavy, 30u)
        << "weight 3 tenant gets 3/4 of the slots";
}

TEST(Scheduler, FairShareIdleTenantDoesNotBankCredit)
{
    auto sched = makeScheduler(SchedulerKind::FairShare);
    const SchedCandidate busy = candidate(1, 0, 0, 1.0);
    const SchedCandidate idle = candidate(2, 1, 0, 1.0);
    // Tenant 1 runs alone for a while (each dispatch goes through
    // pick(), as the orchestrator's dispatch loop does).
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(sched->pick({busy}), TenantId{1});
        sched->onDispatch(busy, 100.0);
    }
    // When tenant 2 shows up, its virtual clock jumps to the floor:
    // it may not monopolise the machine to "catch up".
    unsigned picks_idle = 0;
    for (int i = 0; i < 10; ++i) {
        const TenantId picked = sched->pick({busy, idle});
        if (picked == TenantId{2})
            ++picks_idle;
        sched->onDispatch(picked == TenantId{1} ? busy : idle,
                          100.0);
    }
    EXPECT_LE(picks_idle, 6u) << "no banked backlog burst";
    EXPECT_GE(picks_idle, 4u) << "still gets its fair half";
}

// ---------------------------------------------------------------
// Orchestrator integration
// ---------------------------------------------------------------

genomics::DatasetPreset
tinyPreset(std::size_t genome, std::size_t reads)
{
    genomics::DatasetPreset preset = genomics::seedingPresets()[3];
    preset.genome.length = genome;
    preset.reads.num_reads = reads;
    return preset;
}

/** A narrow machine so tenants actually contend for slots. */
SystemParams
serviceParams()
{
    SystemParams params = SystemParams::beaconD();
    params.name = "service-test";
    params.pes_per_module = 4;
    params.max_inflight_tasks = 2;
    params.checkers = CheckerConfig::all();
    return params;
}

TenantSpec
bulkSpec(const Workload &workload)
{
    TenantSpec spec;
    spec.name = "bulk";
    spec.workload = &workload;
    spec.num_jobs = 6;
    spec.tasks_per_job = 4;
    spec.weight = 1.0;
    spec.scratch_bytes_per_job = Bytes{1 << 20};
    spec.arrival.concurrency = 3;
    return spec;
}

TenantSpec
smallTenantSpec(const Workload &workload)
{
    TenantSpec spec;
    spec.name = "small";
    spec.workload = &workload;
    spec.num_jobs = 4;
    spec.tasks_per_job = 2;
    spec.priority = 1;
    spec.weight = 4.0;
    spec.arrival.concurrency = 1;
    return spec;
}

ServiceReport
runMix(SchedulerKind policy, const Workload &bulk,
       const Workload &small)
{
    NdpSystem system(serviceParams());
    OrchestratorParams params;
    params.scheduler = policy;
    PoolOrchestrator orchestrator(system, params);
    EXPECT_NE(orchestrator.addTenant(bulkSpec(bulk)),
              untenanted_id)
        << orchestrator.lastError();
    EXPECT_NE(orchestrator.addTenant(smallTenantSpec(small)),
              untenanted_id)
        << orchestrator.lastError();
    return orchestrator.run();
}

TEST(Orchestrator, ConservationAcrossTenantsWithCheckersArmed)
{
    const FmSeedingWorkload bulk(tinyPreset(1 << 13, 16));
    const HashSeedingWorkload small(tinyPreset(1 << 12, 8));

    NdpSystem system(serviceParams());
    OrchestratorParams params;
    params.scheduler = SchedulerKind::FairShare;
    PoolOrchestrator orchestrator(system, params);
    ASSERT_NE(orchestrator.addTenant(bulkSpec(bulk)),
              untenanted_id);
    ASSERT_NE(orchestrator.addTenant(smallTenantSpec(small)),
              untenanted_id);
    const ServiceReport report = orchestrator.run();

    // The orchestrator already self-checks; re-derive the sums here
    // so a silently skipped internal check cannot hide a drift.
    const StatRegistry &reg = system.stats();
    double fabric = reg.sumMatching("tenant0.usefulBytes");
    double pe = reg.sumMatching("tenant0.peBusyTicks");
    double dram = reg.sumMatching("tenant0.dramBytes");
    for (unsigned id = 1; id <= 2; ++id) {
        const std::string tag = "tenant" + std::to_string(id);
        fabric += reg.sumMatching(tag + ".usefulBytes");
        pe += reg.sumMatching(tag + ".peBusyTicks");
        dram += reg.sumMatching(tag + ".dramBytes");
    }
    EXPECT_DOUBLE_EQ(fabric, reg.sumMatching("usefulBytesTotal"));
    EXPECT_DOUBLE_EQ(pe, reg.sumMatching("peBusyTotalTicks"));
    EXPECT_DOUBLE_EQ(dram, reg.sumMatching("dramBytesTotal"));

    // Energy attribution never exceeds the machine total.
    double tenant_energy = 0;
    for (const TenantReport &tenant : report.tenants)
        tenant_energy += tenant.energy_pj.value();
    EXPECT_LE(tenant_energy,
              report.machine.energy.totalPj().value() + 1e-6);
}

TEST(Orchestrator, EveryTenantCompletesItsJobs)
{
    const FmSeedingWorkload bulk(tinyPreset(1 << 13, 16));
    const HashSeedingWorkload small(tinyPreset(1 << 12, 8));
    for (SchedulerKind policy :
         {SchedulerKind::Fcfs, SchedulerKind::Priority,
          SchedulerKind::FairShare}) {
        const ServiceReport report = runMix(policy, bulk, small);
        ASSERT_EQ(report.tenants.size(), 2u);
        EXPECT_EQ(report.tenants[0].jobs_completed, 6u);
        EXPECT_EQ(report.tenants[1].jobs_completed, 4u);
        EXPECT_EQ(report.tenants[0].jobs_rejected, 0u);
        EXPECT_GT(report.tenants[1].p99_latency_ms, 0.0);
        EXPECT_GE(report.tenants[1].p99_latency_ms,
                  report.tenants[1].p50_latency_ms);
    }
}

TEST(Orchestrator, SloBreachesCountedForEveryTenantWithATarget)
{
    const FmSeedingWorkload bulk(tinyPreset(1 << 13, 16));
    const HashSeedingWorkload small(tinyPreset(1 << 12, 8));
    SystemParams system_params = serviceParams();
    system_params.obs = obs::ObsConfig{}; // SLO accounting needs no telemetry
    NdpSystem system(system_params);
    PoolOrchestrator orchestrator(system, OrchestratorParams{});

    TenantSpec strict = bulkSpec(bulk);
    strict.slo_ms = 1e-6; // 1 ns: every job breaches
    TenantSpec loose = smallTenantSpec(small);
    loose.name = "loose";
    loose.slo_ms = 1e6; // 1000 s: no job breaches
    TenantSpec none = smallTenantSpec(small);
    none.name = "none";
    none.slo_ms = 0; // no target, no SLO accounting
    for (const TenantSpec &spec : {strict, loose, none})
        ASSERT_NE(orchestrator.addTenant(spec), untenanted_id)
            << orchestrator.lastError();
    const ServiceReport report = orchestrator.run();

    ASSERT_EQ(report.tenants.size(), 3u);
    const TenantReport &r_strict = report.tenants[0];
    const TenantReport &r_loose = report.tenants[1];
    const TenantReport &r_none = report.tenants[2];
    EXPECT_TRUE(r_strict.has_slo);
    EXPECT_TRUE(r_loose.has_slo);
    EXPECT_FALSE(r_none.has_slo);
    EXPECT_GT(r_strict.jobs_completed, 0u);
    EXPECT_GT(r_loose.jobs_completed, 0u);
    EXPECT_EQ(r_strict.slo_jobs, r_strict.jobs_completed);
    EXPECT_EQ(r_loose.slo_jobs, r_loose.jobs_completed);
    EXPECT_EQ(r_strict.slo_breaches, r_strict.jobs_completed);
    EXPECT_EQ(r_loose.slo_breaches, 0u);
    EXPECT_EQ(r_none.slo_jobs, 0u);
    EXPECT_EQ(r_none.slo_breaches, 0u);
    EXPECT_DOUBLE_EQ(r_strict.slo_burn, 1.0);
    EXPECT_DOUBLE_EQ(r_loose.slo_burn, 0.0);
}

TEST(Orchestrator, PriorityAndFairShareProtectSmallTenant)
{
    const FmSeedingWorkload bulk(tinyPreset(1 << 13, 16));
    const HashSeedingWorkload small(tinyPreset(1 << 12, 8));
    const double fcfs_p99 =
        runMix(SchedulerKind::Fcfs, bulk, small)
            .tenants[1]
            .p99_latency_ms;
    const double prio_p99 =
        runMix(SchedulerKind::Priority, bulk, small)
            .tenants[1]
            .p99_latency_ms;
    const double fair_p99 =
        runMix(SchedulerKind::FairShare, bulk, small)
            .tenants[1]
            .p99_latency_ms;
    // Under FCFS the bulk tenant's queued tasks sit in front of the
    // small tenant's; both QoS policies bound that inflation.
    EXPECT_LT(prio_p99, fcfs_p99);
    EXPECT_LT(fair_p99, fcfs_p99);
}

TEST(Orchestrator, ServiceReportIsDeterministic)
{
    const FmSeedingWorkload bulk(tinyPreset(1 << 13, 16));
    const HashSeedingWorkload small(tinyPreset(1 << 12, 8));
    const ServiceReport a =
        runMix(SchedulerKind::FairShare, bulk, small);
    const ServiceReport b =
        runMix(SchedulerKind::FairShare, bulk, small);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    EXPECT_EQ(a.machine.ticks, b.machine.ticks);
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        EXPECT_EQ(a.tenants[i].p50_latency_ms,
                  b.tenants[i].p50_latency_ms);
        EXPECT_EQ(a.tenants[i].p99_latency_ms,
                  b.tenants[i].p99_latency_ms);
        EXPECT_EQ(a.tenants[i].energy_pj, b.tenants[i].energy_pj);
        EXPECT_EQ(a.tenants[i].dram_bytes, b.tenants[i].dram_bytes);
    }
}

// ---------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------

/** A workload whose only purpose is its memory quota. */
class QuotaWorkload : public Workload
{
  public:
    explicit QuotaWorkload(std::uint64_t bytes) : bytes(bytes) {}

    const std::string &name() const override { return name_; }
    EngineKind engine() const override { return EngineKind::FmIndex; }

    std::vector<StructureSpec>
    structures() const override
    {
        StructureSpec spec;
        spec.cls = DataClass::FmOcc;
        spec.bytes = Bytes{bytes};
        spec.read_only = true;
        spec.access_granule = 32;
        return {spec};
    }

    std::size_t numTasks() const override { return 1; }

    TaskPtr
    makeTask(std::size_t, const WorkloadContext &) const override
    {
        return nullptr; // admission-only workload; never dispatched
    }

  private:
    std::string name_ = "quota";
    std::uint64_t bytes;
};

TEST(Orchestrator, ZeroQuotaTenantRejectedAtAdmission)
{
    NdpSystem system(serviceParams());
    PoolOrchestrator orchestrator(system, {});
    const QuotaWorkload empty(0);
    TenantSpec spec;
    spec.name = "empty";
    spec.workload = &empty;
    EXPECT_EQ(orchestrator.addTenant(spec), untenanted_id);
    EXPECT_NE(orchestrator.lastError().find("no quota"),
              std::string::npos);
}

TEST(Orchestrator, OversizedTenantRejectedAtAdmission)
{
    NdpSystem system(serviceParams());
    PoolOrchestrator orchestrator(system, {});
    const QuotaWorkload huge(1ull << 50);
    TenantSpec spec;
    spec.name = "huge";
    spec.workload = &huge;
    EXPECT_EQ(orchestrator.addTenant(spec), untenanted_id);
    EXPECT_NE(orchestrator.lastError().find("capacity"),
              std::string::npos);
}

TEST(Orchestrator, OversizedScratchRejectsJobsNotTheRun)
{
    const FmSeedingWorkload workload(tinyPreset(1 << 13, 16));
    NdpSystem system(serviceParams());
    PoolOrchestrator orchestrator(system, {});
    TenantSpec spec = bulkSpec(workload);
    // A per-job scratch no DIMM can ever satisfy: every job is
    // rejected as a permanent failure, but the run still terminates.
    spec.scratch_bytes_per_job = Bytes{1ull << 50};
    ASSERT_NE(orchestrator.addTenant(spec), untenanted_id)
        << orchestrator.lastError();
    const ServiceReport report = orchestrator.run();
    EXPECT_EQ(report.tenants[0].jobs_completed, 0u);
    EXPECT_EQ(report.tenants[0].jobs_rejected, 6u);
}

TEST(Orchestrator, ScratchReleasedAfterRun)
{
    const FmSeedingWorkload workload(tinyPreset(1 << 13, 16));
    NdpSystem system(serviceParams());
    PoolOrchestrator orchestrator(system, {});
    ASSERT_NE(orchestrator.addTenant(bulkSpec(workload)),
              untenanted_id);
    // Tenant structures stay resident; job scratch must not.
    const Bytes free_after_admission =
        system.memoryFramework().poolFreeBytes();
    orchestrator.run();
    EXPECT_EQ(system.memoryFramework().poolFreeBytes(),
              free_after_admission);
}

TEST(Orchestrator, OpenPoissonArrivalsAllComplete)
{
    const HashSeedingWorkload workload(tinyPreset(1 << 12, 8));
    NdpSystem system(serviceParams());
    OrchestratorParams params;
    params.seed = 42;
    PoolOrchestrator orchestrator(system, params);
    TenantSpec spec = smallTenantSpec(workload);
    spec.arrival.kind = ArrivalKind::OpenPoisson;
    spec.arrival.jobs_per_second = 1e6; // ~1 us mean gap
    spec.num_jobs = 8;
    ASSERT_NE(orchestrator.addTenant(spec), untenanted_id)
        << orchestrator.lastError();
    const ServiceReport report = orchestrator.run();
    EXPECT_EQ(report.tenants[0].jobs_completed, 8u);
    EXPECT_GT(report.machine.ticks, 0u);
}

} // namespace
} // namespace beacon
