#include "workloads.hh"

#include <chrono>
#include <memory>
#include <string_view>

#include "accel/system.hh"
#include "accel/workload.hh"
#include "check/dram_protocol_checker.hh"
#include "genomics/dna.hh"
#include "json.hh"
#include "service/orchestrator.hh"

namespace perfbench
{

namespace
{

using namespace beacon;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Input seeds are the presets' own at default_seed and move by a
 * large odd stride per benchmark seed, so every seed gives distinct
 * genomes, reads and arrival draws.
 */
std::uint64_t
seedOffset(std::uint64_t seed)
{
    return (seed - default_seed) * 0x9E3779B97F4A7C15ull;
}

genomics::DatasetPreset
seeded(genomics::DatasetPreset preset, std::uint64_t seed)
{
    preset.genome.seed += seedOffset(seed);
    preset.reads.seed += seedOffset(seed);
    return preset;
}

// --- qos_service_mix tenant mix --------------------------------------
constexpr unsigned qos_bulk_jobs = 240;
constexpr unsigned qos_bulk_tasks_per_job = 8;
constexpr unsigned qos_small_tenants = 3;
constexpr unsigned qos_small_jobs = 160;
constexpr unsigned qos_small_tasks_per_job = 2;
/**
 * Simulated arrival rate of each hash tenant. Its jobs arrive within
 * the first part of the bulk tenant's run (about 1.1 of 2 simulated
 * ms), so the bulk tenant sets the simulated time. At a rate low
 * enough for the Poisson tail to outlast the bulk tenant, simulated
 * time varied by +-12% between seeds, and sim_us_per_host_s with it.
 */
constexpr double qos_small_jobs_per_second = 1.5e5;

TenantSpec
bulkTenant(const Workload &workload)
{
    TenantSpec spec;
    spec.name = "bulk";
    spec.workload = &workload;
    spec.num_jobs = qos_bulk_jobs;
    spec.tasks_per_job = qos_bulk_tasks_per_job;
    spec.priority = 0;
    spec.weight = 1.0;
    spec.scratch_bytes_per_job = Bytes{1u << 20};
    spec.arrival.kind = ArrivalKind::ClosedLoop;
    spec.arrival.concurrency = 4;
    return spec;
}

TenantSpec
smallTenant(const Workload &workload, unsigned index)
{
    TenantSpec spec;
    spec.name = "small" + std::to_string(index);
    spec.workload = &workload;
    spec.num_jobs = qos_small_jobs;
    spec.tasks_per_job = qos_small_tasks_per_job;
    spec.priority = 1;
    spec.weight = 4.0;
    spec.scratch_bytes_per_job = Bytes{1u << 18};
    spec.arrival.kind = ArrivalKind::OpenPoisson;
    spec.arrival.jobs_per_second = qos_small_jobs_per_second;
    return spec;
}

/** The machine of @p kind with every run-time knob pinned. */
SystemParams
machineParams(WorkloadKind kind, bool checkers)
{
    SystemParams p;
    switch (kind) {
      case WorkloadKind::FmSeedPool512:
        // Table I: 16 CXL-Switches x 32 DIMMs, one CXLG-DIMM per
        // switch as in the 2x4 preset.
        p = SystemParams::beaconD();
        p.name = "BEACON-D (Table I pool)";
        p.num_groups = p.pool.num_switches = 16;
        p.dimms_per_group = p.pool.dimms_per_switch = 32;
        p.cxlg_dimms.clear();
        for (unsigned sw = 0; sw < p.num_groups; ++sw)
            p.cxlg_dimms.push_back(sw * p.dimms_per_group);
        break;
      case WorkloadKind::KmerCountSwitch:
        p = SystemParams::beaconS();
        break;
      case WorkloadKind::QosServiceMix:
        // The narrow multi_tenant_qos machine: tenants contend for
        // task slots.
        p = SystemParams::beaconD();
        p.name = "BEACON-D (service)";
        p.pes_per_module = 8;
        p.max_inflight_tasks = 4;
        break;
    }
    p.des = DesParams{};
    p.obs = obs::ObsConfig{};
    p.checkers = checkers ? CheckerConfig::all() : CheckerConfig::none();
    return p;
}

/** A constructed workload, ready to run. */
struct Built
{
    std::vector<std::unique_ptr<Workload>> inputs;
    std::unique_ptr<NdpSystem> system;
    std::unique_ptr<PoolOrchestrator> orchestrator;
    double genomics_build_s = 0;
    double machine_build_s = 0;
    double setup_s = 0;
};

Built
build(WorkloadKind kind, std::uint64_t seed, bool checkers)
{
    Built b;
    const Clock::time_point start = Clock::now();
    switch (kind) {
      case WorkloadKind::FmSeedPool512: {
        genomics::DatasetPreset pt = genomics::seedingPresets()[0];
        pt.genome.length = 1u << 18;
        pt.reads.num_reads = 4096;
        b.inputs.push_back(
            std::make_unique<FmSeedingWorkload>(seeded(pt, seed)));
        break;
      }
      case WorkloadKind::KmerCountSwitch: {
        genomics::DatasetPreset human = genomics::kmerCountingPreset();
        human.genome.length = 1u << 17;
        b.inputs.push_back(std::make_unique<KmerCountingWorkload>(
            seeded(human, seed)));
        break;
      }
      case WorkloadKind::QosServiceMix: {
        // The multi_tenant_qos tenant genomes, with enough reads that
        // jobs rarely repeat one: the work then varies little by seed.
        genomics::DatasetPreset bulk = genomics::seedingPresets()[0];
        bulk.genome.length = 1u << 16;
        bulk.reads.num_reads = 512;
        genomics::DatasetPreset small = genomics::seedingPresets()[2];
        small.genome.length = 1u << 15;
        small.reads.num_reads = 256;
        b.inputs.push_back(
            std::make_unique<FmSeedingWorkload>(seeded(bulk, seed)));
        b.inputs.push_back(
            std::make_unique<HashSeedingWorkload>(seeded(small, seed)));
        break;
      }
    }
    b.genomics_build_s = secondsSince(start);

    const Clock::time_point machine_start = Clock::now();
    const SystemParams params = machineParams(kind, checkers);
    if (kind == WorkloadKind::QosServiceMix)
        b.system = std::make_unique<NdpSystem>(params);
    else
        b.system = std::make_unique<NdpSystem>(params, *b.inputs[0]);
    b.machine_build_s = secondsSince(machine_start);

    if (kind == WorkloadKind::QosServiceMix) {
        OrchestratorParams op;
        op.scheduler = SchedulerKind::FairShare;
        op.seed = 0xBEACC0DEull + seedOffset(seed);
        b.orchestrator =
            std::make_unique<PoolOrchestrator>(*b.system, op);
        std::vector<TenantSpec> specs = {bulkTenant(*b.inputs[0])};
        for (unsigned i = 1; i <= qos_small_tenants; ++i)
            specs.push_back(smallTenant(*b.inputs[1], i));
        for (const TenantSpec &spec : specs)
            if (b.orchestrator->addTenant(spec) == untenanted_id)
                BEACON_FATAL("tenant '", spec.name, "' not admitted: ",
                             b.orchestrator->lastError());
    }
    b.setup_s = secondsSince(start);
    return b;
}

/** Sum of the counters whose name has @p prefix and @p suffix. */
double
sumCounters(const StatRegistry &reg, std::string_view prefix,
            std::string_view suffix)
{
    double sum = 0;
    for (const auto &[name, counter] : reg.counters())
        if (name.starts_with(prefix) && name.ends_with(suffix))
            sum += counter.value();
    return sum;
}

std::string
machineDigest(const RunResult &r, std::uint64_t tasks)
{
    return "tasks=" + std::to_string(tasks) +
           " ticks=" + std::to_string(r.ticks) +
           " reads=" + std::to_string(r.dram_reads) +
           " writes=" + std::to_string(r.dram_writes) +
           " energy_pj=" + jsonNumber(r.energy.totalPj().value()) +
           " wire_bytes=" + std::to_string(r.wire_bytes.value());
}

/** Deterministic counts, read from public counters after a run. */
Counts
countsOf(NdpSystem &system, const RunResult &r)
{
    const StatRegistry &reg = system.stats();
    Counts c;
    c.events = system.eventQueue().eventsExecuted();
    c.dram_reqs = r.dram_reads + r.dram_writes;
    for (unsigned d = 0; d < system.numDimms(); ++d) {
        const DimmTimingModel &dev = system.dimmController(d).device();
        c.dram_acts += dev.numActs();
        c.dram_cmds += dev.numActs() + dev.numPres() +
                       dev.numReadBursts() + dev.numWriteBursts() +
                       dev.numRefreshes();
    }
    c.cxl_messages = std::uint64_t(reg.counterValue("pool.messages"));
    c.useful_bytes =
        std::uint64_t(reg.counterValue("pool.usefulBytesTotal"));
    c.wire_bytes = r.wire_bytes.value();
    c.ndp_tasks =
        std::uint64_t(sumCounters(reg, "ndp", ".tasksCompleted"));
    c.atomic_ops = std::uint64_t(sumCounters(reg, "atomic", ".atomicOps"));
    c.atomic_conflicts =
        std::uint64_t(sumCounters(reg, "atomic", ".sameWordConflicts"));
    return c;
}

/** Invariants that hold at every seed, plus the checkers' verdict. */
void
checkInvariants(NdpSystem &system, std::uint64_t expected_tasks,
                bool checkers, Sample &s)
{
    const StatRegistry &reg = system.stats();
    const Counts &c = s.counts;
    std::vector<std::string> &problems = s.problems;
    if (c.ndp_tasks != expected_tasks)
        problems.push_back("retired " + std::to_string(c.ndp_tasks) +
                           " of " + std::to_string(expected_tasks) +
                           " tasks");
    if (c.dram_reqs == 0 || c.events == 0 || c.cxl_messages == 0)
        problems.push_back("a layer did no work");
    // Per-partition and per-tenant DRAM bytes sum to the totals.
    const double dram_total = sumCounters(reg, "system.", ".dramBytesTotal");
    const double dram_by_tenant = sumCounters(reg, "system.", ".dramBytes");
    if (dram_total <= 0 || dram_total != dram_by_tenant)
        problems.push_back("DRAM bytes not conserved: " +
                           jsonNumber(dram_by_tenant) + " by tenant vs " +
                           jsonNumber(dram_total));
    const double fabric_by_tenant =
        sumCounters(reg, "pool.tenant", ".usefulBytes");
    if (double(c.useful_bytes) != fabric_by_tenant)
        problems.push_back("fabric bytes not conserved");
    if (!checkers)
        return;
    std::uint64_t observed = 0;
    for (unsigned d = 0; d < system.numDimms(); ++d) {
        const DramProtocolChecker *chk =
            system.dimmController(d).checker();
        if (!chk) {
            problems.push_back("DRAM checker not armed");
            return;
        }
        observed += chk->commandsObserved();
        if (chk->violations() != 0)
            problems.push_back("DRAM protocol violations on dimm " +
                               std::to_string(d));
    }
    if (observed != c.dram_cmds)
        problems.push_back("DRAM checker saw " + std::to_string(observed) +
                           " of " + std::to_string(c.dram_cmds) +
                           " commands");
    const CxlLinkChecker *link = system.poolFabric().checker();
    if (!link)
        problems.push_back("link checker not armed");
    else if (link->submitted() == 0 ||
             link->submitted() != link->delivered())
        problems.push_back("link checker: " +
                           std::to_string(link->delivered()) + " of " +
                           std::to_string(link->submitted()) +
                           " messages delivered");
}

} // namespace

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::FmSeedPool512: return "fm_seed_pool512";
      case WorkloadKind::KmerCountSwitch: return "kmer_count_switch";
      case WorkloadKind::QosServiceMix: return "qos_service_mix";
    }
    return "?";
}

std::optional<WorkloadKind>
parseWorkload(const std::string &name)
{
    for (WorkloadKind kind : all_workloads)
        if (name == workloadName(kind))
            return kind;
    return std::nullopt;
}

double
setupOnly(WorkloadKind kind, std::uint64_t seed)
{
    return build(kind, seed, false).setup_s;
}

Sample
runWorkload(WorkloadKind kind, std::uint64_t seed,
            const RunOptions &options)
{
    Built b = build(kind, seed, options.checkers);
    Sample s;
    s.genomics_build_s = b.genomics_build_s;
    s.machine_build_s = b.machine_build_s;
    s.setup_s = b.setup_s;

    NdpSystem &system = *b.system;
    LayerProfiler profiler(system.eventQueue());
    if (options.traced)
        system.eventQueue().setProfiler(&profiler);

    const Clock::time_point start = Clock::now();
    RunResult r;
    ServiceReport service;
    if (b.orchestrator) {
        service = b.orchestrator->run();
        r = service.machine;
    } else {
        r = system.run();
    }
    s.run_s = secondsSince(start);
    system.eventQueue().setProfiler(nullptr);

    s.sim_us = double(r.ticks) / 1e6;
    s.counts = countsOf(system, r);
    s.digest = machineDigest(r, s.counts.ndp_tasks);
    std::uint64_t expected_tasks = b.inputs[0]->numTasks();
    if (b.orchestrator) {
        for (const TenantReport &t : service.tenants) {
            s.counts.jobs_completed += t.jobs_completed;
            s.counts.jobs_rejected += t.jobs_rejected;
            s.digest += " " + t.name + ":jobs=" +
                        std::to_string(t.jobs_completed) + "/" +
                        std::to_string(t.jobs_rejected) +
                        ",p50_ms=" + jsonNumber(t.p50_latency_ms) +
                        ",p99_ms=" + jsonNumber(t.p99_latency_ms);
        }
        const unsigned small_tasks =
            qos_small_jobs * qos_small_tasks_per_job;
        expected_tasks = qos_bulk_jobs * qos_bulk_tasks_per_job +
                         qos_small_tenants * small_tasks;
        if (s.counts.jobs_rejected != 0 ||
            s.counts.jobs_completed !=
                qos_bulk_jobs + qos_small_tenants * qos_small_jobs)
            s.problems.push_back("not every job completed");
    }

    checkInvariants(system, expected_tasks, options.checkers, s);
    if (seed == default_seed && s.digest != pinnedDigest(kind))
        s.problems.push_back("model digest differs from the pinned "
                             "digest: " + s.digest);

    if (options.traced)
        s.trace = profiler.profile();
    return s;
}

const char *
pinnedDigest(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::FmSeedPool512:
        return "tasks=4096 ticks=29843000 reads=217859 writes=0 "
               "energy_pj=14587102576.46208 wire_bytes=66634944";
      case WorkloadKind::KmerCountSwitch:
        return "tasks=256 ticks=90443750 reads=61440 writes=61440 "
               "energy_pj=1091071855.584 wire_bytes=13834112";
      case WorkloadKind::QosServiceMix:
        return "tasks=2880 ticks=2053831750 reads=105982 writes=0 "
               "energy_pj=13578879436.61276 wire_bytes=15415488 "
               "bulk:jobs=240/0,p50_ms=0.0331525,"
               "p99_ms=0.052637500000000004 "
               "small1:jobs=160/0,p50_ms=0.0035606070000000004,"
               "p99_ms=0.011290020000000001 "
               "small2:jobs=160/0,p50_ms=0.003404626,"
               "p99_ms=0.009230209000000001 "
               "small3:jobs=160/0,p50_ms=0.0034579560000000003,"
               "p99_ms=0.009289612000000001";
    }
    return "";
}

} // namespace perfbench
