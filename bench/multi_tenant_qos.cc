/**
 * @file
 * Multi-tenant QoS bench: several tenants sharing one BEACON-D pool
 * through the service orchestrator, swept over tenant count and
 * scheduling policy (FCFS, strict priority, weighted fair share).
 *
 * Each sweep point runs one shared NdpSystem in service mode: a
 * "bulk" tenant keeps several large FM-seeding jobs in flight while
 * latency-sensitive "small" hash-seeding tenants submit short jobs.
 * The interesting contrast: under FCFS the bulk tenant's queued
 * tasks starve the small tenants (p99 job latency inflates), strict
 * priority fixes the small tenants at the bulk tenant's expense, and
 * weighted fair share bounds the small tenants' p99 while keeping
 * the bulk tenant progressing.
 *
 * Per-tenant p50/p99/queueing/energy land in the JSON stats block
 * under "tenant<id>.*" keys; runs are bit-identical across
 * BEACON_BENCH_JOBS (every point owns its machine, and the
 * orchestrator is deterministic given its seed).
 */

#include "bench_util.hh"

#include "service/orchestrator.hh"

using namespace beacon;
using namespace beacon::bench;

namespace
{

/** A deliberately narrow machine so tenants contend for slots. */
SystemParams
serviceMachine()
{
    SystemParams params = SystemParams::beaconD();
    params.name = "BEACON-D (service)";
    params.pes_per_module = 8;
    params.max_inflight_tasks = 4;
    return params;
}

/** One sweep point: tenant mix size x scheduling policy. */
struct QosPoint
{
    const char *dataset;    //!< "small" / "wide" (mix preset)
    unsigned small_tenants; //!< latency-sensitive co-tenants
    SchedulerKind policy;
};

TenantSpec
bulkSpec(const Workload &workload)
{
    TenantSpec spec;
    spec.name = "bulk";
    spec.workload = &workload;
    spec.num_jobs = 12;
    spec.tasks_per_job = 8;
    spec.priority = 0;
    spec.weight = 1.0;
    spec.scratch_bytes_per_job = Bytes{1u << 20};
    spec.arrival.kind = ArrivalKind::ClosedLoop;
    spec.arrival.concurrency = 4;
    // Loose deadline: bulk work tolerates queueing (SLO monitoring
    // only engages with --slo-window-ns).
    spec.slo_ms = 50.0;
    return spec;
}

TenantSpec
smallSpec(const Workload &workload, unsigned index)
{
    TenantSpec spec;
    spec.name = "small" + std::to_string(index);
    spec.workload = &workload;
    spec.num_jobs = 8;
    spec.tasks_per_job = 2;
    spec.priority = 1;
    spec.weight = 4.0;
    spec.scratch_bytes_per_job = Bytes{1u << 18};
    spec.arrival.kind = ArrivalKind::ClosedLoop;
    spec.arrival.concurrency = 1;
    // Tight deadline: the latency-sensitive tenants are the ones
    // whose SLO burn the policy comparison is about.
    spec.slo_ms = 5.0;
    return spec;
}

SweepOutcome
runPoint(const SweepKey &key, const QosPoint &point,
         const BenchOptions &opts, const Workload &bulk,
         const Workload &small, std::uint64_t seed)
{
    SystemParams machine = serviceMachine();
    machine.obs = obsConfigFor(opts);
    NdpSystem system(machine);
    OrchestratorParams params;
    params.scheduler = point.policy;
    params.seed = seed;
    PoolOrchestrator orchestrator(system, params);

    if (orchestrator.addTenant(bulkSpec(bulk)) == untenanted_id)
        BEACON_PANIC("bulk tenant rejected: ",
                     orchestrator.lastError());
    for (unsigned i = 1; i <= point.small_tenants; ++i)
        if (orchestrator.addTenant(smallSpec(small, i)) ==
            untenanted_id)
            BEACON_PANIC("small tenant rejected: ",
                         orchestrator.lastError());

    const ServiceReport report = orchestrator.run();

    SweepOutcome out;
    out.key = key;
    out.result = report.machine;
    for (const TenantReport &tenant : report.tenants) {
        const std::string tag =
            "tenant" + std::to_string(tenant.tenant.value());
        out.stats.emplace_back(tag + ".p50_ms",
                               tenant.p50_latency_ms);
        out.stats.emplace_back(tag + ".p99_ms",
                               tenant.p99_latency_ms);
        out.stats.emplace_back(tag + ".mean_queue_ms",
                               tenant.mean_queue_ms);
        out.stats.emplace_back(tag + ".jobs_per_second",
                               tenant.jobs_per_second);
        out.stats.emplace_back(tag + ".jobs_completed",
                               double(tenant.jobs_completed));
        out.stats.emplace_back(tag + ".energy_pj",
                               tenant.energy_pj.value());
        // SLO burn and latency-breakdown columns only appear when
        // the telemetry that computes them ran, so the JSON stays
        // byte-identical with telemetry off (golden-enforced).
        if (tenant.has_slo) {
            out.stats.emplace_back(tag + ".slo_jobs",
                                   double(tenant.slo_jobs));
            out.stats.emplace_back(tag + ".slo_breaches",
                                   double(tenant.slo_breaches));
            out.stats.emplace_back(tag + ".slo_burn",
                                   tenant.slo_burn);
            out.stats.emplace_back(tag + ".slo_window_burn",
                                   tenant.slo_window_burn);
        }
        if (tenant.has_breakdown) {
            for (std::size_t k = 0; k < obs::num_span_kinds; ++k)
                out.stats.emplace_back(
                    tag + ".lat_" +
                        obs::spanKindName(obs::SpanKind(k)) +
                        "_ticks",
                    double(tenant.breakdown_ticks[k]));
            out.stats.emplace_back(
                tag + ".lat_total_ticks",
                double(tenant.breakdown_total_ticks));
        }
    }
    // Telemetry while the orchestrator (whose sampler series
    // callbacks reference it) is still alive.
    emitObsOutputs(system, opts, "multi_tenant_qos", key, out);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    const BenchTimer timer;
    std::printf("=== Multi-tenant QoS: shared pool, scheduler "
                "policies ===\n\n");

    // Bench-tractable tenant workloads; each service run re-reads
    // these const structures, so one instance serves every point.
    genomics::DatasetPreset bulk_preset = benchSeedingPresets()[0];
    bulk_preset.genome.length = 1u << 16;
    bulk_preset.reads.num_reads = 64;
    FmSeedingWorkload bulk(bulk_preset);

    genomics::DatasetPreset small_preset = benchSeedingPresets()[2];
    small_preset.genome.length = 1u << 15;
    small_preset.reads.num_reads = 32;
    HashSeedingWorkload small(small_preset);

    const std::vector<SchedulerKind> policies = {
        SchedulerKind::Fcfs, SchedulerKind::Priority,
        SchedulerKind::FairShare};
    std::vector<QosPoint> points;
    for (SchedulerKind policy : policies)
        points.push_back({"small", 1, policy});
    for (SchedulerKind policy : policies)
        points.push_back({"wide", 3, policy});

    SweepRunner runner;
    applyBenchControls(runner, opts);
    SweepReport report = makeReport("multi_tenant_qos", runner);

    for (const QosPoint &point : points) {
        const SweepKey key{point.dataset,
                           schedulerName(point.policy)};
        runner.enqueue(key, [&, point, key](RunContext &ctx) {
            return runPoint(key, point, opts, bulk, small,
                            0xBEACC0DEull ^ ctx.index);
        });
    }
    const std::vector<SweepOutcome> outcomes = runner.run();
    report.add(outcomes);
    if (runner.listOnly())
        return 0;

    // Per-policy comparison of the bulk tenant and the first small
    // tenant; the small tenant's p99 is the QoS headline.
    double fcfs_small_p99 = 0, fair_small_p99 = 0;
    for (std::size_t m = 0; m * policies.size() < points.size();
         ++m) {
        const QosPoint &mix = points[m * policies.size()];
        std::printf("--- mix '%s': 1 bulk + %u small tenant(s) "
                    "---\n",
                    mix.dataset, mix.small_tenants);
        printHeader("policy", {"bulk p99", "small p99", "small q",
                               "small j/s"});
        for (std::size_t s = 0; s < policies.size(); ++s) {
            const SweepOutcome &outcome =
                outcomes[m * policies.size() + s];
            if (outcome.skipped)
                continue;
            const double bulk_p99 = statOf(outcome,
                                           "tenant1.p99_ms");
            const double small_p99 = statOf(outcome,
                                            "tenant2.p99_ms");
            printRow(outcome.key.label,
                     {bulk_p99, small_p99,
                      statOf(outcome, "tenant2.mean_queue_ms"),
                      statOf(outcome, "tenant2.jobs_per_second")},
                     "%.4f");
            if (std::string(mix.dataset) == "wide") {
                if (policies[s] == SchedulerKind::Fcfs)
                    fcfs_small_p99 = small_p99;
                if (policies[s] == SchedulerKind::FairShare)
                    fair_small_p99 = small_p99;
            }
        }
        std::printf("\n");
    }

    if (fair_small_p99 > 0) {
        const double inflation = fcfs_small_p99 / fair_small_p99;
        std::printf("small-tenant p99 under FCFS vs fair share "
                    "(wide mix): %.2fx\n",
                    inflation);
        report.derive("small_p99_fcfs_over_fair", inflation);
    }

    emitJson(report, opts, timer);
    return 0;
}
