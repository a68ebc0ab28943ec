/**
 * @file
 * Rack-scale sharing bench: N hosts attached to one shared BEACON-D
 * pool through a multi-level rack switch tree, swept over host count,
 * switch levels, and HDM interleave ways.
 *
 * Every sweep point runs one RackSystem: each host streams its job
 * inputs down the rack tree, the host's HDM decoder scatters them
 * across its bound expansion DIMMs, and all hosts read (and
 * periodically write) one shared reference segment under
 * back-invalidate coherence. The emitted curves are the two the
 * rack-scale story needs: pool utilization as hosts are added (the
 * pooling win) and per-host p99 inflation (the cross-host
 * interference cost). A separate "hotplug" point hot-removes and
 * hot-adds an expander mid-run to measure migration traffic.
 *
 * Datasets are "l<levels>w<ways>" (rack depth x interleave ways) and
 * labels "h<hosts>"; per-host latency lands under "host<h>.*" stat
 * keys. Runs are bit-identical across BEACON_BENCH_JOBS (every point
 * owns its machine; CI-enforced).
 */

#include "bench_util.hh"

#include "rack/system.hh"

using namespace beacon;
using namespace beacon::bench;

namespace
{

/** One sweep point of the rack grid. */
struct RackPoint
{
    unsigned hosts;
    unsigned levels;
    unsigned ways;
    bool hotplug; //!< hot-remove + hot-add an expander mid-run
};

const HashSeedingWorkload &
rackWorkload()
{
    static const HashSeedingWorkload workload = [] {
        genomics::DatasetPreset preset =
            genomics::seedingPresets()[3];
        preset.genome.length = (1u << 14) * benchScale();
        preset.reads.num_reads = 32 * benchScale();
        return HashSeedingWorkload(preset);
    }();
    return workload;
}

rack::RackParams
rackParams(const RackPoint &point, std::uint64_t seed)
{
    rack::RackParams p;
    p.hosts = point.hosts;
    p.switch_levels = point.levels;
    p.interleave_ways = point.ways;
    p.hdm_bytes_per_host = Bytes{1u << 20};
    // Write-heavy enough that cross-host sharing shows up as BI
    // traffic, not just queueing.
    p.segment_write_every = 2;
    p.seed = seed;
    rack::SegmentParams seg;
    seg.name = "reference";
    seg.bytes = Bytes{1u << 16};
    seg.owner_dimm = 8; // first expansion DIMM of the BEACON-D base
    p.segments.push_back(seg);
    return p;
}

SweepOutcome
runPoint(const SweepKey &key, const RackPoint &point,
         const BenchOptions &opts, std::uint64_t seed)
{
    rack::RackParams params = rackParams(point, seed);
    params.base.obs = obsConfigFor(opts);
    rack::RackSystem rack(params);
    for (unsigned h = 0; h < point.hosts; ++h) {
        TenantSpec spec;
        spec.name = "host" + std::to_string(h) + ".t0";
        spec.workload = &rackWorkload();
        spec.num_jobs = 4;
        spec.tasks_per_job = 2;
        spec.arrival.concurrency = 2;
        if (rack.addTenant(h, spec) == untenanted_id)
            BEACON_PANIC("rack tenant rejected on host ", h);
    }
    if (point.hotplug) {
        // Remove one of host 1's expanders mid-run (regions migrate
        // to the survivors), then plug it back in.
        rack.scheduleHotRemove(Tick{400000}, 9);
        rack.scheduleHotAdd(Tick{1200000}, 9);
    }
    const rack::RackReport report = rack.run();

    SweepOutcome out;
    out.key = key;
    out.result = report.machine;
    out.stats.emplace_back("pool_utilization",
                           report.pool_utilization);
    const double lookups =
        double(report.cache_hits + report.cache_misses);
    out.stats.emplace_back("cache_hit_rate",
                           lookups > 0
                               ? double(report.cache_hits) / lookups
                               : 0.0);
    out.stats.emplace_back("bi_flits", double(report.bi_flits));
    out.stats.emplace_back("invalidations",
                           double(report.invalidations));
    out.stats.emplace_back("ingress_bytes",
                           double(report.ingress_bytes.value()));
    out.stats.emplace_back("migrated_bytes",
                           double(report.migrated_bytes.value()));
    double p99_sum = 0, jps_sum = 0;
    for (std::size_t h = 0; h < report.hosts.size(); ++h) {
        const TenantReport &tenant = report.hosts[h].tenants.at(0);
        const std::string tag = "host" + std::to_string(h);
        out.stats.emplace_back(tag + ".p99_ms",
                               tenant.p99_latency_ms);
        out.stats.emplace_back(tag + ".jobs_per_second",
                               tenant.jobs_per_second);
        out.stats.emplace_back(tag + ".jobs_completed",
                               double(tenant.jobs_completed));
        p99_sum += tenant.p99_latency_ms;
        jps_sum += tenant.jobs_per_second;
    }
    out.stats.emplace_back("mean_p99_ms",
                           p99_sum / double(report.hosts.size()));
    out.stats.emplace_back("total_jobs_per_second", jps_sum);
    // Telemetry while the rack (whose sampler series callbacks
    // reference it) is still alive.
    emitObsOutputs(rack.machine(), opts, "rack_scale", key, out);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    const BenchTimer timer;
    std::printf("=== Rack-scale pool sharing: hosts x switch levels "
                "x interleave ways ===\n\n");

    const std::vector<unsigned> host_counts = {1, 2, 4, 8};
    const std::vector<unsigned> level_counts = {1, 2};
    const std::vector<unsigned> way_counts = {1, 2, 4};
    std::vector<RackPoint> points;
    for (unsigned levels : level_counts)
        for (unsigned ways : way_counts)
            for (unsigned hosts : host_counts)
                points.push_back({hosts, levels, ways, false});
    points.push_back({2, 1, 2, true}); // the hot-plug measurement

    SweepRunner runner;
    applyBenchControls(runner, opts);
    SweepReport report = makeReport("rack_scale", runner);

    for (const RackPoint &point : points) {
        const SweepKey key{
            point.hotplug ? "hotplug"
                          : "l" + std::to_string(point.levels) + "w" +
                                std::to_string(point.ways),
            "h" + std::to_string(point.hosts)};
        runner.enqueue(key, [&, point, key](RunContext &ctx) {
            return runPoint(key, point, opts,
                            0xBEACC0DEull ^ ctx.index);
        });
    }
    const std::vector<SweepOutcome> outcomes = runner.run();
    report.add(outcomes);
    if (runner.listOnly())
        return 0;

    // Pool-utilization and interference curves, one table per
    // (levels, ways) dataset; rows are the host-count sweep.
    double p99_h1 = 0, p99_h8 = 0, util_h1 = 0, util_h8 = 0;
    for (std::size_t d = 0; d * host_counts.size() < points.size();
         ++d) {
        const RackPoint &first = points[d * host_counts.size()];
        if (first.hotplug)
            break; // the trailing hot-plug point prints separately
        std::printf("--- %u switch level(s), %u-way interleave ---\n",
                    first.levels, first.ways);
        printHeader("hosts", {"pool util", "hit rate", "BI flits",
                              "mean p99", "sum j/s"}, 14);
        for (std::size_t h = 0; h < host_counts.size(); ++h) {
            const SweepOutcome &outcome =
                outcomes[d * host_counts.size() + h];
            if (outcome.skipped)
                continue;
            printRow(outcome.key.label,
                     {statOf(outcome, "pool_utilization"),
                      statOf(outcome, "cache_hit_rate"),
                      statOf(outcome, "bi_flits"),
                      statOf(outcome, "mean_p99_ms"),
                      statOf(outcome, "total_jobs_per_second")},
                     "%.4f", 14);
            // The interference headline reads off the 1-level 2-way
            // dataset (the default rack shape).
            if (first.levels == 1 && first.ways == 2) {
                if (host_counts[h] == 1) {
                    p99_h1 = statOf(outcome, "mean_p99_ms");
                    util_h1 = statOf(outcome, "pool_utilization");
                }
                if (host_counts[h] == 8) {
                    p99_h8 = statOf(outcome, "mean_p99_ms");
                    util_h8 = statOf(outcome, "pool_utilization");
                }
            }
        }
        std::printf("\n");
    }

    const SweepOutcome &hotplug = outcomes.back();
    if (!hotplug.skipped) {
        std::printf("--- hot-plug (2 hosts, remove + re-add one "
                    "expander mid-run) ---\n");
        std::printf("migrated bytes: %.0f, mean p99: %.4f ms\n\n",
                    statOf(hotplug, "migrated_bytes"),
                    statOf(hotplug, "mean_p99_ms"));
    }

    if (p99_h1 > 0 && p99_h8 > 0) {
        const double inflation = p99_h8 / p99_h1;
        std::printf("pool utilization 1 -> 8 hosts (l1w2): %.4f -> "
                    "%.4f; per-host p99 inflation: %.2fx\n",
                    util_h1, util_h8, inflation);
        report.derive("pool_util_h1", util_h1);
        report.derive("pool_util_h8", util_h8);
        report.derive("p99_inflation_h8_over_h1", inflation);
    }

    emitJson(report, opts, timer);
    return 0;
}
