/**
 * @file
 * Fig. 1 / Section III motivation: the gap between intra-DIMM
 * memory bandwidth and inter-DIMM communication bandwidth that
 * bottlenecks the DDR-DIMM NDP baselines (quoted as 12x for MEDAL),
 * and the corresponding gap in the CXL pool.
 *
 * Measured directly on the substrates: a customised DIMM streaming
 * fine-grained 32 B reads at chip granularity across all ranks vs
 * the useful payload rate of 32 B messages over one DDR channel (two
 * hops, host store-forward), and a CXL-DIMM link for comparison.
 */

#include <cstdio>

#include "accel/ddr_fabric.hh"
#include "bench_util.hh"
#include "cxl/pool.hh"
#include "dram/controller.hh"

using namespace beacon;
using namespace beacon::bench;

namespace
{

/** Stat key of each point's measured useful bandwidth. */
constexpr const char *gbps_key = "useful_gb_per_s";

/** Useful GB/s of fine-grained 32 B reads inside one NDP DIMM. */
double
intraDimmBandwidth()
{
    EventQueue eq;
    StatRegistry stats;
    DimmGeometry geom;
    geom.per_rank_lanes = true;
    geom.per_rank_cmd_bus = true;
    DramControllerParams params;
    params.enable_refresh = false;
    DramController ctrl("dimm", eq, stats, geom,
                        DramTimingParams::ddr4_1600_22(), params);
    // Bandwidth = peak rate: stream fine-grained reads round-robin
    // over every rank and chip group, row-hit within each bank.
    const unsigned n = 8192;
    for (unsigned i = 0; i < n; ++i) {
        MemRequest req;
        req.coord.rank = i % 4;
        req.coord.chip_first = ((i / 4) % 2) * 8;
        req.coord.bank_group = (i / 8) % 4;
        req.coord.bank = (i / 32) % 4;
        req.coord.row = RowId{7};
        req.coord.column = ((i / 128) * 8) % 1024;
        req.coord.chip_count = 8; // coalesced 32 B access
        req.bursts = 1;
        req.bytes = Bytes{32};
        ctrl.enqueue(std::move(req));
    }
    eq.run();
    return double(n) * 32.0 / ticksToSeconds(eq.now()) / 1e9;
}

/** Useful GB/s of 32 B DIMM-to-DIMM messages over one DDR channel. */
double
interDimmDdrBandwidth()
{
    EventQueue eq;
    StatRegistry stats;
    DdrFabricParams params;
    DdrFabric fabric("ddr", eq, stats, params);
    const unsigned n = 8192;
    unsigned remaining = n;
    for (unsigned i = 0; i < n; ++i) {
        fabric.send(NodeId::dimmNode(0, 0), NodeId::dimmNode(0, 1),
                    Bytes{32}, true, untenanted_id, 0,
                    [&remaining](Tick) { --remaining; });
    }
    eq.run();
    return double(n) * 32.0 / ticksToSeconds(eq.now()) / 1e9;
}

/** Useful GB/s of packed 32 B messages over one CXL DIMM link. */
double
interDimmCxlBandwidth()
{
    EventQueue eq;
    StatRegistry stats;
    PoolParams params;
    params.device_bias = true;
    params.packer.enabled = true;
    PoolFabric fabric("pool", eq, stats, params);
    const unsigned n = 8192;
    unsigned remaining = n;
    for (unsigned i = 0; i < n; ++i) {
        fabric.send(NodeId::dimmNode(0, 0), NodeId::dimmNode(0, 1),
                    Bytes{32}, true, untenanted_id, 0,
                    [&remaining](Tick) { --remaining; });
    }
    eq.run();
    return double(n) * 32.0 / ticksToSeconds(eq.now()) / 1e9;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    rejectTelemetryFlags(opts, argv[0]);
    const BenchTimer timer;
    std::printf("=== Fig. 1 / Section III: the communication "
                "bandwidth gap ===\n\n");

    SweepRunner runner;
    applyBenchControls(runner, opts);
    SweepReport report = makeReport("fig01_motivation", runner);
    // Each point measures one substrate; its outcome carries the
    // useful bandwidth under gbps_key.
    const auto point = [&runner](const char *label,
                                 double (*measure)()) {
        runner.enqueue({"fine-32B", label}, [measure](RunContext &) {
            SweepOutcome out;
            out.stats.emplace_back(gbps_key, measure());
            return out;
        });
    };
    point("intra-dimm", intraDimmBandwidth);
    point("ddr-channel", interDimmDdrBandwidth);
    point("cxl-link", interDimmCxlBandwidth);
    const std::vector<SweepOutcome> outcomes = runner.run();
    report.add(outcomes);
    if (runner.listOnly())
        return 0;

    const double intra = statOf(outcomes[0], gbps_key);
    const double inter_ddr = statOf(outcomes[1], gbps_key);
    const double inter_cxl = statOf(outcomes[2], gbps_key);
    if (!outcomes[0].skipped) {
        std::printf("intra-DIMM fine-grained read bandwidth  %8.2f "
                    "GB/s\n",
                    intra);
    }
    if (!outcomes[1].skipped) {
        std::printf("inter-DIMM over one DDR channel         %8.2f "
                    "GB/s (useful payload)\n",
                    inter_ddr);
    }
    if (!outcomes[2].skipped) {
        std::printf("inter-DIMM over one CXL link (packed)   %8.2f "
                    "GB/s (useful payload)\n",
                    inter_cxl);
    }
    std::printf("\n");
    if (!outcomes[0].skipped && !outcomes[1].skipped) {
        std::printf("DDR gap  (intra / inter-DDR): %.1fx   "
                    "(paper quotes 12x for MEDAL)\n",
                    intra / inter_ddr);
        report.derive("ddr_gap", intra / inter_ddr);
    }
    if (!outcomes[0].skipped && !outcomes[2].skipped) {
        std::printf("CXL gap  (intra / inter-CXL): %.1fx   "
                    "(BEACON's premise: CXL shrinks the gap)\n",
                    intra / inter_cxl);
        report.derive("cxl_gap", intra / inter_cxl);
    }
    emitJson(report, opts, timer);
    return 0;
}
