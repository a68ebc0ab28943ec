/**
 * @file
 * Section V extension bench: BEACON as a general NDP platform.
 *
 * Runs the graph-traversal and database-probing extension workloads
 * (PE replacement) on CXL-vanilla, BEACON-D, and BEACON-S, showing
 * that the architecture/memory-management optimizations carry over
 * to other memory-bound applications, as the paper claims.
 */

#include "bench_util.hh"

#include "accel/extension_workloads.hh"

using namespace beacon;
using namespace beacon::bench;

namespace
{

void
panel(SweepRunner &runner, SweepReport &report,
      const BenchOptions &opts, const char *title,
      const Workload &workload)
{
    // Submission order: the normalisation baseline, then the four
    // reported systems.
    const SystemParams vanilla_base =
        workload.engine() == EngineKind::GraphTraversal
            ? SystemParams::cxlVanillaD()
            : SystemParams::cxlVanillaS();
    enqueueRunObs(runner, report.harness, opts,
                  {workload.name(), "baseline"}, vanilla_base, workload);
    for (const SystemParams &params :
         {SystemParams::cxlVanillaD(), SystemParams::cxlVanillaS(),
          SystemParams::beaconD(), SystemParams::beaconS()})
        enqueueRunObs(runner, report.harness, opts,
                      {workload.name(), params.name}, params, workload);
    const std::vector<SweepOutcome> outcomes = runner.run();
    if (runner.listOnly()) {
        report.add(outcomes);
        return;
    }

    std::printf("--- %s ---\n", title);
    printHeader("system", {"time(us)", "wire(MB)", "energy(uJ)",
                           "vs vanilla"});
    const RunResult &vanilla = outcomes[0].result;
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        const RunResult &r = outcomes[i].result;
        printRow(outcomes[i].key.label,
                 {r.seconds * 1e6, double(r.wire_bytes.value()) / 1e6,
                  r.energy.totalPj().value() * 1e-6,
                  double(vanilla.ticks) / double(r.ticks)},
                 "%.2f");
    }
    std::printf("\n");
    report.add(outcomes);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    const BenchTimer timer;
    std::printf("=== Section V: extension to other memory-bound "
                "applications ===\n\n");

    graph::GraphParams gp;
    gp.num_vertices = 1 << 14;
    gp.avg_degree = 8;
    GraphBfsWorkload bfs(gp, 256, 256);
    DbProbeWorkload probe(1 << 16, 14, 512, 32);

    SweepRunner runner;
    applyBenchControls(runner, opts);
    SweepReport report = makeReport("extension_apps", runner);

    panel(runner, report, opts,
          "graph processing: BFS over a power-law CSR graph", bfs);
    panel(runner, report, opts,
          "database searching: hash-join index probing", probe);

    std::printf("paper (Section V): BEACON extends to image/graph "
                "processing and database searching by replacing the "
                "PEs; placement and mapping adapt per data "
                "structure.\n");
    emitJson(report, opts, timer);
    return 0;
}
