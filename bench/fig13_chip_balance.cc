/**
 * @file
 * Fig. 13 reproduction: normalized memory access to different DRAM
 * chips during FM-index seeding on BEACON-D, (a) without and (b)
 * with multi-chip coalescing.
 *
 * Paper: without coalescing the per-chip distribution is strongly
 * unbalanced; with coalescing it is well balanced.
 */

#include "bench_util.hh"

using namespace beacon;
using namespace beacon::bench;

namespace
{

void
histogram(const char *title, const RunResult &result)
{
    std::printf("--- %s ---\n", title);
    double mean = 0;
    for (double v : result.chip_accesses)
        mean += v;
    mean /= double(result.chip_accesses.size());
    for (std::size_t chip = 0; chip < result.chip_accesses.size();
         ++chip) {
        const double norm = result.chip_accesses[chip] / mean;
        std::printf("chip %2zu  %6.3f  ", chip, norm);
        const int bars = int(norm * 24);
        for (int i = 0; i < bars; ++i)
            std::printf("#");
        std::printf("\n");
    }
    std::printf("coefficient of variation: %.3f\n\n",
                result.chip_access_cov);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    const BenchTimer timer;
    std::printf("=== Fig. 13: per-chip access balance, FM-index "
                "seeding on BEACON-D ===\n\n");
    // The repeat-heavy Pt preset exhibits the hot-block skew.
    const auto preset = benchSeedingPresets()[0];
    FmSeedingWorkload workload(preset);

    SweepRunner runner;
    applyBenchControls(runner, opts);
    SweepReport report = makeReport("fig13_chip_balance", runner);

    SystemParams fine = SystemParams::beaconD();
    fine.opts.coalesce_chips = 1;
    fine.name = "BEACON-D (no coalescing)";
    enqueueRunObs(runner, report.harness, opts,
                  {preset.name, "no-coalescing"}, fine, workload);
    enqueueRunObs(runner, report.harness, opts,
                  {preset.name, "coalescing-8"}, SystemParams::beaconD(),
                  workload);
    const std::vector<SweepOutcome> outcomes = runner.run();
    if (runner.listOnly()) {
        report.add(outcomes);
        return 0;
    }

    histogram("(a) without multi-chip coalescing",
              outcomes[0].result);
    histogram("(b) with multi-chip coalescing (8 chips)",
              outcomes[1].result);

    std::printf("paper: (a) unevenly distributed accesses, (b) "
                "well-balanced accesses\n");
    report.add(outcomes);
    report.derive("cov_without_coalescing",
                  outcomes[0].result.chip_access_cov);
    report.derive("cov_with_coalescing",
                  outcomes[1].result.chip_access_cov);
    emitJson(report, opts, timer);
    return 0;
}
