/**
 * @file
 * Section VI-G reproduction: overall improvement delivered by the
 * proposed optimizations (CXL-vanilla -> fully optimized BEACON) in
 * performance, energy efficiency, and communication energy share,
 * for both BEACON-D and BEACON-S, averaged over the three ladder
 * applications.
 *
 * Paper: BEACON-D 2.21x perf / 3.70x energy, comm share 60.68% ->
 * 14.01%; BEACON-S 1.99x perf / 2.04x energy, comm share 52.35% ->
 * 13.17%.
 */

#include "bench_util.hh"

using namespace beacon;
using namespace beacon::bench;

namespace
{

void
summary(SweepRunner &runner, SweepReport &report,
        const BenchOptions &opts, const char *design,
        const std::vector<LadderStep> &ladder,
        const std::vector<std::pair<std::string, const Workload *>>
            &workloads)
{
    // Submission order: per workload, vanilla then fully optimized.
    // Both designs share point keys, so the design tells their
    // artefacts apart.
    const std::string artefact_prefix =
        report.harness + "_" + design;
    for (const auto &[name, workload] : workloads) {
        enqueueRunObs(runner, artefact_prefix, opts,
                      {name, ladder.front().label},
                      ladder.front().params, *workload);
        enqueueRunObs(runner, artefact_prefix, opts,
                      {name, ladder.back().label}, ladder.back().params,
                      *workload);
    }
    const std::vector<SweepOutcome> outcomes = runner.run();
    if (runner.listOnly()) {
        report.add(outcomes);
        return;
    }

    std::vector<double> perf_gain, energy_gain;
    double comm_before = 0, comm_after = 0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const RunResult &vanilla = outcomes[w * 2].result;
        const RunResult &full = outcomes[w * 2 + 1].result;
        perf_gain.push_back(double(vanilla.ticks) /
                            double(full.ticks));
        energy_gain.push_back(vanilla.energy.totalPj().value() /
                              full.energy.totalPj().value());
        comm_before += 100.0 * vanilla.energy.commFraction();
        comm_after += 100.0 * full.energy.commFraction();
    }
    const double n = double(workloads.size());
    std::printf("%-10s perf %s, energy %s, comm share %.2f%% -> "
                "%.2f%%\n",
                design, formatX(geomean(perf_gain)).c_str(),
                formatX(geomean(energy_gain)).c_str(),
                comm_before / n, comm_after / n);

    report.add(outcomes);
    report.derive(std::string(design) + " :: perf_geomean",
                  geomean(perf_gain));
    report.derive(std::string(design) + " :: energy_geomean",
                  geomean(energy_gain));
    report.derive(std::string(design) + " :: comm_share_before_pct",
                  comm_before / n);
    report.derive(std::string(design) + " :: comm_share_after_pct",
                  comm_after / n);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    const BenchTimer timer;
    std::printf("=== Section VI-G: improvements from the proposed "
                "optimizations ===\n\n");
    const auto presets = benchSeedingPresets();
    FmSeedingWorkload fm(presets[0]);
    HashSeedingWorkload hash(presets[2]);
    KmerCountingWorkload kmc(benchKmcPreset());
    const std::vector<std::pair<std::string, const Workload *>>
        workloads = {{fm.name(), &fm},
                     {hash.name(), &hash},
                     {kmc.name(), &kmc}};

    SweepRunner runner;
    applyBenchControls(runner, opts);
    SweepReport report = makeReport("summary_optimizations", runner);

    summary(runner, report, opts, "BEACON-D", beaconDLadder(true),
            workloads);
    summary(runner, report, opts, "BEACON-S", beaconSLadder(true),
            workloads);

    std::printf("\npaper: BEACON-D 2.21x perf / 3.70x energy, "
                "60.68%% -> 14.01%%; BEACON-S 1.99x perf / 2.04x "
                "energy, 52.35%% -> 13.17%%\n");
    emitJson(report, opts, timer);
    return 0;
}
