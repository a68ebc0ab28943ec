/**
 * @file
 * Fig. 17 reproduction: energy breakdown (communication / DRAM / PE)
 * of BEACON-D and BEACON-S at each optimization step, averaged over
 * the three ladder applications (FM seeding, hash seeding, k-mer
 * counting).
 *
 * Paper: in CXL-vanilla communication dominates (60.68% D, 52.35%
 * S); the optimizations cut the communication share to 14.01% (D)
 * and 13.17% (S); computation stays below 1%.
 */

#include <memory>

#include "bench_util.hh"

using namespace beacon;
using namespace beacon::bench;

namespace
{

void
breakdownPanel(SweepRunner &runner, SweepReport &report,
               const BenchOptions &opts, const char *title,
               const char *design,
               const std::vector<LadderStep> &ladder,
               const std::vector<std::pair<std::string,
                                           const Workload *>>
                   &workloads)
{
    // Submission order: for each rung, every workload. Both panels
    // share point keys, so the design tells their artefacts apart.
    const std::string artefact_prefix = report.harness + "_" + design;
    for (const LadderStep &step : ladder)
        for (const auto &[name, workload] : workloads)
            enqueueRunObs(runner, artefact_prefix, opts,
                          {name, step.label}, step.params, *workload);
    const std::vector<SweepOutcome> outcomes = runner.run();
    if (runner.listOnly()) {
        report.add(outcomes);
        return;
    }

    std::printf("--- %s ---\n", title);
    printHeader("step", {"comm %", "dram %", "PE %"}, 10);
    for (std::size_t s = 0; s < ladder.size(); ++s) {
        // Average over the workloads that ran (--filter may skip
        // some); a step none of them ran prints no row.
        double comm = 0, dram = 0, pe = 0, n = 0;
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const SweepOutcome &point =
                outcomes[s * workloads.size() + w];
            if (point.skipped)
                continue;
            const RunResult &r = point.result;
            n += 1;
            const double total = r.energy.totalPj().value();
            comm += 100.0 * r.energy.comm_pj.value() / total;
            dram += 100.0 * r.energy.dram_pj.value() / total;
            pe += 100.0 * r.energy.pe_pj.value() / total;
        }
        if (n == 0)
            continue;
        printRow(ladder[s].label, {comm / n, dram / n, pe / n},
                 "%.2f", 10);
        if (s == 0 || s + 1 == ladder.size())
            report.derive(std::string(title) + " :: " +
                              ladder[s].label + " comm_share_pct",
                          comm / n);
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
    std::printf("=== Fig. 17: energy breakdown by optimization "
                "step ===\n\n");

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
    SweepReport report = makeReport("fig17_energy_breakdown", runner);

    breakdownPanel(runner, report, opts, "(a) BEACON-D", "BEACON-D",
                   beaconDLadder(true), workloads);
    breakdownPanel(runner, report, opts, "(b) BEACON-S", "BEACON-S",
                   beaconSLadder(true), workloads);

    std::printf("paper: vanilla comm share 60.68%% (D) / 52.35%% "
                "(S); fully optimized 14.01%% / 13.17%%; compute "
                "<1%%\n");
    emitJson(report, opts, timer);
    return 0;
}
