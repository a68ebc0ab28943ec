/**
 * @file
 * Fig. 3 reproduction: performance and energy-efficiency improvement
 * of the previous DDR-DIMM accelerators (MEDAL for seeding, NEST for
 * k-mer counting) under imaginary idealized communication (infinite
 * bandwidth, zero latency).
 *
 * Paper reports on average 4.36x performance and 2.32x energy
 * efficiency — i.e., communication is their bottleneck.
 */

#include <memory>

#include "bench_util.hh"

using namespace beacon;
using namespace beacon::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    const BenchTimer timer;
    std::printf("=== Fig. 3: DDR-DIMM baselines with idealized "
                "communication ===\n\n");

    SweepRunner runner;
    applyBenchControls(runner, opts);
    SweepReport report = makeReport("fig03_idealized_comm", runner);

    // Per row: the real run, then its idealized twin (submission
    // order). The workloads must outlive runner.run().
    std::vector<std::string> rows;
    std::vector<std::unique_ptr<Workload>> workloads;
    const auto row = [&](const std::string &label,
                         const SystemParams &params,
                         std::unique_ptr<Workload> workload) {
        rows.push_back(label);
        enqueueRunObs(runner, report.harness, opts, {label, "real"},
                      params, *workload);
        enqueueRunObs(runner, report.harness, opts, {label, "ideal"},
                      params.idealized(), *workload);
        workloads.push_back(std::move(workload));
    };
    const auto presets = benchSeedingPresets();
    for (const auto &preset : {presets[0], presets[2], presets[4]}) {
        row(std::string("MEDAL/fm/") + preset.name,
            SystemParams::medal(),
            std::make_unique<FmSeedingWorkload>(preset));
        row(std::string("MEDAL/hash/") + preset.name,
            SystemParams::medal(),
            std::make_unique<HashSeedingWorkload>(preset));
    }
    row("NEST/kmc", SystemParams::nest(),
        std::make_unique<KmerCountingWorkload>(benchKmcPreset()));

    const std::vector<SweepOutcome> outcomes = runner.run();
    report.add(outcomes);
    if (runner.listOnly())
        return 0;

    printHeader("workload", {"real(us)", "ideal(us)", "perf-x",
                             "energy-x"});
    std::vector<double> perf_gains, energy_gains;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const SweepOutcome &real_point = outcomes[2 * r];
        const SweepOutcome &ideal_point = outcomes[2 * r + 1];
        if (real_point.skipped || ideal_point.skipped)
            continue; // --filter removed half of this row
        const RunResult &real = real_point.result;
        const RunResult &ideal = ideal_point.result;
        const double perf =
            double(real.ticks) / double(ideal.ticks);
        const double energy =
            real.energy.totalPj().value() / ideal.energy.totalPj().value();
        perf_gains.push_back(perf);
        energy_gains.push_back(energy);
        printRow(rows[r],
                 {real.seconds * 1e6, ideal.seconds * 1e6, perf,
                  energy},
                 "%.2f");
    }

    std::printf("\n");
    printRow("geomean", {geomean(perf_gains), geomean(energy_gains)});
    std::printf("\npaper: 4.36x perf, 2.32x energy efficiency "
                "(average)\n");
    if (!perf_gains.empty()) {
        report.derive("perf_geomean", geomean(perf_gains));
        report.derive("energy_geomean", geomean(energy_gains));
    }
    emitJson(report, opts, timer);
    return 0;
}
