/**
 * @file
 * Fig. 16 reproduction: DNA pre-alignment — performance improvement
 * and energy reduction of BEACON-D and BEACON-S over the 48-thread
 * CPU baseline (Shouji software), per dataset.
 *
 * Paper: BEACON-D 362.04x / BEACON-S 359.36x performance; 387.05x /
 * 382.80x energy reduction.
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
    std::printf("=== Fig. 16: DNA pre-alignment ===\n\n");

    const auto presets = benchSeedingPresets();
    std::vector<std::unique_ptr<PrealignWorkload>> owners;
    for (const auto &preset : presets)
        owners.push_back(std::make_unique<PrealignWorkload>(preset));

    // Per dataset: cpu, BEACON-D, BEACON-S (submission order).
    SweepRunner runner;
    applyBenchControls(runner, opts);
    SweepReport report = makeReport("fig16_prealign", runner);
    for (std::size_t i = 0; i < presets.size(); ++i) {
        enqueueCpuBaseline(runner, presets[i].name, *owners[i],
                           /*kmc_single_pass=*/true);
        enqueueRunObs(runner, report.harness, opts,
                      {presets[i].name, "BEACON-D"},
                      SystemParams::beaconD(), *owners[i]);
        enqueueRunObs(runner, report.harness, opts,
                      {presets[i].name, "BEACON-S"},
                      SystemParams::beaconS(), *owners[i]);
    }
    const std::vector<SweepOutcome> outcomes = runner.run();
    if (runner.listOnly()) {
        report.add(outcomes);
        return 0;
    }

    // A ratio needs its accelerator point and the dataset's CPU
    // baseline; --filter may have skipped either, and a skipped
    // point's cell prints as "-".
    printHeader("dataset", {"D perf-x", "S perf-x", "D energy-x",
                            "S energy-x"});
    std::vector<double> d_perf, s_perf, d_energy, s_energy;
    const auto cell = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2fx", v);
        return std::string(buf);
    };
    for (std::size_t i = 0; i < presets.size(); ++i) {
        const SweepOutcome &cpu = outcomes[i * 3];
        const SweepOutcome &d = outcomes[i * 3 + 1];
        const SweepOutcome &s = outcomes[i * 3 + 2];
        if (cpu.skipped || (d.skipped && s.skipped))
            continue;
        const double cpu_seconds = statOf(cpu, cpu_seconds_key);
        const double cpu_energy = statOf(cpu, cpu_energy_key);
        std::vector<std::string> cells(4, "-");
        if (!d.skipped) {
            d_perf.push_back(cpu_seconds / d.result.seconds);
            d_energy.push_back(cpu_energy /
                               d.result.energy.totalPj().value());
            cells[0] = cell(d_perf.back());
            cells[2] = cell(d_energy.back());
        }
        if (!s.skipped) {
            s_perf.push_back(cpu_seconds / s.result.seconds);
            s_energy.push_back(cpu_energy /
                               s.result.energy.totalPj().value());
            cells[1] = cell(s_perf.back());
            cells[3] = cell(s_energy.back());
        }
        printHeader(presets[i].name, cells);
    }
    std::printf("\n");

    report.add(outcomes);
    const std::pair<const char *, const std::vector<double> *>
        geomeans[] = {{"beacon_d_perf_geomean", &d_perf},
                      {"beacon_s_perf_geomean", &s_perf},
                      {"beacon_d_energy_geomean", &d_energy},
                      {"beacon_s_energy_geomean", &s_energy}};
    std::vector<std::string> cells;
    for (const auto &[name, values] : geomeans) {
        cells.push_back(values->empty() ? "-"
                                        : cell(geomean(*values)));
        if (!values->empty())
            report.derive(name, geomean(*values));
    }
    printHeader("geomean", cells);
    std::printf("\npaper: D 362.04x / S 359.36x perf; D 387.05x / "
                "S 382.80x energy\n");

    emitJson(report, opts, timer);
    return 0;
}
