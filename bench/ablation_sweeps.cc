/**
 * @file
 * Ablation benches for the design choices DESIGN.md calls out:
 *
 *  1. multi-chip coalescing width (the "sweet point" of Fig. 11c),
 *  2. Data Packer flush timeout (staging delay vs packing ratio),
 *  3. PE count per NDP module (compute vs memory balance),
 *  4. CXLG-DIMM stripe weight (hot-data proximity placement),
 *  5. in-flight task depth (memory-level parallelism).
 *
 * Every configuration point of every sweep is one SweepRunner job;
 * all sections run as a single parallel sweep and print from the
 * merged outcomes.
 */

#include "bench_util.hh"

using namespace beacon;
using namespace beacon::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    const BenchTimer timer;
    std::printf("=== Ablation sweeps (FM seeding, Pt preset, "
                "BEACON-D) ===\n\n");
    const auto preset = benchSeedingPresets()[0];
    FmSeedingWorkload workload(preset);

    SweepRunner runner;
    applyBenchControls(runner, opts);
    SweepReport report = makeReport("ablation_sweeps", runner);

    // Every point is a BEACON-D variant (unless stated) over the one
    // workload, with the flag-derived telemetry.
    const auto point = [&](const std::string &sweep,
                           const std::string &value,
                           const SystemParams &params,
                           std::vector<std::string> stat_keys = {}) {
        enqueueRunObs(runner, report.harness, opts, {sweep, value},
                      params, workload, 0, std::move(stat_keys));
    };

    const std::vector<unsigned> chip_widths = {1, 2, 4, 8, 16};
    for (unsigned chips : chip_widths) {
        SystemParams params = SystemParams::beaconD();
        params.opts.coalesce_chips = chips;
        point("coalescing", std::to_string(chips), params);
    }

    const std::vector<Tick> flush_timeouts = {5, 15, 50, 200};
    for (Tick timeout_ns : flush_timeouts) {
        SystemParams params = SystemParams::beaconD();
        params.pool.packer.flush_timeout = timeout_ns * 1000;
        point("flush_timeout_ns", std::to_string(timeout_ns), params);
    }

    const std::vector<unsigned> pe_counts = {16, 32, 64, 128, 256};
    for (unsigned pes : pe_counts) {
        SystemParams params = SystemParams::beaconD();
        params.pes_per_module = pes;
        point("pes_per_module", std::to_string(pes), params);
    }

    for (bool shipping : {false, true}) {
        // Packed pool without proximity placement: remote requests
        // reach NDP-capable CXLG-DIMMs sub-flit.
        SystemParams params = SystemParams::cxlVanillaD();
        params.opts.data_packing = true;
        params.opts.mem_access_opt = true;
        params.opts.function_shipping = shipping;
        point("function_shipping",
              shipping ? "ship-compute" : "fetch-data", params);
    }

    for (PagePolicy policy : {PagePolicy::Open, PagePolicy::Closed}) {
        SystemParams params = SystemParams::beaconD();
        params.page_policy = policy;
        point("page_policy",
              policy == PagePolicy::Open ? "open" : "closed", params,
              {"rowHits"});
    }

    const std::vector<unsigned> stripe_weights = {1, 3, 5, 9};
    for (unsigned weight : stripe_weights) {
        SystemParams params = SystemParams::beaconD();
        params.opts.cxlg_stripe_weight = weight;
        point("stripe_weight", std::to_string(weight), params);
    }

    const std::vector<unsigned> depths = {16, 64, 256, 1024};
    for (unsigned depth : depths) {
        SystemParams params = SystemParams::beaconD();
        params.max_inflight_tasks = depth;
        point("inflight_depth", std::to_string(depth), params);
    }

    const std::vector<SweepOutcome> outcomes = runner.run();
    report.add(outcomes);
    if (runner.listOnly())
        return 0;
    auto next = outcomes.begin();

    std::printf("--- coalescing width (chips per access) ---\n");
    printHeader("chips", {"time(us)", "cov", "energy(uJ)"});
    for (std::size_t i = 0; i < chip_widths.size(); ++i, ++next) {
        const RunResult &r = next->result;
        printRow(next->key.label,
                 {r.seconds * 1e6, r.chip_access_cov,
                  r.energy.totalPj().value() * 1e-6},
                 "%.3f");
    }

    std::printf("\n--- Data Packer flush timeout ---\n");
    printHeader("timeout(ns)", {"time(us)", "wire(MB)"});
    for (std::size_t i = 0; i < flush_timeouts.size(); ++i, ++next) {
        const RunResult &r = next->result;
        printRow(next->key.label,
                 {r.seconds * 1e6, double(r.wire_bytes.value()) / 1e6},
                 "%.3f");
    }

    std::printf("\n--- PEs per NDP module ---\n");
    printHeader("PEs", {"time(us)", "tasks/s(M)"});
    for (std::size_t i = 0; i < pe_counts.size(); ++i, ++next) {
        const RunResult &r = next->result;
        printRow(next->key.label,
                 {r.seconds * 1e6, r.tasks_per_second / 1e6},
                 "%.3f");
    }

    std::printf("\n--- function shipping (MEDAL-style task "
                "forwarding) ---\n");
    printHeader("mode", {"time(us)", "wire(MB)"});
    for (int i = 0; i < 2; ++i, ++next) {
        const RunResult &r = next->result;
        printRow(next->key.label,
                 {r.seconds * 1e6, double(r.wire_bytes.value()) / 1e6},
                 "%.3f");
    }

    std::printf("\n--- DRAM page policy ---\n");
    printHeader("policy", {"time(us)", "rowHits", "energy(uJ)"});
    for (int i = 0; i < 2; ++i, ++next) {
        const RunResult &r = next->result;
        printRow(next->key.label,
                 {r.seconds * 1e6, statOf(*next, "rowHits"),
                  r.energy.totalPj().value() * 1e-6},
                 "%.2f");
    }

    std::printf("\n--- CXLG-DIMM stripe weight (hot-data "
                "proximity) ---\n");
    printHeader("weight", {"time(us)", "wire(MB)"});
    for (std::size_t i = 0; i < stripe_weights.size(); ++i, ++next) {
        const RunResult &r = next->result;
        printRow(next->key.label,
                 {r.seconds * 1e6, double(r.wire_bytes.value()) / 1e6},
                 "%.3f");
    }

    std::printf("\n--- in-flight task depth per module ---\n");
    printHeader("inflight", {"time(us)"});
    for (std::size_t i = 0; i < depths.size(); ++i, ++next)
        printRow(next->key.label, {next->result.seconds * 1e6},
                 "%.3f");

    emitJson(report, opts, timer);
    return 0;
}
