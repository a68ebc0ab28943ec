/**
 * @file
 * Topology fuzzing: the presets cover the paper's configuration;
 * this suite sweeps irregular pool shapes (1..3 switches, 1..4
 * DIMMs each, varying CXLG placement and PE counts) and checks that
 * every machine still completes its workload, conserves tasks, and
 * stays deterministic. Guards the system-composition code against
 * assumptions that only hold for the 2x4 preset.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "accel/experiment.hh"
#include "accel/sweep.hh"
#include "accel/system.hh"
#include "accel/workload.hh"
#include "check/checker_config.hh"
#include "common/rng.hh"
#include "rack/system.hh"

namespace beacon
{
namespace
{

const FmSeedingWorkload &
fuzzWorkload()
{
    static const FmSeedingWorkload workload = [] {
        genomics::DatasetPreset preset =
            genomics::seedingPresets()[3];
        preset.genome.length = 1 << 13;
        preset.reads.num_reads = 16;
        return FmSeedingWorkload(preset);
    }();
    return workload;
}

SystemParams
randomPool(Rng &rng)
{
    SystemParams p = SystemParams::cxlVanillaD();
    p.num_groups = 1 + unsigned(rng.next(3));
    p.dimms_per_group = 1 + unsigned(rng.next(4));
    p.pool.num_switches = p.num_groups;
    p.pool.dimms_per_switch = p.dimms_per_group;

    const bool in_switch = rng.chance(0.4);
    p.ndp_in_switch = in_switch;
    p.cxlg_dimms.clear();
    if (!in_switch) {
        // One CXLG-DIMM per switch, at a random slot.
        for (unsigned s = 0; s < p.num_groups; ++s) {
            p.cxlg_dimms.push_back(
                s * p.dimms_per_group +
                unsigned(rng.next(p.dimms_per_group)));
        }
    }
    p.pes_per_module = 8u << rng.next(4); // 8..64
    p.max_inflight_tasks = 32u << rng.next(3);

    p.opts.data_packing = rng.chance(0.5);
    p.opts.mem_access_opt = rng.chance(0.5);
    p.opts.placement_mapping = rng.chance(0.5);
    p.opts.coalesce_chips = 1u << rng.next(4); // 1..8 (or 16)
    p.opts.kmc_single_pass = true;
    p.name = "fuzz";
    // Fuzzing is the validation harness: every run is shadow-checked
    // (DRAM protocol, link FIFO/bandwidth, NDP accounting).
    p.checkers = CheckerConfig::all();
    return p;
}

SystemParams
randomDdr(Rng &rng)
{
    SystemParams p = SystemParams::medal();
    p.num_groups = 1 + unsigned(rng.next(4));
    p.dimms_per_group = 1 + unsigned(rng.next(3));
    p.ddr.num_channels = p.num_groups;
    p.ddr.dimms_per_channel = p.dimms_per_group;
    p.cxlg_dimms.clear();
    for (unsigned d = 0; d < p.num_groups * p.dimms_per_group; ++d)
        p.cxlg_dimms.push_back(d);
    p.pes_per_module = 8u << rng.next(3);
    p.name = "fuzz-ddr";
    p.checkers = CheckerConfig::all();
    return p;
}

class TopologyFuzzTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TopologyFuzzTest, PoolShapeCompletesAndConserves)
{
    Rng rng(1000 + GetParam());
    const SystemParams params = randomPool(rng);
    NdpSystem system(params, fuzzWorkload());
    const RunResult r = system.run(0);
    EXPECT_EQ(r.tasks, fuzzWorkload().numTasks());
    EXPECT_GT(r.dram_reads, 0u);
    EXPECT_GT(r.energy.totalPj(), Picojoules{});
}

TEST_P(TopologyFuzzTest, PoolShapeDeterministic)
{
    Rng rng(2000 + GetParam());
    const SystemParams params = randomPool(rng);
    const RunResult a = runSystem(params, fuzzWorkload(), 8);
    const RunResult b = runSystem(params, fuzzWorkload(), 8);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
}

TEST_P(TopologyFuzzTest, DdrShapeCompletes)
{
    Rng rng(3000 + GetParam());
    const SystemParams params = randomDdr(rng);
    NdpSystem system(params, fuzzWorkload());
    const RunResult r = system.run(0);
    EXPECT_EQ(r.tasks, fuzzWorkload().numTasks());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyFuzzTest,
                         ::testing::Range(0u, 8u),
                         [](const auto &info) {
                             return "seed" +
                                    std::to_string(info.param);
                         });

/**
 * Sweep @p count random topologies through a SweepRunner with
 * @p workers workers. Each job draws its pool shape from the
 * runner-provided per-index Rng stream, so the sampled topologies —
 * not just their results — must be identical across worker counts.
 */
std::vector<SweepOutcome>
fuzzSweep(unsigned workers, unsigned count)
{
    SweepRunner runner(workers, /*base_seed=*/0xF022ull);
    for (unsigned i = 0; i < count; ++i)
        runner.enqueue(
            {"fuzz", "topo" + std::to_string(i)},
            [](RunContext &ctx) {
                const SystemParams params = randomPool(ctx.rng);
                SweepOutcome out;
                NdpSystem system(params, fuzzWorkload());
                out.result = system.run(8);
                out.stats.emplace_back(
                    "groups", double(params.num_groups));
                out.stats.emplace_back(
                    "dimms", double(params.dimms_per_group));
                return out;
            });
    return runner.run();
}

TEST(SweepDeterminismTest, SerialAndParallelSweepsAreBitIdentical)
{
    // The determinism property behind the bench harnesses: the same
    // base seed produces bit-identical RunResults (checkers armed)
    // whether the sweep runs on one worker or eight.
    const auto serial = fuzzSweep(1, 10);
    const auto parallel = fuzzSweep(8, 10);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        const RunResult &a = serial[i].result;
        const RunResult &b = parallel[i].result;
        EXPECT_EQ(serial[i].stats, parallel[i].stats);
        EXPECT_EQ(a.ticks, b.ticks);
        EXPECT_EQ(a.tasks, b.tasks);
        EXPECT_EQ(a.wire_bytes, b.wire_bytes);
        EXPECT_EQ(a.host_round_trips, b.host_round_trips);
        EXPECT_EQ(a.dram_reads, b.dram_reads);
        EXPECT_EQ(a.dram_writes, b.dram_writes);
        EXPECT_EQ(a.energy.dram_pj, b.energy.dram_pj);
        EXPECT_EQ(a.energy.comm_pj, b.energy.comm_pj);
        EXPECT_EQ(a.energy.pe_pj, b.energy.pe_pj);
        EXPECT_EQ(a.chip_accesses, b.chip_accesses);
        EXPECT_EQ(a.chip_access_cov, b.chip_access_cov);
    }

    // And the serialised form is byte-identical too.
    SweepReport ra, rb;
    ra.harness = rb.harness = "fuzz_sweep";
    ra.add(serial);
    rb.add(parallel);
    EXPECT_EQ(sweepJsonString(ra, /*include_runtime=*/false),
              sweepJsonString(rb, /*include_runtime=*/false));
}

// ---------------------------------------------------------------
// Run-to-run determinism oracle
// ---------------------------------------------------------------

/**
 * A run must be a pure function of its parameters on every machine
 * the composition code can build, not just the presets. Each
 * iteration draws a random pool shape, runs it twice, and compares
 * the full stat registry dump plus the final tick. BEACON_FUZZ_ITERS
 * scales the sweep for soak runs (default keeps CI fast).
 */
TEST(PoolDeterminismFuzz, RandomPoolsRunIdentically)
{
    unsigned iters = 200;
    if (const char *env = std::getenv("BEACON_FUZZ_ITERS"))
        iters = unsigned(std::max(1, std::atoi(env)));

    const auto observe = [](const SystemParams &params) {
        NdpSystem system(params, fuzzWorkload());
        const RunResult r = system.run(8);
        std::ostringstream os;
        system.stats().dump(os);
        return std::pair<std::string, Tick>(os.str(), r.ticks);
    };

    for (unsigned i = 0; i < iters; ++i) {
        Rng rng(7000 + i);
        SystemParams params = randomPool(rng);
        // randomPool() arms the full checker fleet; strip it from
        // half the configs so both paths are covered.
        if (i % 2 == 0)
            params.checkers = CheckerConfig{};

        const auto first = observe(params);
        const auto second = observe(params);
        SCOPED_TRACE("iter " + std::to_string(i));
        EXPECT_EQ(first.second, second.second);
        ASSERT_EQ(first.first, second.first)
            << "stat registry dump diverged";
    }
}

// ---------------------------------------------------------------
// Rack-scale run-to-run determinism oracle
// ---------------------------------------------------------------

const HashSeedingWorkload &
rackFuzzWorkload()
{
    static const HashSeedingWorkload workload = [] {
        genomics::DatasetPreset preset =
            genomics::seedingPresets()[3];
        preset.genome.length = 1 << 13;
        preset.reads.num_reads = 16;
        return HashSeedingWorkload(preset);
    }();
    return workload;
}

/**
 * Same contract as RandomPoolsRunIdentically, one layer up: random
 * rack shapes (host count, tree depth, interleave ways,
 * shared-segment mix, write cadence) with mid-run hot-remove /
 * hot-add / VCS-rebind events must produce bit-identical stat
 * registries when run twice.
 */
TEST(RackDeterminismFuzz, RandomRacksRunIdentically)
{
    unsigned iters = 10;
    if (const char *env = std::getenv("BEACON_FUZZ_ITERS"))
        iters = std::max(1u, unsigned(std::atoi(env)) / 20);

    const auto observe = [](const rack::RackParams &params,
                            unsigned hot_case) {
        rack::RackSystem rk(params);
        for (unsigned h = 0; h < params.hosts; ++h) {
            TenantSpec spec;
            spec.name = "host" + std::to_string(h) + ".t0";
            spec.workload = &rackFuzzWorkload();
            spec.num_jobs = 3;
            spec.tasks_per_job = 2;
            spec.arrival.concurrency = 2;
            EXPECT_NE(rk.addTenant(h, spec), untenanted_id);
        }
        // The hot-plug mix: none / remove / remove+re-add / rebind.
        if (hot_case == 1 || hot_case == 2)
            rk.scheduleHotRemove(Tick{300000}, 9);
        if (hot_case == 2)
            rk.scheduleHotAdd(Tick{900000}, 9);
        if (hot_case == 3)
            rk.scheduleRebind(Tick{300000}, 10,
                              params.hosts - 1);
        const rack::RackReport r = rk.run();
        std::ostringstream os;
        rk.machine().stats().dump(os);
        return std::pair<std::string, Tick>(os.str(),
                                            r.machine.ticks);
    };

    for (unsigned i = 0; i < iters; ++i) {
        Rng rng(9000 + i);
        rack::RackParams params;
        params.hosts = 1 + unsigned(rng.next(4));
        params.switch_levels = 1 + unsigned(rng.next(2));
        params.interleave_ways = 1u << rng.next(3); // 1, 2, 4
        params.hdm_bytes_per_host = Bytes{1u << 19};
        params.segment_write_every =
            rng.chance(0.3) ? 0 : 2u << rng.next(3);
        params.seed = 100 + i;
        if (rng.chance(0.8)) {
            rack::SegmentParams seg;
            seg.name = "ref";
            seg.bytes = Bytes{1u << 15};
            seg.owner_dimm = 8;
            params.segments.push_back(seg);
        }
        if (rng.chance(0.3)) {
            rack::SegmentParams seg;
            seg.name = "index";
            seg.bytes = Bytes{1u << 14};
            seg.owner_dimm = 9;
            params.segments.push_back(seg);
        }
        // Arm the checkers on half the configs.
        if (i % 2 != 0)
            params.base.checkers = CheckerConfig::all();
        const unsigned hot_case = unsigned(rng.next(4));

        const auto first = observe(params, hot_case);
        const auto second = observe(params, hot_case);
        SCOPED_TRACE("iter " + std::to_string(i) + " hosts " +
                     std::to_string(params.hosts) + " hot_case " +
                     std::to_string(hot_case));
        EXPECT_EQ(first.second, second.second);
        ASSERT_EQ(first.first, second.first)
            << "rack stat registry dump diverged";
    }
}

} // namespace
} // namespace beacon
