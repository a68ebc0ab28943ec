/**
 * @file
 * Integration tests: full machine models (MEDAL, NEST, CXL-vanilla,
 * BEACON-D, BEACON-S) driving real workloads end to end, plus the
 * behavioural claims the paper's optimizations make (device bias
 * removes host round trips, packing shrinks wire traffic, idealized
 * communication is an upper bound, coalescing balances chips, ...).
 */

#include <gtest/gtest.h>

#include "accel/experiment.hh"
#include "accel/system.hh"
#include "accel/workload.hh"

namespace beacon
{
namespace
{

const FmSeedingWorkload &
fmWorkload()
{
    static const FmSeedingWorkload workload = [] {
        genomics::DatasetPreset preset =
            genomics::seedingPresets()[4];
        preset.genome.length = 1 << 15;
        preset.reads.num_reads = 48;
        return FmSeedingWorkload(preset);
    }();
    return workload;
}

const KmerCountingWorkload &
kmcWorkload()
{
    static const KmerCountingWorkload workload = [] {
        genomics::DatasetPreset preset =
            genomics::kmerCountingPreset();
        preset.genome.length = 1 << 15;
        return KmerCountingWorkload(preset, 21, 3, 1 << 14, 24);
    }();
    return workload;
}

class SystemRunTest
    : public ::testing::TestWithParam<const char *>
{
  protected:
    SystemParams
    params() const
    {
        const std::string name = GetParam();
        if (name == "medal")
            return SystemParams::medal();
        if (name == "nest")
            return SystemParams::nest();
        if (name == "vanillaD")
            return SystemParams::cxlVanillaD();
        if (name == "vanillaS")
            return SystemParams::cxlVanillaS();
        if (name == "beaconD")
            return SystemParams::beaconD();
        return SystemParams::beaconS();
    }
};

TEST_P(SystemRunTest, FmSeedingRunsToCompletion)
{
    NdpSystem system(params(), fmWorkload());
    const RunResult result = system.run(0);
    EXPECT_EQ(result.tasks, fmWorkload().numTasks());
    EXPECT_GT(result.ticks, 0u);
    EXPECT_GT(result.tasks_per_second, 0.0);
    EXPECT_GT(result.energy.dram_pj, Picojoules{});
    EXPECT_GT(result.energy.pe_pj, Picojoules{});
    EXPECT_GT(result.dram_reads, 0u);
}

TEST_P(SystemRunTest, KmerCountingRunsToCompletion)
{
    NdpSystem system(params(), kmcWorkload());
    const RunResult result = system.run(0);
    EXPECT_EQ(result.tasks, kmcWorkload().numTasks());
    EXPECT_GT(result.dram_writes, 0u)
        << "counter updates must write DRAM";
}

TEST_P(SystemRunTest, DeterministicAcrossRuns)
{
    const RunResult a = runSystem(params(), fmWorkload(), 16);
    const RunResult b = runSystem(params(), fmWorkload(), 16);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_DOUBLE_EQ(a.energy.totalPj().value(),
                     b.energy.totalPj().value());
}

TEST_P(SystemRunTest, IdealizedCommunicationIsAnUpperBound)
{
    const RunResult real = runSystem(params(), fmWorkload(), 32);
    const RunResult ideal =
        runSystem(params().idealized(), fmWorkload(), 32);
    EXPECT_LE(ideal.ticks, real.ticks);
    EXPECT_DOUBLE_EQ(ideal.energy.comm_pj.value(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SystemRunTest,
                         ::testing::Values("medal", "nest",
                                           "vanillaD", "vanillaS",
                                           "beaconD", "beaconS"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(SystemBehaviour, DeviceBiasEliminatesHostRoundTrips)
{
    SystemParams host_bias = SystemParams::cxlVanillaD();
    SystemParams device_bias = host_bias;
    device_bias.opts.mem_access_opt = true;

    const RunResult naive = runSystem(host_bias, fmWorkload(), 32);
    const RunResult biased =
        runSystem(device_bias, fmWorkload(), 32);
    EXPECT_GT(naive.host_round_trips, 0u);
    EXPECT_EQ(biased.host_round_trips, 0u);
    EXPECT_LE(biased.ticks, naive.ticks);
}

TEST(SystemBehaviour, DataPackingReducesWireTraffic)
{
    SystemParams plain = SystemParams::cxlVanillaD();
    SystemParams packed = plain;
    packed.opts.data_packing = true;
    const RunResult a = runSystem(plain, fmWorkload(), 32);
    const RunResult b = runSystem(packed, fmWorkload(), 32);
    EXPECT_LT(b.wire_bytes, a.wire_bytes);
}

TEST(SystemBehaviour, PlacementReducesWireTraffic)
{
    SystemParams base = SystemParams::cxlVanillaD();
    base.opts.mem_access_opt = true;
    SystemParams placed = base;
    placed.opts.placement_mapping = true;
    const RunResult a = runSystem(base, fmWorkload(), 32);
    const RunResult b = runSystem(placed, fmWorkload(), 32);
    EXPECT_LT(b.wire_bytes, a.wire_bytes / 2)
        << "replicated proximate placement should slash traffic";
}

TEST(SystemBehaviour, CoalescingBalancesChipAccesses)
{
    SystemParams fine = SystemParams::beaconD();
    fine.opts.coalesce_chips = 1;
    SystemParams coalesced = SystemParams::beaconD();
    coalesced.opts.coalesce_chips = 8;
    const RunResult a = runSystem(fine, fmWorkload(), 0);
    const RunResult b = runSystem(coalesced, fmWorkload(), 0);
    EXPECT_GT(a.chip_access_cov, b.chip_access_cov)
        << "multi-chip coalescing must even out per-chip load";
}

TEST(SystemBehaviour, BeaconOutperformsVanilla)
{
    const RunResult vanilla =
        runSystem(SystemParams::cxlVanillaD(), fmWorkload(), 0);
    const RunResult beacon =
        runSystem(SystemParams::beaconD(), fmWorkload(), 0);
    EXPECT_LT(beacon.ticks, vanilla.ticks);
    EXPECT_LT(beacon.energy.totalPj(), vanilla.energy.totalPj());
}

TEST(SystemBehaviour, SinglePassBeatsMultiPassOnBeaconS)
{
    SystemParams multi = SystemParams::beaconS();
    multi.opts.kmc_single_pass = false;
    const RunResult two_pass =
        runSystem(multi, kmcWorkload(), 0);
    const RunResult one_pass =
        runSystem(SystemParams::beaconS(), kmcWorkload(), 0);
    EXPECT_LT(one_pass.ticks, two_pass.ticks);
}

TEST(SystemBehaviour, AtomicUpdatesAreNotLost)
{
    // Every atomic counter update must reach DRAM exactly once:
    // reads == writes for the update traffic (single-pass KMC only
    // issues RMWs plus task streaming).
    NdpSystem system(SystemParams::beaconS(), kmcWorkload());
    const RunResult result = system.run(0);
    EXPECT_EQ(result.dram_reads, result.dram_writes)
        << "each RMW is one read plus one write";
    const WorkloadFootprint fp = measureFootprint(
        kmcWorkload(), WorkloadContext{true, 0});
    EXPECT_EQ(result.dram_writes, fp.accesses)
        << "one write-back per atomic access";
}

TEST(SystemBehaviour, FunctionShippingCutsWireTraffic)
{
    // Function shipping saves wire only where responses travel
    // sub-flit: a packed pool without proximity placement, so
    // NDP-capable CXLG-DIMMs serve remote requests.
    SystemParams fetch = SystemParams::cxlVanillaD();
    fetch.opts.data_packing = true;
    SystemParams ship = fetch;
    ship.opts.function_shipping = true;
    // Enough load that flit batching amortises; below saturation
    // partial-flit flushes hide the per-message savings.
    genomics::DatasetPreset preset = genomics::seedingPresets()[4];
    preset.genome.length = 1 << 14;
    preset.reads.num_reads = 256;
    const FmSeedingWorkload loaded(preset);
    const RunResult a = runSystem(fetch, loaded, 0);
    const RunResult b = runSystem(ship, loaded, 0);
    EXPECT_LT(b.wire_bytes, a.wire_bytes)
        << "shipping the computation must shrink responses";
    EXPECT_EQ(a.tasks, b.tasks);
}

TEST(SystemBehaviour, PartitionCounts)
{
    NdpSystem medal(SystemParams::medal(), fmWorkload());
    EXPECT_EQ(medal.numPartitions(), 8u);
    NdpSystem beacon_d(SystemParams::beaconD(), fmWorkload());
    EXPECT_EQ(beacon_d.numPartitions(), 2u);
    NdpSystem beacon_s(SystemParams::beaconS(), fmWorkload());
    EXPECT_EQ(beacon_s.numPartitions(), 2u);
}

TEST(SystemParamsDeathTest, CxlgIndexOutOfRange)
{
    // 2x4 machines: index 8 names no DIMM, whether or not the design
    // builds NDP modules on its CXLG-DIMMs.
    SystemParams d = SystemParams::beaconD();
    d.cxlg_dimms = {0, 8};
    EXPECT_EXIT(NdpSystem{d}, ::testing::ExitedWithCode(1),
                "cxlg_dimms index 8 is out of range");
    SystemParams s = SystemParams::beaconS();
    s.cxlg_dimms = {8};
    EXPECT_EXIT(NdpSystem{s}, ::testing::ExitedWithCode(1),
                "cxlg_dimms index 8 is out of range");
}

TEST(SystemParamsDeathTest, CxlgIndexRepeated)
{
    SystemParams d = SystemParams::beaconD();
    d.cxlg_dimms = {0, 4, 0};
    EXPECT_EXIT(NdpSystem{d}, ::testing::ExitedWithCode(1),
                "cxlg_dimms index 0 is repeated");
}

TEST(SystemBehaviour, StatsExposedThroughRegistry)
{
    NdpSystem system(SystemParams::beaconD(), fmWorkload());
    system.run(16);
    EXPECT_GT(system.stats().counterValue("ndp0.tasksCompleted"), 0);
    EXPECT_GT(system.stats().sumMatching("readsCompleted"), 0);
    EXPECT_GT(system.stats().counterValue("pool.messages"), 0);
}

TEST(Experiment, LaddersAreCumulative)
{
    const auto d_ladder = beaconDLadder(true);
    ASSERT_EQ(d_ladder.size(), 5u);
    EXPECT_FALSE(d_ladder[0].params.opts.data_packing);
    EXPECT_TRUE(d_ladder[1].params.opts.data_packing);
    EXPECT_FALSE(d_ladder[1].params.opts.mem_access_opt);
    EXPECT_TRUE(d_ladder[2].params.opts.mem_access_opt);
    EXPECT_TRUE(d_ladder[3].params.opts.placement_mapping);
    EXPECT_EQ(d_ladder[4].params.opts.coalesce_chips, 8u);
    EXPECT_EQ(d_ladder[4].params.name, "BEACON-D");

    const auto s_ladder = beaconSLadder(true);
    ASSERT_EQ(s_ladder.size(), 5u);
    EXPECT_TRUE(s_ladder[4].params.opts.kmc_single_pass);
    EXPECT_FALSE(s_ladder[3].params.opts.kmc_single_pass);

    const auto short_ladder = beaconDLadder(false);
    EXPECT_EQ(short_ladder.size(), 4u);
    EXPECT_EQ(short_ladder.back().params.name, "BEACON-D");
}

TEST(Experiment, FormatX)
{
    EXPECT_EQ(formatX(4.699), "4.70x");
    EXPECT_EQ(formatX(1.0), "1.00x");
}

} // namespace
} // namespace beacon
