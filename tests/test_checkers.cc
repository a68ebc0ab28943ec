/**
 * @file
 * Tests for the runtime verification layer (src/check).
 *
 * The checkers' whole job is to panic on an illegal stream, so the
 * positive tests are death tests: each feeds a deliberately illegal
 * command/transfer sequence straight into a checker and asserts the
 * process dies with the right diagnostic. The negative tests prove
 * the checkers are quiet on legal streams — both a hand-written
 * JEDEC-legal command sequence and a full system run with every
 * checker armed.
 */

#include <gtest/gtest.h>

#include "accel/system.hh"
#include "accel/workload.hh"
#include "check/checker_config.hh"
#include "check/dram_protocol_checker.hh"
#include "check/link_checker.hh"
#include "common/units.hh"
#include "dram/controller.hh"
#include "dram/timing.hh"
#include "dram/types.hh"

namespace beacon
{
namespace
{

// All streams below are written against DDR4-1600 22-22-22:
// tCK = 1250 ps, tRRD_L = 6 nCK, tRRD_S = 4 nCK, tFAW = 28 nCK,
// tRCD = 22 nCK, tRAS = 52 nCK, tRC = 74 nCK, tRP = 22 nCK.
DramTimingParams
timing()
{
    return DramTimingParams::ddr4_1600_22();
}

DimmGeometry
geometry()
{
    return DimmGeometry{};
}

Tick
ck(unsigned ncycles)
{
    return Tick{ncycles} * timing().t_ck_ps;
}

DramCommand
act(unsigned bg, unsigned bank, unsigned row, Tick t)
{
    DramCommand c;
    c.kind = DramCommandKind::Act;
    c.coord.bank_group = bg;
    c.coord.bank = bank;
    c.coord.row = RowId{row};
    c.tick = t;
    return c;
}

DramCommand
column(DramCommandKind kind, unsigned bg, unsigned bank, unsigned row,
       Tick t)
{
    DramCommand c;
    c.kind = kind;
    c.coord.bank_group = bg;
    c.coord.bank = bank;
    c.coord.row = RowId{row};
    c.tick = t;
    return c;
}

DramCommand
pre(unsigned bg, unsigned bank, Tick t)
{
    DramCommand c;
    c.kind = DramCommandKind::Pre;
    c.coord.bank_group = bg;
    c.coord.bank = bank;
    c.tick = t;
    return c;
}

using DramCheckerDeathTest = ::testing::Test;
using LinkCheckerDeathTest = ::testing::Test;

TEST(DramCheckerDeathTest, ActActInsideTrrdFires)
{
    EXPECT_DEATH(
        {
            DramProtocolChecker checker("dimm", geometry(), timing());
            checker.observe(act(0, 0, 7, 0));
            // Same bank group: tRRD_L = 6 nCK, this ACT is 3 nCK
            // after the first.
            checker.observe(act(0, 1, 7, ck(3)));
        },
        "tRRD_L");
}

TEST(DramCheckerDeathTest, FifthActInsideTfawFires)
{
    EXPECT_DEATH(
        {
            DramProtocolChecker checker("dimm", geometry(), timing());
            // Four ACTs to distinct banks, legally spaced at
            // tRRD_L = 6 nCK each; the window spans 18 nCK.
            checker.observe(act(0, 0, 1, 0));
            checker.observe(act(0, 1, 1, ck(6)));
            checker.observe(act(0, 2, 1, ck(12)));
            checker.observe(act(0, 3, 1, ck(18)));
            // Fifth ACT (other bank group, tRRD_S = 4 nCK satisfied)
            // at 24 nCK — inside the 28 nCK four-activate window.
            checker.observe(act(1, 0, 1, ck(24)));
        },
        "tFAW");
}

TEST(DramCheckerDeathTest, ReadToPrechargedBankFires)
{
    EXPECT_DEATH(
        {
            DramProtocolChecker checker("dimm", geometry(), timing());
            checker.observe(
                column(DramCommandKind::Read, 0, 0, 3, ck(100)));
        },
        "precharged bank");
}

TEST(DramCheckerDeathTest, ReadToWrongRowFires)
{
    EXPECT_DEATH(
        {
            DramProtocolChecker checker("dimm", geometry(), timing());
            checker.observe(act(0, 0, 7, 0));
            checker.observe(
                column(DramCommandKind::Read, 0, 0, 8, ck(22)));
        },
        "wrong row");
}

TEST(DramCheckerDeathTest, ReadBeforeTrcdFires)
{
    EXPECT_DEATH(
        {
            DramProtocolChecker checker("dimm", geometry(), timing());
            checker.observe(act(0, 0, 7, 0));
            // tRCD = 22 nCK; the column command comes at 10 nCK.
            checker.observe(
                column(DramCommandKind::Read, 0, 0, 7, ck(10)));
        },
        "tRCD");
}

TEST(DramCheckerDeathTest, EarlyPrechargeFires)
{
    EXPECT_DEATH(
        {
            DramProtocolChecker checker("dimm", geometry(), timing());
            checker.observe(act(0, 0, 7, 0));
            // tRAS = 52 nCK; PRE at 30 nCK is premature.
            checker.observe(pre(0, 0, ck(30)));
        },
        "tRAS");
}

TEST(DramCheckerDeathTest, LegalStreamIsQuiet)
{
    DramProtocolChecker checker("dimm", geometry(), timing());
    // ACT -> RD (tRCD) -> PRE (tRAS) -> ACT (tRC) -> RD: all gaps at
    // or above their JEDEC minimum, so nothing may fire.
    checker.observe(act(0, 0, 7, 0));
    checker.observe(column(DramCommandKind::Read, 0, 0, 7, ck(22)));
    checker.observe(pre(0, 0, ck(52)));
    checker.observe(act(0, 0, 9, ck(74)));
    checker.observe(column(DramCommandKind::Read, 0, 0, 9, ck(96)));
    checker.finalize(ck(100));
    EXPECT_EQ(checker.commandsObserved(), 5u);
    EXPECT_EQ(checker.violations(), 0u);
}

TEST(LinkCheckerDeathTest, PacketOvertakingFires)
{
    EXPECT_DEATH(
        {
            CxlLinkChecker checker("pool");
            const unsigned chan = checker.registerChannel("link.down");
            // Ideal channel (no serialisation shadow): the second
            // packet arrives before the first — overtaking.
            checker.onTransfer(chan, 0, 0, 1000, Bytes{64}, 64.0,
                               true);
            checker.onTransfer(chan, 100, 100, 500, Bytes{64},
                               64.0, true);
        },
        "overtaking");
}

TEST(LinkCheckerDeathTest, BandwidthViolationFires)
{
    EXPECT_DEATH(
        {
            CxlLinkChecker checker("pool");
            const unsigned chan = checker.registerChannel("link.up");
            // The channel claims a 256 B transfer at 64 GB/s
            // finished serialising instantly.
            checker.onTransfer(chan, 0, 0, 0, Bytes{256}, 64.0,
                               false);
        },
        "bandwidth violation");
}

TEST(LinkCheckerDeathTest, ImbalanceAtEndOfRunFires)
{
    EXPECT_DEATH(
        {
            CxlLinkChecker checker("pool");
            checker.onSubmit(0);
            checker.onSubmit(10);
            checker.onDeliver(20);
            checker.finalize();
        },
        "imbalance");
}

TEST(LinkCheckerDeathTest, LegalTransfersAreQuiet)
{
    CxlLinkChecker checker("pool");
    const unsigned chan = checker.registerChannel("link.down");
    const Tick first = transferTime(Bytes{256}, 64.0);
    checker.onTransfer(chan, 0, first, first + 500, Bytes{256},
                       64.0, false);
    // Departs while the channel is still busy: queued FIFO behind
    // the first transfer.
    const Tick second = first + transferTime(Bytes{64}, 64.0);
    checker.onTransfer(chan, 10, second, second + 500, Bytes{64},
                       64.0, false);
    checker.checkBusyTicks(chan, second);
    checker.onSubmit(0);
    checker.onSubmit(10);
    checker.onDeliver(first + 500);
    checker.onDeliver(second + 500);
    checker.finalize();
    EXPECT_EQ(checker.submitted(), 2u);
    EXPECT_EQ(checker.delivered(), 2u);
}

TEST(CheckerSystemTest, FullRunWithAllCheckersIsQuiet)
{
    genomics::DatasetPreset preset = genomics::seedingPresets()[3];
    preset.genome.length = 1 << 13;
    preset.reads.num_reads = 16;
    const FmSeedingWorkload workload(preset);

    SystemParams params = SystemParams::beaconD();
    params.checkers = CheckerConfig::all();
    NdpSystem system(params, workload);
    const RunResult r = system.run(0);
    EXPECT_EQ(r.tasks, workload.numTasks());

    // The protocol checker must actually have been in the loop.
    const DramProtocolChecker *checker =
        system.dimmController(0).checker();
    ASSERT_NE(checker, nullptr);
    EXPECT_GT(checker->commandsObserved(), 0u);
    EXPECT_EQ(checker->violations(), 0u);

    // The one switch also arms the link checker, which saw every
    // fabric message delivered.
    const CxlLinkChecker *link = system.poolFabric().checker();
    ASSERT_NE(link, nullptr);
    EXPECT_GT(link->submitted(), 0u);
    EXPECT_EQ(link->submitted(), link->delivered());

    // ...and switching it off leaves both checkers out.
    params.checkers = CheckerConfig::none();
    NdpSystem unchecked(params, workload);
    EXPECT_EQ(unchecked.dimmController(0).checker(), nullptr);
    EXPECT_EQ(unchecked.poolFabric().checker(), nullptr);
}

} // namespace
} // namespace beacon
