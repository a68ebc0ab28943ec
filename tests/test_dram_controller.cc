/**
 * @file
 * Tests for the event-driven FR-FCFS DRAM controller: completion
 * semantics, row-hit preference, throughput/latency sanity, refresh
 * progress, and the DRAMPower-style energy model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "dram/controller.hh"
#include "dram/energy.hh"

namespace beacon
{
namespace
{

struct ControllerHarness
{
    EventQueue eq;
    StatRegistry stats;
    DimmGeometry geom;
    DramTimingParams tp = DramTimingParams::ddr4_1600_22();
    std::unique_ptr<DramController> ctrl;

    explicit ControllerHarness(bool custom = true,
                               bool refresh = false)
    {
        geom.per_rank_lanes = custom;
        geom.per_rank_cmd_bus = custom;
        DramControllerParams params;
        params.enable_refresh = refresh;
        ctrl = std::make_unique<DramController>("dimm", eq, stats,
                                                geom, tp, params);
    }

    MemRequest
    makeRead(unsigned rank, unsigned bg, unsigned bank, unsigned row,
             unsigned bursts = 1, unsigned chip_first = 0,
             unsigned chip_count = 16)
    {
        MemRequest req;
        req.coord.rank = rank;
        req.coord.bank_group = bg;
        req.coord.bank = bank;
        req.coord.row = RowId{row};
        req.coord.chip_first = chip_first;
        req.coord.chip_count = chip_count;
        req.bursts = bursts;
        req.bytes = Bytes{bursts * chip_count * 4};
        return req;
    }
};

TEST(DramController, SingleReadCompletesWithRealisticLatency)
{
    ControllerHarness h;
    Tick done = 0;
    MemRequest req = h.makeRead(0, 0, 0, 7);
    req.on_complete = [&](Tick t) { done = t; };
    h.ctrl->enqueue(std::move(req));
    h.eq.run();
    // ACT + tRCD + tCL + tBL on an idle bank.
    const Tick expect =
        (h.tp.t_rcd + h.tp.t_cl + h.tp.t_bl) * h.tp.t_ck_ps;
    EXPECT_GE(done, expect);
    EXPECT_LE(done, expect + 10 * h.tp.t_ck_ps);
    EXPECT_EQ(h.ctrl->readsCompleted(), 1u);
}

TEST(DramController, IdleEdgesSkipTheScan)
{
    // One read to a closed bank on an idle DIMM: the controller polls
    // every clock edge through the tRCD wait, but only three wake-ups
    // can change the answer (ACT, then the column-ready scan, then
    // the column itself); the edges in between must not query the
    // timing model.
    ControllerHarness h;
    Tick done = 0;
    MemRequest req = h.makeRead(0, 0, 0, 7);
    req.on_complete = [&](Tick t) { done = t; };
    h.ctrl->enqueue(std::move(req));
    h.eq.run();
    EXPECT_EQ(h.ctrl->device().numActs(), 1u);
    EXPECT_EQ(h.ctrl->device().numReadBursts(), 1u);
    // earliestAct (issue ACT), earliestColumn (not ready: tRCD),
    // earliestColumn at the tRCD edge (issue RD).
    EXPECT_EQ(h.ctrl->device().timingQueries(), 3u);
    EXPECT_EQ(done, (h.tp.t_rcd + h.tp.t_cl + h.tp.t_bl) * h.tp.t_ck_ps);
}

TEST(DramController, AllCallbacksFireOnce)
{
    ControllerHarness h;
    int fired = 0;
    for (int i = 0; i < 64; ++i) {
        MemRequest req =
            h.makeRead(i % 4, (i / 4) % 4, (i / 16) % 4, i);
        req.on_complete = [&](Tick) { ++fired; };
        h.ctrl->enqueue(std::move(req));
    }
    h.eq.run();
    EXPECT_EQ(fired, 64);
    EXPECT_EQ(h.ctrl->inFlight(), 0u);
}

TEST(DramController, RowHitsPreferredOverConflicts)
{
    ControllerHarness h;
    std::vector<int> completion_order;
    // First open row 5, then interleave row-5 hits with row-9
    // conflicts in the same bank.
    MemRequest warm = h.makeRead(0, 0, 0, 5);
    warm.on_complete = [&](Tick) { completion_order.push_back(0); };
    h.ctrl->enqueue(std::move(warm));
    h.eq.run();

    MemRequest conflict = h.makeRead(0, 0, 0, 9);
    conflict.on_complete = [&](Tick) {
        completion_order.push_back(9);
    };
    h.ctrl->enqueue(std::move(conflict));
    MemRequest hit = h.makeRead(0, 0, 0, 5);
    hit.on_complete = [&](Tick) { completion_order.push_back(5); };
    h.ctrl->enqueue(std::move(hit));
    h.eq.run();

    ASSERT_EQ(completion_order.size(), 3u);
    EXPECT_EQ(completion_order[1], 5) << "row hit should bypass";
    EXPECT_EQ(completion_order[2], 9);
    EXPECT_GT(h.ctrl->device().numPres(), 0u);
}

TEST(DramController, WritesComplete)
{
    ControllerHarness h;
    int writes = 0;
    for (int i = 0; i < 16; ++i) {
        MemRequest req = h.makeRead(0, i % 4, 0, 3);
        req.is_write = true;
        req.on_complete = [&](Tick) { ++writes; };
        h.ctrl->enqueue(std::move(req));
    }
    h.eq.run();
    EXPECT_EQ(writes, 16);
    EXPECT_EQ(h.ctrl->writesCompleted(), 16u);
}

TEST(DramController, StreamingThroughputApproachesPeak)
{
    // Sequential row-hit reads from one rank should sustain close to
    // one burst per tCCD_S on the data bus.
    ControllerHarness h;
    const unsigned n = 256;
    Tick last = 0;
    unsigned done = 0;
    // Single row, many bursts: model as consecutive multi-burst
    // requests to the same row.
    for (unsigned i = 0; i < n; ++i) {
        MemRequest req = h.makeRead(0, 0, 0, 4, 1);
        req.coord.column = (i * 8) % 1024;
        req.on_complete = [&](Tick t) {
            ++done;
            last = t;
        };
        h.ctrl->enqueue(std::move(req));
    }
    h.eq.run();
    EXPECT_EQ(done, n);
    const double bytes = double(n) * 64.0;
    const double seconds = ticksToSeconds(last);
    const double gbps = bytes / seconds / 1e9;
    // DDR4-1600 x64 peak is 12.8 GB/s; expect > 60% of it.
    EXPECT_GT(gbps, 7.5);
    EXPECT_LT(gbps, 12.9);
}

TEST(DramController, MultiBurstRequestSingleCompletion)
{
    ControllerHarness h;
    int fired = 0;
    MemRequest req = h.makeRead(0, 0, 0, 2, 8, 0, 1);
    req.on_complete = [&](Tick) { ++fired; };
    h.ctrl->enqueue(std::move(req));
    h.eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(h.ctrl->device().numReadBursts(), 8u);
}

TEST(DramController, RefreshKeepsServicingRequests)
{
    ControllerHarness h(true, true);
    // Spread requests over a window longer than tREFI so refreshes
    // interleave with traffic.
    int done = 0;
    const Tick refi = h.tp.t_refi * h.tp.t_ck_ps;
    for (int i = 0; i < 32; ++i) {
        h.eq.schedule(i * refi / 4, [&h, &done, i] {
            MemRequest req = h.makeRead(0, 0, 0, 100 + i);
            req.on_complete = [&done](Tick) { ++done; };
            h.ctrl->enqueue(std::move(req));
        });
    }
    h.eq.run(refi * 12);
    EXPECT_EQ(done, 32);
    EXPECT_GT(h.ctrl->device().numRefreshes(), 0u);
}

TEST(DramController, DeterministicAcrossRuns)
{
    auto run_once = [] {
        ControllerHarness h;
        Rng rng(99);
        Tick last = 0;
        for (int i = 0; i < 200; ++i) {
            MemRequest req = h.makeRead(
                unsigned(rng.next(4)), unsigned(rng.next(4)),
                unsigned(rng.next(4)), unsigned(rng.next(1024)));
            req.on_complete = [&](Tick t) { last = t; };
            h.ctrl->enqueue(std::move(req));
        }
        h.eq.run();
        return last;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(DramController, ClosedPagePolicyLeavesBanksClosed)
{
    EventQueue eq;
    StatRegistry stats;
    DimmGeometry geom;
    DramControllerParams params;
    params.enable_refresh = false;
    params.page_policy = PagePolicy::Closed;
    DramController ctrl("dimm", eq, stats, geom,
                        DramTimingParams::ddr4_1600_22(), params);
    MemRequest req;
    req.coord.row = RowId{5};
    req.coord.chip_count = 16;
    req.bursts = 1;
    ctrl.enqueue(std::move(req));
    eq.run();
    EXPECT_EQ(ctrl.device().openRow(0, 0, 0), -1)
        << "auto-precharge must close the bank";
    // No explicit PRE command was spent; the auto-precharge is
    // accounted in per-chip precharge energy ops.
    EXPECT_EQ(ctrl.device().numPres(), 0u);
    EXPECT_EQ(ctrl.device().numPreChipOps(), 16u);
}

TEST(DramController, OpenPageBeatsClosedOnRowLocality)
{
    auto run_policy = [](PagePolicy policy) {
        EventQueue eq;
        StatRegistry stats;
        DimmGeometry geom;
        DramControllerParams params;
        params.enable_refresh = false;
        params.page_policy = policy;
        DramController ctrl("dimm", eq, stats, geom,
                            DramTimingParams::ddr4_1600_22(),
                            params);
        // A streaming pattern through one row.
        for (unsigned i = 0; i < 64; ++i) {
            MemRequest req;
            req.coord.row = RowId{9};
            req.coord.column = (i * 8) % 1024;
            req.coord.chip_count = 16;
            req.bursts = 1;
            ctrl.enqueue(std::move(req));
        }
        eq.run();
        return eq.now();
    };
    EXPECT_LT(run_policy(PagePolicy::Open),
              run_policy(PagePolicy::Closed));
}

TEST(DramEnergy, CountsScaleWithActivity)
{
    ControllerHarness h;
    for (int i = 0; i < 64; ++i) {
        MemRequest req = h.makeRead(0, i % 4, (i / 4) % 4, i);
        h.ctrl->enqueue(std::move(req));
    }
    h.eq.run();
    const Tick end = h.eq.now();
    const DramEnergyBreakdown e =
        computeDramEnergy(h.ctrl->device(), end);
    EXPECT_GT(e.act_pre_pj, Picojoules{});
    EXPECT_GT(e.rd_wr_pj, Picojoules{});
    EXPECT_GT(e.background_pj, Picojoules{});
    EXPECT_DOUBLE_EQ(e.refresh_pj.value(), 0.0);
    EXPECT_GT(e.totalPj(), e.background_pj);

    // Twice the elapsed time doubles only the background term.
    const DramEnergyBreakdown e2 =
        computeDramEnergy(h.ctrl->device(), end * 2);
    EXPECT_DOUBLE_EQ(e2.act_pre_pj.value(), e.act_pre_pj.value());
    EXPECT_NEAR(e2.background_pj.value(),
                2 * e.background_pj.value(),
                1e-6 * e.background_pj.value());
}

TEST(DramEnergy, FineGrainedAccessCostsFewerChipOps)
{
    // Reading 32 useful bytes: one chip x 8 bursts moves 32 raw
    // bytes; a whole-rank burst moves 64 raw bytes.
    ControllerHarness fine;
    {
        MemRequest req = fine.makeRead(0, 0, 0, 1, 8, 0, 1);
        fine.ctrl->enqueue(std::move(req));
        fine.eq.run();
    }
    ControllerHarness wide;
    {
        MemRequest req = wide.makeRead(0, 0, 0, 1, 1, 0, 16);
        wide.ctrl->enqueue(std::move(req));
        wide.eq.run();
    }
    EXPECT_EQ(fine.ctrl->device().rawBytes(), Bytes{32});
    EXPECT_EQ(wide.ctrl->device().rawBytes(), Bytes{64});
    const Picojoules fine_pj =
        computeDramEnergy(fine.ctrl->device(), 1).rd_wr_pj;
    const Picojoules wide_pj =
        computeDramEnergy(wide.ctrl->device(), 1).rd_wr_pj;
    EXPECT_LT(fine_pj, wide_pj);
}

} // namespace
} // namespace beacon
