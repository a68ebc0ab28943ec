/**
 * @file
 * Exact end-to-end latency arithmetic: for hand-built minimal
 * scenarios the simulated completion times must equal the sum of the
 * modelled components, tick for tick. These tests pin the timing
 * composition so refactors cannot silently double-charge or drop a
 * hop.
 */

#include <gtest/gtest.h>

#include "accel/ddr_fabric.hh"
#include "cxl/pool.hh"
#include "dram/controller.hh"

namespace beacon
{
namespace
{

TEST(LatencyMath, IdleBankReadLatencyExact)
{
    EventQueue eq;
    StatRegistry stats;
    DimmGeometry geom;
    DramControllerParams params;
    params.enable_refresh = false;
    const DramTimingParams tp = DramTimingParams::ddr4_1600_22();
    DramController ctrl("dimm", eq, stats, geom, tp, params);

    Tick done = 0;
    MemRequest req;
    req.coord.row = RowId{1};
    req.coord.chip_count = 16;
    req.bursts = 1;
    req.on_complete = [&](Tick t) { done = t; };
    ctrl.enqueue(std::move(req));
    eq.run();
    // Decision at t=0 issues ACT; the column command goes out at
    // exactly tRCD; data ends tCL + tBL later.
    EXPECT_EQ(done, (tp.t_rcd + tp.t_cl + tp.t_bl) * tp.t_ck_ps);
}

TEST(LatencyMath, RowHitReadLatencyExact)
{
    EventQueue eq;
    StatRegistry stats;
    DimmGeometry geom;
    DramControllerParams params;
    params.enable_refresh = false;
    const DramTimingParams tp = DramTimingParams::ddr4_1600_22();
    DramController ctrl("dimm", eq, stats, geom, tp, params);

    // Warm the row.
    MemRequest warm;
    warm.coord.row = RowId{1};
    warm.coord.chip_count = 16;
    ctrl.enqueue(std::move(warm));
    eq.run();
    const Tick start = eq.now();

    Tick done = 0;
    MemRequest hit;
    hit.coord.row = RowId{1};
    hit.coord.column = 64;
    hit.coord.chip_count = 16;
    hit.on_complete = [&](Tick t) { done = t; };
    // Enqueue later, from a scheduled event.
    eq.schedule(start + 100 * tp.t_ck_ps,
                [&ctrl, &hit] { ctrl.enqueue(std::move(hit)); });
    eq.run();
    // Hit latency: CAS + burst only (bank constraints long since
    // satisfied).
    EXPECT_EQ(done, start + (100 + tp.t_cl + tp.t_bl) * tp.t_ck_ps);
}

TEST(LatencyMath, PoolDeviceBiasPathExact)
{
    EventQueue eq;
    StatRegistry stats;
    PoolParams params;
    params.device_bias = true;
    params.packer.enabled = false;
    PoolFabric fabric("pool", eq, stats, params);

    // dimm(0,0) -> dimm(0,1), 60 B payload = one 64 B flit:
    // link up (2 ns serialise + 25 ns) + bus (0.25 ns + 15 ns)
    // + link down (2 ns + 25 ns).
    Tick arrive = 0;
    fabric.send(NodeId::dimmNode(0, 0), NodeId::dimmNode(0, 1),
                Bytes{60}, false, untenanted_id, 0,
                [&](Tick t) { arrive = t; });
    eq.run();
    const Tick link_ser = transferTime(Bytes{64}, 32.0);
    const Tick bus_ser = transferTime(Bytes{64}, 256.0);
    EXPECT_EQ(arrive, 2 * (link_ser + params.dimm_link.latency) +
                          bus_ser + params.switch_latency);
}

TEST(LatencyMath, PoolHostBiasAddsHostRoundTrip)
{
    EventQueue eq;
    StatRegistry stats;
    PoolParams params;
    params.device_bias = false;
    params.packer.enabled = false;
    PoolFabric fabric("pool", eq, stats, params);

    Tick arrive = 0;
    fabric.send(NodeId::dimmNode(0, 0), NodeId::dimmNode(0, 1),
                Bytes{60}, false, untenanted_id, 0,
                [&](Tick t) { arrive = t; });
    eq.run();
    const Tick link_ser = transferTime(Bytes{64}, 32.0);
    const Tick host_ser = transferTime(Bytes{64}, 64.0);
    const Tick bus_ser = transferTime(Bytes{64}, 256.0);
    const Tick expected =
        // dimm link up + bus + host link up
        link_ser + params.dimm_link.latency + bus_ser +
        params.switch_latency + host_ser +
        params.host_link.latency +
        // host coherence processing
        params.host_latency +
        // host link down + bus + dimm link down
        host_ser + params.host_link.latency + bus_ser +
        params.switch_latency + link_ser +
        params.dimm_link.latency;
    EXPECT_EQ(arrive, expected);
}

TEST(LatencyMath, DdrDimmToDimmExact)
{
    EventQueue eq;
    StatRegistry stats;
    DdrFabricParams params;
    DdrFabric fabric("ddr", eq, stats, params);

    Tick arrive = 0;
    fabric.send(NodeId::dimmNode(2, 0), NodeId::dimmNode(2, 1),
                Bytes{32}, true, untenanted_id, 0,
                [&](Tick t) { arrive = t; });
    eq.run();
    const Tick ser = transferTime(Bytes{32}, params.channel_gb_per_s);
    EXPECT_EQ(arrive, 2 * (ser + params.channel_latency) +
                          params.host_forward_latency);
}

TEST(LatencyMath, PackerTimeoutAddsExactStagingDelay)
{
    EventQueue eq;
    StatRegistry stats;
    PoolParams params;
    params.device_bias = true;
    params.packer.enabled = true;
    PoolFabric fabric("pool", eq, stats, params);

    Tick arrive = 0;
    // One lone fine-grained payload: waits out the flush timeout,
    // then takes the physical path as a single flit.
    fabric.send(NodeId::dimmNode(0, 0), NodeId::dimmNode(0, 1),
                Bytes{8}, true, untenanted_id, 0, [&](Tick t) { arrive = t; });
    eq.run();
    const Tick link_ser = transferTime(Bytes{64}, 32.0);
    const Tick bus_ser = transferTime(Bytes{64}, 256.0);
    EXPECT_EQ(arrive, params.packer.flush_timeout +
                          2 * (link_ser + params.dimm_link.latency) +
                          bus_ser + params.switch_latency);
}

} // namespace
} // namespace beacon
