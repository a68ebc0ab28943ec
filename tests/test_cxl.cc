/**
 * @file
 * Tests for the CXL fabric substrate: bandwidth server occupancy,
 * links, the Data Packer, and PoolFabric routing (device vs host
 * bias, cross-switch paths, idealized mode).
 */

#include <gtest/gtest.h>

#include <memory>

#include "cxl/bandwidth_server.hh"
#include "cxl/data_packer.hh"
#include "cxl/link.hh"
#include "cxl/pool.hh"
#include "dram/controller.hh"
#include "obs/request_trace.hh"

namespace beacon
{
namespace
{

TEST(BandwidthServer, SerialisesBackToBack)
{
    BandwidthServer server(32.0); // 32 GB/s
    const Tick end1 = server.accept(0, Bytes{64});
    EXPECT_EQ(end1, 2000u); // 64 B / 32 GB/s = 2 ns
    const Tick end2 = server.accept(0, Bytes{64});
    EXPECT_EQ(end2, 4000u); // queues behind the first
    const Tick end3 = server.accept(10000, Bytes{64});
    EXPECT_EQ(end3, 12000u); // idle gap then service
    EXPECT_EQ(server.totalBytes(), Bytes{192});
    EXPECT_EQ(server.totalTransfers(), 3u);
}

TEST(BandwidthServer, IdealModeIsInstant)
{
    BandwidthServer server(-1.0);
    EXPECT_TRUE(server.ideal());
    EXPECT_EQ(server.accept(123, Bytes{1 << 20}), 123u);
}

TEST(CxlLink, DirectionsAreIndependent)
{
    EventQueue eq;
    StatRegistry stats;
    LinkParams params{32.0, 25000, false};
    CxlLink link("link", eq, stats, params);

    Tick down_arrival = 0, up_arrival = 0;
    link.send(LinkDir::Downstream, Bytes{64},
              [&](Tick t) { down_arrival = t; });
    link.send(LinkDir::Upstream, Bytes{64},
              [&](Tick t) { up_arrival = t; });
    eq.run();
    // Both see serialisation (2 ns) + latency (25 ns), no queueing
    // across directions.
    EXPECT_EQ(down_arrival, 27000u);
    EXPECT_EQ(up_arrival, 27000u);
    EXPECT_EQ(link.totalBytes(), Bytes{128});
}

TEST(CxlLink, QueueingWithinDirection)
{
    EventQueue eq;
    StatRegistry stats;
    CxlLink link("link", eq, stats, LinkParams{32.0, 25000, false});
    Tick first = 0, second = 0;
    link.send(LinkDir::Downstream, Bytes{6400},
              [&](Tick t) { first = t; });
    link.send(LinkDir::Downstream, Bytes{64},
              [&](Tick t) { second = t; });
    eq.run();
    EXPECT_GT(second, first - 25000); // second waited for the first
    EXPECT_EQ(first, 200000u + 25000u);
}

TEST(DataPacker, DisabledSendsFullFlits)
{
    EventQueue eq;
    PackerParams params;
    params.enabled = false;
    std::uint64_t sent_bytes = 0;
    unsigned flushes = 0;
    DataPacker packer(eq, params,
                      [&](Bytes wire, DataPacker::Batch batch) {
                          sent_bytes += wire.value();
                          flushes += unsigned(batch.size());
                          for (auto &payload : batch)
                              payload.deliver(eq.now());
                      });
    int delivered = 0;
    for (int i = 0; i < 4; ++i)
        packer.submit(Bytes{8}, true, 0, [&](Tick) { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 4);
    EXPECT_EQ(sent_bytes, 4u * 64u); // one flit each
}

TEST(DataPacker, PacksFineGrainedPayloads)
{
    EventQueue eq;
    PackerParams params; // enabled, 64 B flits, 4 B headers
    std::uint64_t sent_bytes = 0;
    DataPacker packer(eq, params,
                      [&](Bytes wire, DataPacker::Batch batch) {
                          sent_bytes += wire.value();
                          for (auto &payload : batch)
                              payload.deliver(eq.now());
                      });
    int delivered = 0;
    // 5 x (8+4) = 60 B staged; the 6th crosses 64 B and flushes.
    for (int i = 0; i < 6; ++i)
        packer.submit(Bytes{8}, true, 0, [&](Tick) { ++delivered; });
    EXPECT_EQ(delivered, 6);
    EXPECT_EQ(sent_bytes, 128u); // 72 B rounded up to 2 flits
    EXPECT_EQ(packer.packedMessages(), 6u);
}

TEST(DataPacker, TimeoutFlushesPartialFlit)
{
    EventQueue eq;
    PackerParams params;
    std::uint64_t sent_bytes = 0;
    DataPacker packer(eq, params,
                      [&](Bytes wire, DataPacker::Batch batch) {
                          sent_bytes += wire.value();
                          for (auto &payload : batch)
                              payload.deliver(eq.now());
                      });
    Tick delivered_at = 0;
    packer.submit(Bytes{8}, true, 0,
                  [&](Tick t) { delivered_at = t; });
    EXPECT_EQ(packer.pendingCount(), 1u);
    eq.run();
    EXPECT_EQ(delivered_at, params.flush_timeout);
    EXPECT_EQ(sent_bytes, 64u);
    EXPECT_EQ(packer.pendingCount(), 0u);
}

TEST(DataPacker, CoarsePayloadBypassesStaging)
{
    EventQueue eq;
    PackerParams params;
    std::uint64_t sent_bytes = 0;
    DataPacker packer(eq, params,
                      [&](Bytes wire, DataPacker::Batch batch) {
                          sent_bytes += wire.value();
                          for (auto &payload : batch)
                              payload.deliver(eq.now());
                      });
    int delivered = 0;
    packer.submit(Bytes{256}, false, 0, [&](Tick) { ++delivered; });
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(sent_bytes, 320u); // 260 B framed -> 5 flits
    EXPECT_EQ(packer.unpackedMessages(), 1u);
}

struct PoolHarness
{
    EventQueue eq;
    StatRegistry stats;
    std::unique_ptr<PoolFabric> fabric;

    explicit PoolHarness(bool device_bias, bool packing = false,
                         bool ideal = false)
    {
        PoolParams params;
        params.num_switches = 2;
        params.dimms_per_switch = 4;
        params.device_bias = device_bias;
        params.packer.enabled = packing;
        params.ideal = ideal;
        fabric = std::make_unique<PoolFabric>("pool", eq, stats,
                                              params);
    }

    Tick
    roundTrip(NodeId a, NodeId b, Bytes bytes)
    {
        Tick arrive = 0;
        fabric->send(a, b, bytes, false, untenanted_id, 0,
                     [&](Tick t) { arrive = t; });
        eq.run();
        return arrive;
    }
};

TEST(PoolFabric, DeviceBiasSkipsHostForSameSwitch)
{
    PoolHarness biased(true);
    PoolHarness naive(false);
    const NodeId a = NodeId::dimmNode(0, 0);
    const NodeId b = NodeId::dimmNode(0, 1);
    const Tick t_biased = biased.roundTrip(a, b, Bytes{64});
    const Tick t_naive = naive.roundTrip(a, b, Bytes{64});
    EXPECT_LT(t_biased, t_naive);
    EXPECT_EQ(biased.fabric->hostLinkBytes(), Bytes{});
    EXPECT_GT(naive.fabric->hostLinkBytes(), Bytes{});
    EXPECT_EQ(biased.fabric->hostRoundTrips(), 0u);
    EXPECT_EQ(naive.fabric->hostRoundTrips(), 1u);
}

TEST(PoolFabric, CrossSwitchUsesHostLinksInBothModes)
{
    PoolHarness biased(true);
    const NodeId a = NodeId::dimmNode(0, 0);
    const NodeId b = NodeId::dimmNode(1, 2);
    biased.roundTrip(a, b, Bytes{64});
    EXPECT_GT(biased.fabric->hostLinkBytes(), Bytes{});
    // Device bias avoids the full coherence stall even cross-switch.
    EXPECT_EQ(biased.fabric->hostRoundTrips(), 0u);
}

TEST(PoolFabric, SwitchLogicPathsTouchOneBusOnly)
{
    PoolHarness h(true);
    const NodeId sw = NodeId::switchNode(0);
    const NodeId d = NodeId::dimmNode(0, 3);
    // 60 B payload + 4 B header = exactly one 64 B flit.
    h.roundTrip(sw, d, Bytes{60});
    EXPECT_EQ(h.fabric->switchBusBytes(), Bytes{64});
    EXPECT_EQ(h.fabric->dimmLinkBytes(), Bytes{64});
    EXPECT_EQ(h.fabric->hostLinkBytes(), Bytes{});
}

TEST(PoolFabric, SameSwitchDimmToDimmBusOnce)
{
    PoolHarness h(true);
    h.roundTrip(NodeId::dimmNode(0, 0), NodeId::dimmNode(0, 1),
                Bytes{60});
    EXPECT_EQ(h.fabric->switchBusBytes(), Bytes{64});
    EXPECT_EQ(h.fabric->dimmLinkBytes(), Bytes{128}); // up + down
}

TEST(PoolFabric, HostBiasSameSwitchBusTwice)
{
    PoolHarness h(false);
    h.roundTrip(NodeId::dimmNode(0, 0), NodeId::dimmNode(0, 1),
                Bytes{60});
    EXPECT_EQ(h.fabric->switchBusBytes(), Bytes{128});
    EXPECT_EQ(h.fabric->hostLinkBytes(), Bytes{128}); // up + down
}

TEST(PoolFabric, HostToDimmNeverCountsCoherenceTrip)
{
    PoolHarness h(false);
    h.roundTrip(NodeId::host(), NodeId::dimmNode(1, 1), Bytes{64});
    EXPECT_EQ(h.fabric->hostRoundTrips(), 0u);
    EXPECT_GT(h.fabric->hostLinkBytes(), Bytes{});
}

TEST(PoolFabric, IdealModeZeroLatency)
{
    PoolHarness h(false, false, true);
    const Tick t = h.roundTrip(NodeId::dimmNode(0, 0),
                               NodeId::dimmNode(1, 3), Bytes{4096});
    EXPECT_EQ(t, 0u);
}

TEST(PoolFabric, SelfSendDeliversImmediately)
{
    PoolHarness h(true);
    const Tick t = h.roundTrip(NodeId::dimmNode(0, 2),
                               NodeId::dimmNode(0, 2), Bytes{64});
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(h.fabric->totalWireBytes(), Bytes{});
}

TEST(PoolFabric, PackingReducesWireBytes)
{
    PoolHarness packed(true, true);
    PoolHarness plain(true, false);
    const NodeId a = NodeId::dimmNode(0, 0);
    const NodeId b = NodeId::dimmNode(0, 1);
    int remaining = 2 * 16;
    for (int i = 0; i < 16; ++i) {
        packed.fabric->send(a, b, Bytes{8}, true, untenanted_id, 0,
                            [&](Tick) { --remaining; });
        plain.fabric->send(a, b, Bytes{8}, true, untenanted_id, 0,
                           [&](Tick) { --remaining; });
    }
    packed.eq.run();
    plain.eq.run();
    EXPECT_EQ(remaining, 0);
    EXPECT_LT(packed.fabric->totalWireBytes(),
              plain.fabric->totalWireBytes());
}

TEST(PoolFabric, PackerStreamsAreDestinationIsolated)
{
    // Payloads to different destinations must not share flits (a
    // packed flit travels one route); per-destination streams each
    // round up separately.
    PoolHarness h(true, true);
    const NodeId src = NodeId::dimmNode(0, 0);
    int remaining = 2;
    // Two 8 B payloads to two different DIMMs: 2 flits, not 1.
    h.fabric->send(src, NodeId::dimmNode(0, 1), Bytes{8}, true,
                   untenanted_id, 0, [&](Tick) { --remaining; });
    h.fabric->send(src, NodeId::dimmNode(0, 2), Bytes{8}, true,
                   untenanted_id, 0, [&](Tick) { --remaining; });
    h.eq.run();
    EXPECT_EQ(remaining, 0);
    EXPECT_EQ(h.fabric->dimmLinkBytes(), Bytes{4 * 64})
        << "one flit up + one down per destination stream";
}

TEST(PoolFabric, PackedBatchDeliversAllPayloadsTogether)
{
    PoolHarness h(true, true);
    const NodeId src = NodeId::dimmNode(0, 0);
    const NodeId dst = NodeId::dimmNode(0, 1);
    std::vector<Tick> arrivals;
    for (int i = 0; i < 5; ++i) {
        h.fabric->send(src, dst, Bytes{8}, true, untenanted_id, 0,
                       [&](Tick t) { arrivals.push_back(t); });
    }
    h.eq.run();
    ASSERT_EQ(arrivals.size(), 5u);
    for (Tick t : arrivals)
        EXPECT_EQ(t, arrivals.front())
            << "payloads sharing a flit arrive together";
}

TEST(DataPacker, PartialBatchDrainsWhenQueueRuns)
{
    EventQueue eq;
    PackerParams params; // enabled, 64 B flits, 4 B headers
    std::uint64_t sent_bytes = 0;
    DataPacker packer(eq, params,
                      [&](Bytes wire, DataPacker::Batch batch) {
                          sent_bytes += wire.value();
                          for (auto &payload : batch)
                              payload.deliver(eq.now());
                      });
    int delivered = 0;
    // 3 x (8+4) = 36 B stay below the 64 B flit boundary, so only
    // the flush timeout can move this batch.
    for (int i = 0; i < 3; ++i)
        packer.submit(Bytes{8}, true, 0, [&](Tick) { ++delivered; });
    EXPECT_EQ(packer.pendingCount(), 3u);
    eq.run();
    EXPECT_EQ(delivered, 3);
    EXPECT_EQ(sent_bytes, 64u);
    EXPECT_EQ(packer.pendingCount(), 0u);
    EXPECT_EQ(packer.flitsFlushed(), 1u);
}

TEST(PoolFabricDeath, FinalizeCatchesStrandedPackerPayload)
{
    // Ending a run while a partially filled batch is still staged
    // (the event queue was never drained, so the flush timeout did
    // not fire) must be flagged, not silently dropped.
    PoolHarness h(true, /*packing=*/true);
    h.fabric->send(NodeId::dimmNode(0, 0), NodeId::dimmNode(0, 1),
                   Bytes{8}, true, untenanted_id, 0, [](Tick) {});
    EXPECT_DEATH(h.fabric->finalizeCheck(), "stranded");
}

TEST(PoolFabric, FinalizePassesAfterQueueDrains)
{
    PoolHarness h(true, /*packing=*/true);
    int delivered = 0;
    h.fabric->send(NodeId::dimmNode(0, 0), NodeId::dimmNode(0, 1),
                   Bytes{8}, true, untenanted_id, 0,
                   [&](Tick) { ++delivered; });
    h.eq.run();
    EXPECT_EQ(delivered, 1);
    h.fabric->finalizeCheck(); // packers drained: no panic
}

TEST(PoolFabric, PackedFlitAttributesEachRidingJobOncePerHop)
{
    // Four fine payloads share one flit on a cross-switch route: two
    // of job 1, one of job 2 and one without a job. The flit's seven
    // hops (DIMM link, bus and host link up, host forwarding, host
    // link, bus and DIMM link down) must each give jobs 1 and 2
    // exactly one Link or Switch span.
    PoolHarness h(true, /*packing=*/true);
    obs::RequestTrace rt(h.eq);
    h.eq.setRequestTrace(&rt);
    rt.jobBegin(1, 0);
    rt.jobBegin(2, 0);
    int delivered = 0;
    for (const std::uint64_t job : {1, 2, 0, 1}) {
        h.fabric->send(NodeId::dimmNode(0, 0), NodeId::dimmNode(1, 2),
                       Bytes{8}, true, untenanted_id, job,
                       [&delivered](Tick) { ++delivered; });
    }
    h.eq.run();
    ASSERT_EQ(delivered, 4);
    EXPECT_EQ(h.fabric->dimmLinkBytes(), Bytes{2 * 64})
        << "one flit up and one down";
    rt.jobEnd(1);
    rt.jobEnd(2);

    ASSERT_EQ(rt.records().size(), 2u);
    const Tick staging = PackerParams{}.flush_timeout;
    for (const obs::JobRecord &rec : rt.records()) {
        EXPECT_EQ(rec.n_spans, 7u) << "job " << rec.job;
        // The hops are back to back: everything after the packer's
        // staging delay is Link or Switch time.
        const auto comp = [&rec](obs::SpanKind kind) {
            return rec.comp[std::size_t(kind)];
        };
        EXPECT_EQ(comp(obs::SpanKind::Queue), staging);
        EXPECT_GT(comp(obs::SpanKind::Link), 0u);
        EXPECT_GT(comp(obs::SpanKind::Switch), 0u);
        EXPECT_EQ(comp(obs::SpanKind::Link) +
                      comp(obs::SpanKind::Switch),
                  rec.latency() - staging);
    }
}

TEST(PoolFabric, CompletionOwnsMoveOnlyStateThroughHopsAndDram)
{
    // A completion may own move-only state: it rides a 7-hop
    // cross-switch send, then moves on into a DRAM request.
    PoolHarness h(true);
    DramControllerParams dram_params;
    dram_params.enable_refresh = false;
    DramController ctrl("dimm", h.eq, h.stats, DimmGeometry{},
                        DramTimingParams::ddr4_1600_22(), dram_params);
    auto token = std::make_unique<int>(7);
    Tick arrived = 0, dram_done = 0;
    int seen = 0;
    h.fabric->send(
        NodeId::dimmNode(0, 0), NodeId::dimmNode(1, 2), Bytes{60},
        false, untenanted_id, 0,
        [&, token = std::move(token)](Tick t) mutable {
            arrived = t;
            MemRequest req;
            req.bytes = Bytes{32};
            req.on_complete = [&, token = std::move(token)](Tick d) {
                dram_done = d;
                seen = *token;
            };
            ctrl.enqueue(std::move(req));
        });
    h.eq.run();
    EXPECT_EQ(seen, 7);
    EXPECT_GT(arrived, 0u);
    EXPECT_GT(dram_done, arrived);
    // 60 B + 4 B header = one flit over each of the seven hops.
    EXPECT_EQ(h.fabric->dimmLinkBytes(), Bytes{2 * 64});
    EXPECT_EQ(h.fabric->switchBusBytes(), Bytes{2 * 64});
    EXPECT_EQ(h.fabric->hostLinkBytes(), Bytes{2 * 64});
}

TEST(NodeIdTest, KeysAndStrings)
{
    EXPECT_TRUE(NodeId::host().isHost());
    EXPECT_EQ(NodeId::dimmNode(1, 2).str(), "dimm1.2");
    EXPECT_EQ(NodeId::switchNode(3).str(), "switch3");
    EXPECT_NE(NodeId::dimmNode(0, 1).key(),
              NodeId::dimmNode(1, 0).key());
    EXPECT_NE(NodeId::switchNode(0).key(), NodeId::host().key());
    EXPECT_EQ(NodeId::dimmNode(2, 3), NodeId::dimmNode(2, 3));
}

} // namespace
} // namespace beacon
