/**
 * @file
 * Tests for the host-mastered DDR-channel fabric used by the
 * MEDAL/NEST baselines: channel occupancy, the double-hop
 * DIMM-to-DIMM path, granule rounding, and idealized mode.
 */

#include <gtest/gtest.h>

#include "accel/ddr_fabric.hh"

namespace beacon
{
namespace
{

struct DdrHarness
{
    EventQueue eq;
    StatRegistry stats;
    std::unique_ptr<DdrFabric> fabric;

    explicit DdrHarness(bool ideal = false)
    {
        DdrFabricParams params;
        params.num_channels = 4;
        params.dimms_per_channel = 2;
        params.ideal = ideal;
        fabric = std::make_unique<DdrFabric>("ddr", eq, stats,
                                             params);
    }

    Tick
    transfer(NodeId a, NodeId b, Bytes bytes)
    {
        Tick arrive = 0;
        fabric->send(a, b, bytes, true, untenanted_id, 0,
        [&](Tick t) { arrive = t; });
        eq.run();
        return arrive;
    }
};

TEST(DdrFabric, HostToDimmSingleChannelHop)
{
    DdrHarness h;
    const Tick t =
        h.transfer(NodeId::host(), NodeId::dimmNode(1, 0),
                   Bytes{32});
    // 32 B at 12.8 GB/s = 2.5 ns + 30 ns channel latency.
    EXPECT_EQ(t, 2500u + 30000u);
    EXPECT_EQ(h.fabric->channelBytes(1), Bytes{32});
    EXPECT_EQ(h.fabric->channelBytes(0), Bytes{});
}

TEST(DdrFabric, DimmToDimmStoreForwardsThroughHost)
{
    DdrHarness h;
    const Tick t = h.transfer(NodeId::dimmNode(0, 0),
                              NodeId::dimmNode(0, 1), Bytes{32});
    // Two channel hops plus the host store-forward latency.
    EXPECT_EQ(t, 2u * (2500u + 30000u) + 50000u);
    // Same channel carries the message twice.
    EXPECT_EQ(h.fabric->channelBytes(0), Bytes{64});
}

TEST(DdrFabric, CrossChannelChargesBothChannels)
{
    DdrHarness h;
    h.transfer(NodeId::dimmNode(0, 0), NodeId::dimmNode(3, 1),
               Bytes{32});
    EXPECT_EQ(h.fabric->channelBytes(0), Bytes{32});
    EXPECT_EQ(h.fabric->channelBytes(3), Bytes{32});
    EXPECT_EQ(h.fabric->totalWireBytes(), Bytes{64});
}

TEST(DdrFabric, PayloadsRoundUpToGranule)
{
    DdrHarness h;
    h.transfer(NodeId::host(), NodeId::dimmNode(0, 0), Bytes{1});
    EXPECT_EQ(h.fabric->channelBytes(0), Bytes{32})
        << "32 B granule";
    h.transfer(NodeId::host(), NodeId::dimmNode(0, 0), Bytes{33});
    EXPECT_EQ(h.fabric->channelBytes(0), Bytes{32 + 64});
}

TEST(DdrFabric, SelfSendIsFree)
{
    DdrHarness h;
    const Tick t = h.transfer(NodeId::dimmNode(2, 1),
                              NodeId::dimmNode(2, 1), Bytes{64});
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(h.fabric->totalWireBytes(), Bytes{});
}

TEST(DdrFabric, ChannelContentionSerialises)
{
    DdrHarness h;
    Tick first = 0, second = 0;
    h.fabric->send(NodeId::host(), NodeId::dimmNode(0, 0),
                   Bytes{6400}, true, untenanted_id, 0,
                   [&](Tick t) { first = t; });
    h.fabric->send(NodeId::host(), NodeId::dimmNode(0, 1), Bytes{64},
                   true, untenanted_id, 0, [&](Tick t) { second = t; });
    h.eq.run();
    EXPECT_GT(second, first - 30000)
        << "the second message queues behind the first";
}

TEST(DdrFabric, IdealModeInstantAndUncounted)
{
    DdrHarness h(true);
    const Tick t = h.transfer(NodeId::dimmNode(0, 0),
                              NodeId::dimmNode(3, 1), Bytes{1 << 20});
    EXPECT_EQ(t, 0u);
    // Bytes still counted (energy accounting zeroes them instead).
    EXPECT_GT(h.fabric->totalWireBytes(), Bytes{});
}

TEST(DdrFabricDeath, SwitchNodesRejected)
{
    DdrHarness h;
    EXPECT_DEATH(h.fabric->send(NodeId::switchNode(0),
                                NodeId::dimmNode(0, 0), Bytes{64},
                                true, untenanted_id, 0, [](Tick) {}),
                 "no switches");
}

} // namespace
} // namespace beacon
