/**
 * @file
 * Rack-scale subsystem tests: HDM decoder address-math properties
 * (decode/encode round-trips under randomized ways and granularities,
 * cross-host non-aliasing), pool-fabric node registration guards, the
 * memmgmt reservation / candidate-restricted evacuation primitives
 * the hot-plug path uses, and whole-rack runs — multi-host smoke and
 * hot-remove / hot-add / VCS rebind mid-run with clean finalize
 * checks.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "accel/system.hh"
#include "accel/workload.hh"
#include "check/checker_config.hh"
#include "common/rng.hh"
#include "memmgmt/framework.hh"
#include "rack/system.hh"

namespace beacon
{
namespace
{

using rack::HdmDecoded;
using rack::HdmDecoder;
using rack::HdmRange;
using rack::RackParams;
using rack::RackReport;
using rack::RackSystem;
using rack::SegmentParams;

// ---------------------------------------------------------------
// HdmDecoder address math
// ---------------------------------------------------------------

TEST(HdmDecoderTest, RoundTripsRandomizedWaysAndGranularities)
{
    Rng rng(42);
    for (unsigned iter = 0; iter < 64; ++iter) {
        const unsigned ways = 1 + unsigned(rng.next(4));
        const std::uint64_t gran = 64ull << rng.next(7); // 64..4096
        const std::uint64_t tiles = 1 + rng.next(64);
        HdmRange range;
        range.base = rng.next(1u << 20) * gran;
        range.size = Bytes{tiles * gran * ways};
        range.dpa_base = rng.next(1u << 20) * gran;
        range.ways = ways;
        range.granularity = Bytes{gran};
        for (unsigned w = 0; w < ways; ++w)
            range.targets.push_back(8 + w);
        HdmDecoder dec;
        dec.addRange(range);

        for (unsigned probe = 0; probe < 256; ++probe) {
            const std::uint64_t hpa =
                range.base + rng.next(range.size.value());
            const HdmDecoded d = dec.decode(hpa);
            // Granule g of the range lands on target g % ways.
            const std::uint64_t g = (hpa - range.base) / gran;
            EXPECT_EQ(d.way, unsigned(g % ways));
            EXPECT_EQ(d.target, range.targets[g % ways]);
            // encode() inverts decode() exactly.
            EXPECT_EQ(dec.encode(d.range, d.way, d.dpa), hpa)
                << "ways=" << ways << " gran=" << gran
                << " hpa=" << hpa;
        }
    }
}

TEST(HdmDecoderTest, ForEachGranuleCoversSpanInAddressOrder)
{
    HdmRange range;
    range.base = 4096;
    range.size = Bytes{8 * 256 * 2};
    range.dpa_base = 0;
    range.ways = 2;
    range.granularity = Bytes{256};
    range.targets = {8, 9};
    HdmDecoder dec;
    dec.addRange(range);

    std::uint64_t covered = 0, expect_at = 4096 + 100;
    std::uint64_t at = expect_at;
    dec.forEachGranule(at, Bytes{1000},
                       [&](const HdmDecoded &d, Bytes bytes) {
                           EXPECT_EQ(dec.encode(d.range, d.way, d.dpa),
                                     expect_at);
                           // Pieces never straddle a granule.
                           EXPECT_LE((expect_at % 256) + bytes.value(),
                                     256u);
                           expect_at += bytes.value();
                           covered += bytes.value();
                       });
    EXPECT_EQ(covered, 1000u);
}

TEST(HdmDecoderTest, NoTwoHostsAliasTheSameDeviceAddress)
{
    // Two hosts interleaving over the SAME targets, with the rack's
    // disjoint-DPA-window construction: no (target, dpa) pair may be
    // reachable from both.
    const std::uint64_t window = 1u << 20;
    HdmDecoder host0, host1;
    for (unsigned h = 0; h < 2; ++h) {
        HdmRange range;
        range.base = h * window;
        range.size = Bytes{window};
        range.dpa_base = h * window;
        range.ways = 2;
        range.granularity = Bytes{256};
        range.targets = {8, 9};
        (h == 0 ? host0 : host1).addRange(range);
    }
    Rng rng(7);
    std::set<std::pair<unsigned, std::uint64_t>> seen;
    for (unsigned probe = 0; probe < 4096; ++probe) {
        const HdmDecoded a = host0.decode(rng.next(window));
        const HdmDecoded b = host1.decode(window + rng.next(window));
        seen.insert({a.target, a.dpa});
        EXPECT_EQ(seen.count({b.target, b.dpa}), 0u)
            << "host1 aliases host0 at dpa " << b.dpa;
    }
}

TEST(HdmDecoderDeathTest, RejectsBadProgramming)
{
    HdmDecoder dec;
    HdmRange range;
    range.base = 0;
    range.size = Bytes{512};
    range.ways = 2;
    range.granularity = Bytes{96}; // not a power of two
    range.targets = {8, 9};
    EXPECT_DEATH(dec.addRange(range), "power of two");

    range.granularity = Bytes{128};
    range.size = Bytes{384}; // does not tile 2 * 128
    EXPECT_DEATH(dec.addRange(range), "tile");

    range.size = Bytes{512};
    dec.addRange(range);
    HdmRange overlap = range;
    overlap.base = 256; // overlaps [0, 512)
    EXPECT_DEATH(dec.addRange(overlap), "overlaps");
    EXPECT_DEATH(dec.decode(4096), "no HDM range");
}

// ---------------------------------------------------------------
// PoolFabric registration guards
// ---------------------------------------------------------------

TEST(RackFabricDeathTest, DuplicateAndUnregisteredNodesAreFatal)
{
    SystemParams params = SystemParams::beaconD();
    NdpSystem system(params);
    PoolFabric &fabric = system.poolFabric();

    // The constructor registered the built-in nodes already.
    EXPECT_TRUE(fabric.isRegistered(NodeId::host()));
    EXPECT_TRUE(fabric.isRegistered(system.dimmNodeId(0)));
    EXPECT_DEATH(fabric.registerNode(NodeId::host()),
                 "duplicate fabric registration");

    const NodeId extra = NodeId::hostNode(3);
    EXPECT_FALSE(fabric.isRegistered(extra));
    fabric.registerNode(extra);
    EXPECT_DEATH(fabric.registerNode(extra),
                 "duplicate fabric registration");
    fabric.unregisterNode(extra);
    EXPECT_FALSE(fabric.isRegistered(extra));
    EXPECT_DEATH(fabric.unregisterNode(extra),
                 "unknown fabric node");
}

// ---------------------------------------------------------------
// memmgmt primitives the hot-plug path relies on
// ---------------------------------------------------------------

TEST(RackMemmgmtTest, ReserveReleaseAndCandidateEvacuation)
{
    SystemParams params = SystemParams::beaconD();
    NdpSystem system(params);
    MemoryFramework &fw = system.memoryFramework();

    const Bytes chunk{1u << 20};
    std::string err;
    ASSERT_TRUE(fw.reserveOn("rack.test", 0, chunk, &err)) << err;
    EXPECT_EQ(fw.appBytesOn("rack.test", 0), chunk);
    EXPECT_EQ(fw.appBytesOn("rack.test", 1), Bytes{});

    // Candidate-restricted evacuation: everything must land on 2.
    std::vector<RegionMove> moves;
    const std::vector<unsigned> candidates{2};
    ASSERT_TRUE(fw.evacuate(0, &moves, &err, &candidates)) << err;
    Bytes moved;
    for (const RegionMove &mv : moves) {
        EXPECT_EQ(mv.from, 0u);
        EXPECT_EQ(mv.to, 2u);
        moved += mv.bytes;
    }
    EXPECT_GE(moved, chunk);
    EXPECT_EQ(fw.appBytesOn("rack.test", 0), Bytes{});
    EXPECT_GE(fw.appBytesOn("rack.test", 2), chunk);
    EXPECT_TRUE(fw.releaseOn("rack.test", 2));
}

// ---------------------------------------------------------------
// Whole-rack runs
// ---------------------------------------------------------------

const HashSeedingWorkload &
rackWorkload()
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

RackParams
smallRack(unsigned hosts, bool checkers)
{
    RackParams p;
    p.hosts = hosts;
    p.switch_levels = 1;
    p.interleave_ways = 2;
    p.hdm_bytes_per_host = Bytes{1u << 20};
    SegmentParams seg;
    seg.name = "reference";
    seg.bytes = Bytes{1u << 16};
    seg.owner_dimm = 8; // first expansion DIMM of the BEACON-D base
    p.segments.push_back(seg);
    if (checkers)
        p.base.checkers = CheckerConfig::all();
    return p;
}

void
addRackTenants(RackSystem &rack, unsigned jobs_per_host = 3)
{
    for (unsigned h = 0; h < rack.numHosts(); ++h) {
        TenantSpec spec;
        spec.name = "host" + std::to_string(h) + ".t0";
        spec.workload = &rackWorkload();
        spec.num_jobs = jobs_per_host;
        spec.tasks_per_job = 2;
        spec.arrival.concurrency = 2;
        ASSERT_NE(rack.addTenant(h, spec), untenanted_id);
    }
}

TEST(RackSystemTest, TwoHostsShareThePoolAndASegment)
{
    RackSystem rack(smallRack(2, /*checkers=*/true));
    EXPECT_EQ(rack.expansionDimms().size(), 4u);
    EXPECT_TRUE(rack.online(8));
    // Round-robin binding: 8,10 -> host 0; 9,11 -> host 1.
    EXPECT_EQ(rack.boundHost(8), 0u);
    EXPECT_EQ(rack.boundHost(9), 1u);
    EXPECT_EQ(rack.decoder(0).range(0).targets,
              (std::vector<unsigned>{8, 10}));
    EXPECT_EQ(rack.decoder(1).range(0).targets,
              (std::vector<unsigned>{9, 11}));

    addRackTenants(rack);
    const RackReport report = rack.run();

    ASSERT_EQ(report.hosts.size(), 2u);
    for (const ServiceReport &host : report.hosts) {
        ASSERT_EQ(host.tenants.size(), 1u);
        EXPECT_EQ(host.tenants[0].jobs_completed, 3u);
    }
    EXPECT_GT(report.ingress_bytes, Bytes{});
    // Both hosts touched the shared segment: cold misses, then hits.
    EXPECT_GT(report.cache_misses, 0u);
    EXPECT_GT(report.cache_hits, 0u);
    EXPECT_GT(report.pool_utilization, 0.0);
    EXPECT_EQ(report.hot_adds + report.hot_removes + report.rebinds,
              0u);
}

TEST(RackSystemTest, SegmentWritesBackInvalidateSharers)
{
    RackParams p = smallRack(2, /*checkers=*/true);
    p.segment_write_every = 2; // write-heavy: force BI traffic
    RackSystem rack(p);
    addRackTenants(rack, /*jobs_per_host=*/4);
    const RackReport report = rack.run();
    EXPECT_GT(report.bi_flits, 0u);
    EXPECT_GT(report.invalidations, 0u);
}

TEST(RackSystemTest, HotRemoveMidRunMigratesAndCompletes)
{
    RackParams p = smallRack(2, /*checkers=*/true);
    RackSystem rack(p);
    addRackTenants(rack, /*jobs_per_host=*/4);
    // DIMM 9 holds host 1's HDM share and is removed mid-run; its
    // regions must migrate to the surviving expanders.
    rack.scheduleHotRemove(Tick{400000}, 9);
    const RackReport report = rack.run();

    EXPECT_EQ(report.hot_removes, 1u);
    EXPECT_GT(report.migrated_bytes, Bytes{});
    EXPECT_FALSE(rack.online(9));
    for (unsigned h = 0; h < 2; ++h) {
        for (unsigned target : rack.decoder(h).range(0).targets)
            EXPECT_NE(target, 9u);
    }
    for (const ServiceReport &host : report.hosts)
        EXPECT_EQ(host.tenants[0].jobs_completed, 4u);
}

TEST(RackSystemTest, HotRemoveRehomesOwnedSegment)
{
    RackParams p = smallRack(2, /*checkers=*/true);
    RackSystem rack(p);
    addRackTenants(rack, /*jobs_per_host=*/4);
    // DIMM 8 owns the shared segment; removing it must re-home the
    // directory and stream the segment to a surviving expander.
    rack.scheduleHotRemove(Tick{400000}, 8);
    const RackReport report = rack.run();
    EXPECT_EQ(report.hot_removes, 1u);
    EXPECT_NE(rack.segment(0).owner(), 8u);
    EXPECT_TRUE(rack.online(rack.segment(0).owner()));
    EXPECT_GE(report.migrated_bytes, Bytes{1u << 16});
    for (const ServiceReport &host : report.hosts)
        EXPECT_EQ(host.tenants[0].jobs_completed, 4u);
}

TEST(RackSystemTest, HotAddAndRebindReshapeTheDecoders)
{
    RackParams p = smallRack(2, /*checkers=*/true);
    RackSystem rack(p);
    addRackTenants(rack, /*jobs_per_host=*/4);
    rack.scheduleHotRemove(Tick{300000}, 11);
    rack.scheduleHotAdd(Tick{600000}, 11);
    rack.scheduleRebind(Tick{900000}, 10, /*new_host=*/1);
    const RackReport report = rack.run();

    EXPECT_EQ(report.hot_removes, 1u);
    EXPECT_EQ(report.hot_adds, 1u);
    EXPECT_EQ(report.rebinds, 1u);
    EXPECT_TRUE(rack.online(11));
    EXPECT_EQ(rack.boundHost(10), 1u);
    for (const ServiceReport &host : report.hosts)
        EXPECT_EQ(host.tenants[0].jobs_completed, 4u);
}

TEST(RackSystemTest, EightHostsAcrossTwoSwitchLevels)
{
    RackParams p = smallRack(8, /*checkers=*/true);
    p.switch_levels = 2;
    RackSystem rack(p);
    // 8 hosts over 4 expanders: hosts 4..7 fall back to whole-pool
    // interleave; nothing may alias (checkers + conservation verify).
    addRackTenants(rack, /*jobs_per_host=*/2);
    const RackReport report = rack.run();
    ASSERT_EQ(report.hosts.size(), 8u);
    for (const ServiceReport &host : report.hosts)
        EXPECT_EQ(host.tenants[0].jobs_completed, 2u);
    EXPECT_GT(report.pool_utilization, 0.0);
}

} // namespace
} // namespace beacon
