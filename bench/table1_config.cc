/**
 * @file
 * Table I: the experimental configuration, as instantiated by this
 * reproduction (printed from the live preset structs so the table
 * cannot drift from the code).
 */

#include <cstdio>

#include "bench_util.hh"
#include "dram/timing.hh"

using namespace beacon;
using namespace beacon::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    rejectTelemetryFlags(opts, argv[0]);
    const BenchTimer timer;
    std::printf("=== Table I: experimental configuration ===\n\n");
    // No simulation runs: there are no sweep points to list or
    // filter, and the JSON carries the printed values as derived
    // scalars.
    SweepRunner runner;
    SweepReport report = makeReport("table1_config", runner);
    if (opts.list)
        return 0;

    std::printf("CPU baseline\n");
    std::printf("  processor/freq      Xeon E5-2680 v3 / 2.50 GHz "
                "(analytic model, 48 threads)\n\n");

    const SystemParams medal = SystemParams::medal();
    std::printf("MEDAL / NEST (DDR-DIMM NDP baselines)\n");
    std::printf("  channels x DIMMs    %u x %u (all customised)\n",
                medal.num_groups, medal.dimms_per_group);
    std::printf("  PEs per DIMM        %u\n", medal.pes_per_module);
    std::printf("  DDR channel         %.1f GB/s, %lu ns latency\n\n",
                medal.ddr.channel_gb_per_s,
                static_cast<unsigned long>(
                    medal.ddr.channel_latency / 1000));

    const SystemParams beacon_d = SystemParams::beaconD();
    std::printf("BEACON\n");
    std::printf("  CXL switches        %u, %u DIMMs each\n",
                beacon_d.num_groups, beacon_d.dimms_per_group);
    std::printf("  CXLG-DIMMs          %zu (BEACON-D), 0 "
                "(BEACON-S)\n",
                beacon_d.cxlg_dimms.size());
    std::printf("  PEs per NDP module  %u (BEACON-D), %u "
                "(BEACON-S)\n",
                beacon_d.pes_per_module,
                SystemParams::beaconS().pes_per_module);
    std::printf("  CXL DIMM link       %.1f GB/s per direction, "
                "%lu ns\n",
                beacon_d.pool.dimm_link.gb_per_s,
                static_cast<unsigned long>(
                    beacon_d.pool.dimm_link.latency / 1000));
    std::printf("  CXL host link       %.1f GB/s per direction, "
                "%lu ns\n\n",
                beacon_d.pool.host_link.gb_per_s,
                static_cast<unsigned long>(
                    beacon_d.pool.host_link.latency / 1000));

    const DimmGeometry geom;
    const DramTimingParams tp = DramTimingParams::ddr4_1600_22();
    std::printf("DIMM (both systems)\n");
    std::printf("  capacity            %llu GB (8 Gb x4 devices)\n",
                static_cast<unsigned long long>(
                    geom.capacityBytes() >> 30));
    std::printf("  ranks / chips       %u / %u per rank\n",
                geom.ranks, geom.chips_per_rank);
    std::printf("  bank groups/banks   %u / %u\n", geom.bank_groups,
                geom.banks_per_group);
    std::printf("  speed / timing      %.0f MT/s, %u-%u-%u\n",
                2e6 / double(tp.t_ck_ps), tp.t_cl, tp.t_rcd,
                tp.t_rp);

    report.derive("medal.channels", medal.num_groups);
    report.derive("medal.dimms_per_channel", medal.dimms_per_group);
    report.derive("medal.pes_per_dimm", medal.pes_per_module);
    report.derive("medal.ddr_channel_gbps", medal.ddr.channel_gb_per_s);
    report.derive("beacon.switches", beacon_d.num_groups);
    report.derive("beacon.dimms_per_switch", beacon_d.dimms_per_group);
    report.derive("beacon_d.cxlg_dimms",
                  double(beacon_d.cxlg_dimms.size()));
    report.derive("beacon_d.pes_per_module", beacon_d.pes_per_module);
    report.derive("beacon_s.pes_per_module",
                  SystemParams::beaconS().pes_per_module);
    report.derive("cxl.dimm_link_gbps", beacon_d.pool.dimm_link.gb_per_s);
    report.derive("cxl.host_link_gbps", beacon_d.pool.host_link.gb_per_s);
    report.derive("dimm.capacity_gb",
                  double(geom.capacityBytes() >> 30));
    emitJson(report, opts, timer);
    return 0;
}
