/**
 * @file
 * Example: a two-stage seeding pipeline on BEACON-D.
 *
 * Demonstrates the public API end to end for a realistic scenario:
 * build a reference index, simulate FM-index seeding and hash-index
 * seeding for the same read set on one machine configuration, and
 * inspect the statistics a deployment would monitor (per-DIMM row
 * hits, link traffic, energy split).
 *
 *   $ ./seeding_pipeline [genome_log2=17] [reads=512]
 */

#include <cstdio>
#include <cstdlib>

#include "accel/cpu_baseline.hh"
#include "accel/experiment.hh"
#include "accel/system.hh"
#include "accel/workload.hh"
#include "common/parse.hh"

using namespace beacon;

namespace
{

/** Largest accepted genome_log2: a human-scale (4 Gbase) reference. */
constexpr unsigned max_genome_log2 = 32;
constexpr std::size_t max_reads = std::size_t{1} << 20;

/** Report a bad positional argument and exit with rc=1. */
[[noreturn]] void
usageError(const char *arg, unsigned min_genome_log2)
{
    std::fprintf(stderr,
                 "invalid argument '%s'\n"
                 "usage: seeding_pipeline [genome_log2=17, %u..%u] "
                 "[reads=512, 1..%zu]\n",
                 arg, min_genome_log2, max_genome_log2, max_reads);
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    genomics::DatasetPreset preset = genomics::seedingPresets()[0];
    // The reference must hold at least one read.
    unsigned min_genome_log2 = 1;
    while ((std::size_t{1} << min_genome_log2) < preset.reads.read_length)
        ++min_genome_log2;

    unsigned genome_log2 = 17;
    if (argc > 1) {
        const auto parsed =
            parsePositive<unsigned>(argv[1], max_genome_log2);
        if (!parsed || *parsed < min_genome_log2)
            usageError(argv[1], min_genome_log2);
        genome_log2 = *parsed;
    }
    std::size_t num_reads = 512;
    if (argc > 2) {
        const auto parsed = parsePositive<std::size_t>(argv[2], max_reads);
        if (!parsed)
            usageError(argv[2], min_genome_log2);
        num_reads = *parsed;
    }
    preset.genome.length = std::size_t{1} << genome_log2;
    preset.reads.num_reads = num_reads;

    std::printf("reference: %zu bases, %zu reads of %zu bp\n",
                preset.genome.length, preset.reads.num_reads,
                preset.reads.read_length);

    std::printf("\n[1/2] FM-index seeding (BWA-MEM style)\n");
    FmSeedingWorkload fm(preset);
    {
        NdpSystem system(SystemParams::beaconD(), fm);
        const RunResult r = system.run(0);
        const CpuBaselineResult cpu = cpuBaseline(
            measureFootprint(fm, WorkloadContext{}));
        std::printf("  %zu reads seeded in %.1f us "
                    "(%.1fx over 48-thread CPU)\n",
                    std::size_t(r.tasks), r.seconds * 1e6,
                    cpu.seconds / r.seconds);
        std::printf("  DRAM row hits: %.0f, conflicts: %.0f\n",
                    system.stats().sumMatching("rowHits"),
                    system.stats().sumMatching("rowConflicts"));
        std::printf("  wire traffic: %.2f MB, energy: %.1f uJ "
                    "(%.0f%% communication)\n",
                    double(r.wire_bytes.value()) / 1e6,
                    r.energy.totalPj().value() * 1e-6,
                    100 * r.energy.commFraction());
    }

    std::printf("\n[2/2] Hash-index seeding (SMALT style)\n");
    HashSeedingWorkload hash(preset);
    {
        NdpSystem system(SystemParams::beaconD(), hash);
        const RunResult r = system.run(0);
        const CpuBaselineResult cpu = cpuBaseline(
            measureFootprint(hash, WorkloadContext{}));
        std::printf("  %zu reads seeded in %.1f us "
                    "(%.1fx over 48-thread CPU)\n",
                    std::size_t(r.tasks), r.seconds * 1e6,
                    cpu.seconds / r.seconds);
        std::printf("  hash index: %zu buckets, %zu KiB of "
                    "locations\n",
                    hash.index().numBuckets(),
                    hash.index().locationBytes() >> 10);
        std::printf("  wire traffic: %.2f MB, energy: %.1f uJ\n",
                    double(r.wire_bytes.value()) / 1e6,
                    r.energy.totalPj().value() * 1e-6);
    }
    return 0;
}
