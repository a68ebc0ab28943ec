/**
 * @file
 * google-benchmark microbenchmarks of the substrate components: DRAM
 * controller scheduling, pool fabric routing, Data Packer, FM-index
 * search, counting Bloom filter, and suffix-array construction.
 * These measure the simulator's own performance (host-side), which
 * bounds how large an experiment the benches can run.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "cxl/pool.hh"
#include "dram/controller.hh"
#include "genomics/bloom.hh"
#include "genomics/fm_index.hh"
#include "genomics/suffix_array.hh"

using namespace beacon;

namespace
{

void
BM_DramControllerRandomReads(benchmark::State &state)
{
    const bool custom = state.range(0) != 0;
    for (auto _ : state) {
        EventQueue eq;
        StatRegistry stats;
        DimmGeometry geom;
        geom.per_rank_lanes = custom;
        geom.per_rank_cmd_bus = custom;
        DramControllerParams params;
        params.enable_refresh = false;
        DramController ctrl("dimm", eq, stats, geom,
                            DramTimingParams::ddr4_1600_22(), params);
        Rng rng(1);
        for (int i = 0; i < 1024; ++i) {
            MemRequest req;
            req.coord.rank = unsigned(rng.next(4));
            req.coord.bank_group = unsigned(rng.next(4));
            req.coord.bank = unsigned(rng.next(4));
            req.coord.row = RowId{unsigned(rng.next(1u << 17))};
            req.coord.chip_count = 16;
            req.bursts = 1;
            ctrl.enqueue(std::move(req));
        }
        eq.run();
        benchmark::DoNotOptimize(ctrl.readsCompleted());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DramControllerRandomReads)->Arg(0)->Arg(1);

void
BM_PoolFabricMessages(benchmark::State &state)
{
    const bool packing = state.range(0) != 0;
    for (auto _ : state) {
        EventQueue eq;
        StatRegistry stats;
        PoolParams params;
        params.device_bias = true;
        params.packer.enabled = packing;
        PoolFabric fabric("pool", eq, stats, params);
        int pending = 2048;
        for (int i = 0; i < 2048; ++i) {
            fabric.send(NodeId::dimmNode(0, i % 4),
                        NodeId::dimmNode(1, (i + 1) % 4), Bytes{32},
                        true, untenanted_id, 0,
                        [&pending](Tick) { --pending; });
        }
        eq.run();
        benchmark::DoNotOptimize(pending);
    }
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_PoolFabricMessages)->Arg(0)->Arg(1);

void
BM_FmIndexBuild(benchmark::State &state)
{
    genomics::GenomeParams params;
    params.length = std::size_t(state.range(0));
    const genomics::DnaSequence genome = genomics::makeGenome(params);
    for (auto _ : state) {
        genomics::FmIndex index(genome);
        benchmark::DoNotOptimize(index.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FmIndexBuild)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void
BM_FmIndexSearch(benchmark::State &state)
{
    genomics::GenomeParams gp;
    gp.length = 1 << 16;
    const genomics::DnaSequence genome = genomics::makeGenome(gp);
    const genomics::FmIndex index(genome);
    genomics::ReadParams rp;
    rp.num_reads = 64;
    rp.read_length = 32;
    const auto reads = genomics::makeReads(genome, rp);
    std::size_t i = 0;
    for (auto _ : state) {
        const auto range = index.search(reads[i % reads.size()]);
        benchmark::DoNotOptimize(range.count());
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_FmIndexSearch);

void
BM_BloomFilterAdd(benchmark::State &state)
{
    genomics::CountingBloomFilter filter(1 << 20, 3);
    Rng rng(5);
    for (auto _ : state) {
        filter.add(rng());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomFilterAdd);

void
BM_SuffixArrayBuild(benchmark::State &state)
{
    genomics::GenomeParams params;
    params.length = std::size_t(state.range(0));
    const genomics::DnaSequence genome = genomics::makeGenome(params);
    for (auto _ : state) {
        auto sa = genomics::buildSuffixArray(genome);
        benchmark::DoNotOptimize(sa.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SuffixArrayBuild)->Arg(1 << 12)->Arg(1 << 15);

} // namespace

BENCHMARK_MAIN();
