/**
 * @file
 * Example: a command-line experiment runner.
 *
 * Composes any evaluated system with any application and dataset
 * from the command line, runs it, and emits a human summary plus an
 * optional JSON report — the entry point a downstream user scripts
 * against.
 *
 *   $ ./run_experiment --system beacon-d --app fm --dataset Pt
 *   $ ./run_experiment --system nest --app kmc --json report.json
 *   $ ./run_experiment --list
 *
 * Options: --system {medal,nest,vanilla-d,vanilla-s,beacon-d,
 * beacon-s}, --app {fm,hash,kmc,prealign,bfs,dbprobe}, --dataset
 * {Pt,Pg,Ss,Am,Nf}, --tasks N, --ideal, --json FILE.
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "accel/cpu_baseline.hh"
#include "accel/experiment.hh"
#include "accel/extension_workloads.hh"
#include "accel/report.hh"
#include "accel/system.hh"

using namespace beacon;

namespace
{

void
usage()
{
    std::printf(
        "usage: run_experiment [--system S] [--app A] [--dataset D]\n"
        "                      [--tasks N] [--ideal] [--json FILE]\n"
        "  systems:  medal nest vanilla-d vanilla-s beacon-d "
        "beacon-s\n"
        "  apps:     fm hash kmc prealign bfs dbprobe\n"
        "  datasets: Pt Pg Ss Am Nf (seeding apps only)\n");
}

/**
 * Strict --tasks parsing: digits only, no sign or trailing junk, and
 * greater than zero. Returns false for anything else.
 */
bool
parseTasks(const char *text, std::size_t &out)
{
    const char *end = text + std::strlen(text);
    std::size_t value = 0;
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || value == 0)
        return false;
    out = value;
    return true;
}

SystemParams
systemByName(const std::string &name)
{
    if (name == "medal")
        return SystemParams::medal();
    if (name == "nest")
        return SystemParams::nest();
    if (name == "vanilla-d")
        return SystemParams::cxlVanillaD();
    if (name == "vanilla-s")
        return SystemParams::cxlVanillaS();
    if (name == "beacon-s")
        return SystemParams::beaconS();
    return SystemParams::beaconD();
}

std::unique_ptr<Workload>
workloadByName(const std::string &app, const std::string &dataset)
{
    genomics::DatasetPreset preset = genomics::seedingPresets()[0];
    for (const auto &candidate : genomics::seedingPresets()) {
        if (dataset == candidate.name)
            preset = candidate;
    }
    preset.genome.length = 1 << 17;
    preset.reads.num_reads = 512;

    if (app == "hash")
        return std::make_unique<HashSeedingWorkload>(preset);
    if (app == "kmc") {
        genomics::DatasetPreset kp = genomics::kmerCountingPreset();
        kp.genome.length = 1 << 17;
        return std::make_unique<KmerCountingWorkload>(kp);
    }
    if (app == "prealign")
        return std::make_unique<PrealignWorkload>(preset);
    if (app == "bfs") {
        graph::GraphParams gp;
        gp.num_vertices = 1 << 14;
        return std::make_unique<GraphBfsWorkload>(gp, 256, 256);
    }
    if (app == "dbprobe")
        return std::make_unique<DbProbeWorkload>();
    return std::make_unique<FmSeedingWorkload>(preset);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string system_name = "beacon-d";
    std::string app = "fm";
    std::string dataset = "Pt";
    std::string json_path;
    std::size_t tasks = 0;
    bool ideal = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--system")
            system_name = next();
        else if (arg == "--app")
            app = next();
        else if (arg == "--dataset")
            dataset = next();
        else if (arg == "--tasks") {
            const char *text = next();
            if (!parseTasks(text, tasks)) {
                std::fprintf(stderr,
                             "invalid --tasks '%s': expected a "
                             "positive integer\n",
                             text);
                usage();
                return 1;
            }
        }
        else if (arg == "--ideal")
            ideal = true;
        else if (arg == "--json")
            json_path = next();
        else if (arg == "--list" || arg == "--help") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage();
            return 1;
        }
    }

    SystemParams params = systemByName(system_name);
    if (ideal)
        params = params.idealized();
    const std::unique_ptr<Workload> workload =
        workloadByName(app, dataset);

    std::printf("running %s on %s (%zu tasks)...\n",
                workload->name().c_str(), params.name.c_str(),
                tasks ? tasks : workload->numTasks());
    const RunResult result = runSystem(params, *workload, tasks);
    const CpuBaselineResult cpu = cpuBaseline(measureFootprint(
        *workload,
        WorkloadContext{params.opts.kmc_single_pass, 0}));

    std::printf("  time            %.2f us (%s vs 48-thread CPU)\n",
                result.seconds * 1e6,
                formatX(cpu.seconds / result.seconds).c_str());
    std::printf("  throughput      %.2f M tasks/s\n",
                result.tasks_per_second / 1e6);
    std::printf("  energy          %.2f uJ (comm %.1f%%, dram "
                "%.1f%%, PE %.1f%%)\n",
                result.energy.totalPj().value() * 1e-6,
                100 * result.energy.commFraction(),
                100 * result.energy.dram_pj.value() /
                    result.energy.totalPj().value(),
                100 * result.energy.peFraction());
    std::printf("  wire traffic    %.3f MB, host round trips %llu\n",
                double(result.wire_bytes.value()) / 1e6,
                static_cast<unsigned long long>(
                    result.host_round_trips));
    std::printf("  DRAM            %llu reads, %llu writes, chip "
                "cov %.3f\n",
                static_cast<unsigned long long>(result.dram_reads),
                static_cast<unsigned long long>(result.dram_writes),
                result.chip_access_cov);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         json_path.c_str());
            return 1;
        }
        writeRunResultsJson(out, {result});
        std::printf("  report          %s\n", json_path.c_str());
    }
    return 0;
}
