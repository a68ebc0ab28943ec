/**
 * @file
 * The benchmark's three workloads, built and run through the
 * simulator's public API, and the outputs one run yields.
 *
 * Every run pins its configuration in code (serial event queue,
 * telemetry off, checkers off unless asked for), so no environment
 * variable the simulator reads can change what is timed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "profiler.hh"

namespace perfbench
{

enum class WorkloadKind
{
    /** BEACON-D FM-index seeding on the Table I pool (16 x 32). */
    FmSeedPool512,
    /** BEACON-S single-pass k-mer counting, NDP in the switches. */
    KmerCountSwitch,
    /** Service mode: bulk FM tenant plus three hash tenants. */
    QosServiceMix,
};

inline constexpr std::array<WorkloadKind, 3> all_workloads = {
    WorkloadKind::FmSeedPool512, WorkloadKind::KmerCountSwitch,
    WorkloadKind::QosServiceMix};

const char *workloadName(WorkloadKind kind);
std::optional<WorkloadKind> parseWorkload(const std::string &name);

/** The seed whose model digest is pinned in the benchmark. */
inline constexpr std::uint64_t default_seed = 1;

/**
 * Deterministic work counts of one run: identical between any two
 * runs of one workload and seed, traced or not.
 */
struct Counts
{
    std::uint64_t events = 0;
    std::uint64_t dram_reqs = 0;
    std::uint64_t dram_cmds = 0;
    std::uint64_t dram_acts = 0;
    std::uint64_t cxl_messages = 0;
    std::uint64_t useful_bytes = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t ndp_tasks = 0;
    std::uint64_t atomic_ops = 0;
    std::uint64_t atomic_conflicts = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_rejected = 0;

    bool operator==(const Counts &) const = default;
};

/** Host timings, outputs and checks of one simulation. */
struct Sample
{
    double genomics_build_s = 0; //!< workload constructors
    double machine_build_s = 0;  //!< NdpSystem constructor
    double setup_s = 0;          //!< all of set-up
    double run_s = 0;            //!< the simulation phase
    double sim_us = 0;           //!< simulated time, in µs
    /** Model outputs; equal to the pinned digest at default_seed. */
    std::string digest;
    Counts counts;
    /** Broken invariants and checker findings; empty when sound. */
    std::vector<std::string> problems;
    /** Set on traced runs only. */
    std::optional<LayerProfile> trace;
};

struct RunOptions
{
    /** Install the layer profiler (the traced run). */
    bool traced = false;
    /** Arm the DRAM-protocol, link and NDP-accounting checkers. */
    bool checkers = false;
};

/** Build and run @p kind once at @p seed. */
Sample runWorkload(WorkloadKind kind, std::uint64_t seed,
                   const RunOptions &options);

/** Build @p kind at @p seed, discard it, and return set-up seconds. */
double setupOnly(WorkloadKind kind, std::uint64_t seed);

/** The pinned model digest of @p kind at default_seed. */
const char *pinnedDigest(WorkloadKind kind);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
