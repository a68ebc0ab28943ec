/**
 * @file
 * Request-scoped causal trace: per-job component spans and an exact
 * latency breakdown.
 *
 * RequestTrace collects, per orchestrator job, the component spans
 * the job's causal path touched (PE compute, CXL link, switch, DRAM
 * media) between submission and completion. At completion it runs an
 * integer sweep-line over [submit, end] that attributes every tick
 * to exactly one SpanKind — overlaps resolve to the highest-priority
 * category and uncovered time counts as Queue — so the breakdown
 * components always sum to the job's end-to-end latency exactly
 * (pure tick arithmetic, no floats).
 */

#ifndef BEACON_OBS_REQUEST_TRACE_HH
#define BEACON_OBS_REQUEST_TRACE_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "common/units.hh"
#include "obs/request_context.hh"
#include "sim/event_queue.hh"

namespace beacon::obs
{

/** Per-tick attribution of one finished job (see file comment). */
struct JobRecord
{
    std::uint64_t job = 0;
    std::uint32_t tenant = 0;
    Tick submit = 0;
    Tick end = 0;
    /** Ticks per SpanKind; sums to end - submit exactly. */
    std::array<Tick, num_span_kinds> comp{};
    /** Component spans recorded before completion. */
    std::uint32_t n_spans = 0;

    Tick latency() const { return end - submit; }
};

/** Per-tenant totals over all finished jobs (report aggregation). */
struct TenantBreakdown
{
    std::uint64_t jobs = 0;
    Tick total_latency = 0;
    std::array<Tick, num_span_kinds> comp{};
};

class RequestTrace
{
  public:
    explicit RequestTrace(const EventQueue &eq,
                          std::size_t max_jobs = std::size_t(1) << 20);

    /** Job @p job submitted now by tenant @p tenant. */
    void jobBegin(std::uint64_t job, std::uint32_t tenant);

    /**
     * Attribute [@p start, @p end) of job @p job to @p kind. Spans
     * may be recorded with a future end tick (a PE span is recorded
     * when the compute is scheduled); the sweep clips them to the
     * job's lifetime. job 0 is ignored so call sites need no guard
     * beyond fetching the RequestTrace pointer.
     */
    void recordSpan(std::uint64_t job, SpanKind kind, Tick start,
                    Tick end);

    /** Job @p job completed now: compute and store its breakdown. */
    void jobEnd(std::uint64_t job);

    /** Job @p job was rejected at admission: drop its open state. */
    void jobReject(std::uint64_t job);

    /** Finished-job records in completion (canonical) order. */
    const std::vector<JobRecord> &records() const { return done; }

    /** Jobs begun but not yet ended/rejected (0 after a full run). */
    std::size_t openJobs() const { return open.size(); }

    /** Finished jobs discarded because max_jobs was reached. */
    std::uint64_t droppedJobs() const { return dropped; }

    /** Totals for @p tenant across all recorded jobs. */
    TenantBreakdown tenantBreakdown(std::uint32_t tenant) const;

    /** Versioned JSON dump ("beacon-reqtrace-1"), completion order. */
    void writeJson(std::ostream &os) const;

  private:
    /** One component span attached to an open job. */
    struct CompSpan
    {
        SpanKind kind = SpanKind::Queue;
        Tick a = 0;
        Tick b = 0;
    };

    /** An in-flight job's accumulated state. */
    struct Open
    {
        std::uint32_t tenant = 0;
        Tick submit = 0;
        std::vector<CompSpan> spans;
    };

    void finishJob(std::uint64_t job, Tick end);

    const EventQueue &eq;
    std::size_t max_jobs;
    std::unordered_map<std::uint64_t, Open> open;
    std::vector<JobRecord> done;
    std::uint64_t dropped = 0;
};

} // namespace beacon::obs

/**
 * Request-trace entry point for instrumented components: the
 * RequestTrace attached to an EventQueue, or a compile-time nullptr
 * when BEACON_OBS is off.
 */
#if BEACON_OBS_ENABLED
#define BEACON_REQUEST_TRACE(eq) ((eq).requestTrace())
#else
#define BEACON_REQUEST_TRACE(eq) \
    (static_cast<::beacon::obs::RequestTrace *>(nullptr))
#endif

#endif // BEACON_OBS_REQUEST_TRACE_HH
