/**
 * @file
 * Chrome/Perfetto trace-event recording.
 *
 * TraceSink keeps a bounded ring buffer of events stamped with
 * simulated ticks (1 tick = 1 ps); nothing here reads a wall clock,
 * so traces are bit-deterministic. writeJson() emits the Chrome
 * trace-event JSON format (the "JSON Array Format" with metadata),
 * which both chrome://tracing and ui.perfetto.dev open directly.
 *
 * Track model: one track ("thread") per component instance, named
 * hierarchically ("dimm0.bg2", "pool.sw0.dimm1.down", "ndp1.slot3",
 * "tenant0.jobs"). All tracks live in pid 1 ("beacon-sim").
 */

#ifndef BEACON_OBS_TRACE_HH
#define BEACON_OBS_TRACE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.hh"
#include "obs/obs_config.hh"
#include "sim/event_queue.hh"

namespace beacon::obs
{

/** Index of a trace track; dense, assigned on first use. */
using TrackId = std::uint32_t;

/** One recorded trace event (fixed size so the ring stays compact). */
struct TraceEvent
{
    Tick start = 0;
    Tick dur = 0;
    double value = 0;           // counter events
    std::uint64_t id = 0;       // optional correlation id
    TrackId track = 0;
    /** 'X' complete, 'i' instant, 'C' counter, 's'/'t'/'f' flow. */
    char phase = 'X';
    bool has_id = false;
    const char *name = "";      // must point at static storage
    const char *arg = nullptr;  // optional reason; static storage
};

/**
 * Bounded ring-buffer sink for trace events.
 *
 * When the buffer is full the oldest event is overwritten and
 * droppedEvents() increments, so a trace always holds the most
 * recent window of activity and the loss is explicit.
 *
 * Event names are stored as raw pointers: pass string literals or
 * other static-storage strings only.
 */
class TraceSink
{
  public:
    explicit TraceSink(const EventQueue &eq,
                       std::size_t capacity = std::size_t(1) << 16);

    /** Track id for @p name, creating the track on first use. */
    TrackId track(const std::string &name);

    /** Current simulated time of the attached queue. */
    Tick now() const { return eq.now(); }

    /** Complete ('X') event covering [start, end]. */
    void complete(TrackId track, const char *name, Tick start,
                  Tick end);

    /** Complete event with a correlation id rendered into args. */
    void completeWithId(TrackId track, const char *name, Tick start,
                        Tick end, std::uint64_t id);

    /** Instant ('i') event at the current tick. */
    void instant(TrackId track, const char *name);

    /** Instant event with a correlation id. */
    void instantWithId(TrackId track, const char *name,
                       std::uint64_t id);

    /**
     * Instant event with an id and a reason string rendered into
     * args ("reject" admission decisions). @p reason must point at
     * static storage, like event names.
     */
    void instantReason(TrackId track, const char *name,
                       std::uint64_t id, const char *reason);

    /**
     * Flow event at the current tick: @p phase is 's' (start), 't'
     * (step) or 'f' (end). Events sharing @p id — one job's causal
     * path — are drawn as linked arrows between the enclosing slices
     * in Perfetto/chrome://tracing.
     */
    void flow(TrackId track, const char *name, std::uint64_t id,
              char phase);

    /** Counter ('C') sample at the current tick. */
    void counter(TrackId track, const char *name, double value);

    /** Events currently held (<= capacity). */
    std::size_t size() const { return count; }

    std::size_t capacity() const { return ring.size(); }

    /** Events overwritten because the ring was full. */
    std::uint64_t droppedEvents() const { return dropped; }

    std::size_t numTracks() const { return track_names.size(); }

    /** Events oldest-first (for tests and custom serialisers). */
    std::vector<TraceEvent> snapshot() const;

    /** Emit the whole buffer as Chrome trace-event JSON. */
    void writeJson(std::ostream &os) const;

  private:
    void push(const TraceEvent &ev);

    const EventQueue &eq;
    std::vector<std::string> track_names;
    std::map<std::string, TrackId> track_ids;
    std::vector<TraceEvent> ring;
    std::size_t next = 0;  // next write slot
    std::size_t count = 0; // valid events in the ring
    std::uint64_t dropped = 0;
};

/**
 * RAII duration span: records the tick at construction and emits a
 * complete event for [construction, destruction) on destruction (or
 * at an explicit close()). A null sink makes every operation a no-op,
 * so instrumented code needs no branches of its own.
 */
class TraceSpan
{
  public:
    TraceSpan() = default;

    TraceSpan(TraceSink *sink, TrackId track, const char *name)
        : sink(sink), track(track), name(name),
          start(sink ? sink->now() : 0)
    {
    }

    TraceSpan(TraceSink *sink, TrackId track, const char *name,
              std::uint64_t id)
        : sink(sink), track(track), name(name),
          start(sink ? sink->now() : 0), id(id), has_id(true)
    {
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    TraceSpan(TraceSpan &&other) noexcept { *this = std::move(other); }

    TraceSpan &
    operator=(TraceSpan &&other) noexcept
    {
        if (this != &other) {
            close();
            sink = other.sink;
            track = other.track;
            name = other.name;
            start = other.start;
            id = other.id;
            has_id = other.has_id;
            other.sink = nullptr;
        }
        return *this;
    }

    ~TraceSpan() { close(); }

    bool active() const { return sink != nullptr; }

    /** Emit the span now instead of at destruction. */
    void
    close()
    {
        if (!sink)
            return;
        if (has_id)
            sink->completeWithId(track, name, start, sink->now(), id);
        else
            sink->complete(track, name, start, sink->now());
        sink = nullptr;
    }

    /** Drop the span without emitting anything. */
    void abandon() { sink = nullptr; }

  private:
    TraceSink *sink = nullptr;
    TrackId track = 0;
    const char *name = "";
    Tick start = 0;
    std::uint64_t id = 0;
    bool has_id = false;
};

} // namespace beacon::obs

/**
 * Instrumentation entry point: the trace sink attached to an
 * EventQueue, or a compile-time nullptr when BEACON_OBS is off (so
 * every `if (sink)` block dead-code-eliminates).
 */
#if BEACON_OBS_ENABLED
#define BEACON_TRACE_SINK(eq) ((eq).traceSink())
#else
#define BEACON_TRACE_SINK(eq) \
    (static_cast<::beacon::obs::TraceSink *>(nullptr))
#endif

#endif // BEACON_OBS_TRACE_HH
