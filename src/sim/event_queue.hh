/**
 * @file
 * Global discrete-event simulation kernel.
 *
 * The queue orders events by (tick, insertion sequence) so that events
 * scheduled for the same tick execute in schedule order, which keeps
 * runs deterministic.
 *
 * Pending callbacks live in a vector of slot records recycled through
 * a free list, and an EventId names a slot plus its generation, so
 * schedule, cancel and pop touch no hash table. Callbacks are the
 * move-only, small-buffer EventCallback (sim/callback.hh), whose
 * buffer holds a memory-path Completion plus its tick.
 */

#ifndef BEACON_SIM_EVENT_QUEUE_HH
#define BEACON_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/units.hh"
#include "sim/callback.hh"

namespace beacon
{

namespace obs
{
// src/obs — the sim layer only carries pointers.
class TraceSink;
class RequestTrace;
} // namespace obs

/**
 * Handle used to cancel a scheduled event: `(generation << 32) |
 * slot`. Generations start at 1, so 0 never names a live event and
 * components may hold (and cancel) 0 as "no event".
 */
using EventId = std::uint64_t;

// The DRAM completion and link-arrival events are a CompleteAt: they
// must store inline, so scheduling one allocates nothing.
static_assert(EventCallback::storesInline<CompleteAt>());

/**
 * Coarse component category an event is attributed to.
 *
 * Used only for observability (self-profiling attribution of host
 * time per subsystem); it has no effect on scheduling order.
 */
enum class EventCat : std::uint8_t
{
    Other = 0,
    Dram,
    Cxl,
    Ndp,
    Service,
    Sampler,
    /** Rack layer (src/rack): multi-host switch tiers, HDM ingress,
     *  shared-segment coherence, hot-plug control. */
    Rack,
};

inline constexpr std::size_t num_event_cats = 7;

/** Stable lower-case name for an event category. */
constexpr const char *
eventCatName(EventCat cat)
{
    switch (cat) {
      case EventCat::Dram: return "dram";
      case EventCat::Cxl: return "cxl";
      case EventCat::Ndp: return "ndp";
      case EventCat::Service: return "service";
      case EventCat::Sampler: return "sampler";
      case EventCat::Rack: return "rack";
      case EventCat::Other: break;
    }
    return "other";
}

/**
 * Observer notified around every callback the queue executes.
 *
 * The sim layer defines only the interface; the implementations
 * (obs::SelfProfiler, the host-performance benchmark's layer
 * profiler) live outside it and are the sanctioned places for
 * wall-clock use.
 */
class EventProfiler
{
  public:
    virtual ~EventProfiler() = default;

    /** Called just before a callback runs. */
    virtual void beginEvent(EventCat cat, Tick when) = 0;

    /** Called just after the same callback returns. */
    virtual void endEvent(EventCat cat) = 0;
};

/**
 * Always-on-cheap recorder fed immediately before every executed
 * callback — the flight-recorder half of the sim layer, mirroring
 * the EventProfiler pattern: the interface lives here, the one
 * implementation (obs::FlightRecorder) in src/obs. Feeding happens
 * *before* the callback runs so the event that dies mid-callback is
 * in the dump.
 */
class EventRecorder
{
  public:
    virtual ~EventRecorder() = default;

    /** Event about to execute at @p when. */
    virtual void note(Tick when, EventCat cat) = 0;
};

/**
 * A deterministic discrete-event queue.
 *
 * Components schedule callbacks at absolute ticks; the driver runs the
 * queue until it is empty, a tick limit is reached, or an event count
 * budget is exhausted.
 */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Current simulated time. Inside an event callback this is the
     * tick the event fired at.
     */
    Tick now() const { return _now; }

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed; }

    /**
     * Number of live pending events (cancelled events excluded, even
     * while their queue entries await lazy removal).
     */
    std::size_t pending() const { return live; }

    /**
     * Size of the internal heap: live events plus cancelled entries
     * that have not been popped yet. Only interesting for capacity
     * accounting; use pending() for "how much work is left".
     */
    std::size_t pendingIncludingCancelled() const
    {
        return queue.size();
    }

    /**
     * Schedule @p cb at absolute time @p when (>= now()).
     * @return an id usable with cancel().
     */
    EventId schedule(Tick when, Callback cb,
                     EventCat cat = EventCat::Other);

    /** Schedule @p cb @p delta ticks from now. */
    EventId
    scheduleIn(Tick delta, Callback cb, EventCat cat = EventCat::Other)
    {
        return schedule(_now + delta, std::move(cb), cat);
    }

    /**
     * Cancel a pending event and destroy its callback now; cancelling
     * a fired or cancelled event, or id 0, is a no-op.
     */
    void cancel(EventId id);

    /** True if the event has not fired and is not cancelled. */
    bool scheduled(EventId id) const;

    /**
     * Execute the next event, if any.
     * @return false when the queue is empty.
     */
    bool runOne();

    /**
     * Run until the queue drains or until the next event would fire
     * after @p limit.
     * @return the final simulated time.
     */
    Tick run(Tick limit = max_tick);

    /**
     * Drop all pending events and reset time to zero. Ids issued
     * before the reset stay stale.
     */
    void reset();

    /**
     * Install (or clear, with nullptr) the host-side profiler that
     * brackets every executed callback. Not owned.
     */
    void setProfiler(EventProfiler *p) { profiler = p; }

    /**
     * Attach (or clear) the trace sink components consult when they
     * want to emit trace events. Not owned; components must treat a
     * null sink as "tracing off".
     */
    void setTraceSink(obs::TraceSink *sink) { trace_sink = sink; }

    /** Trace sink for this queue, or nullptr when tracing is off. */
    obs::TraceSink *traceSink() const { return trace_sink; }

    /**
     * Attach (or clear) the request trace components consult to
     * record per-job component spans. Not owned; a null pointer
     * means "request tracing off".
     */
    void setRequestTrace(obs::RequestTrace *rt) { request_trace = rt; }

    /** Request trace for this queue, or nullptr when off. */
    obs::RequestTrace *requestTrace() const { return request_trace; }

    /**
     * Attach (or clear) the flight recorder fed before every
     * executed callback. Not owned.
     */
    void setFlightRecorder(EventRecorder *recorder) { flight = recorder; }

  private:
    /**
     * Heap entry. Each slot has at most one entry in the heap, and a
     * slot is recycled only when that entry pops, so a cancelled
     * entry needs no id check: its slot simply holds no callback.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        EventCat cat;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    /**
     * One pending-event record. The callback is empty once the event
     * fired or was cancelled; the generation is bumped each time the
     * slot is recycled, which makes every older id for it stale.
     */
    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 1;
    };

    /** Pop cancelled entries off the heap top, recycling their
     *  slots; false when the heap is empty. */
    bool skipCancelled();

    /** Execute the (live) heap top. */
    void fireTop();

    /** Return @p slot to the free list under a new generation. */
    void releaseSlot(std::uint32_t slot);

    Tick _now = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
    // Causality/determinism guards (validated with BEACON_DCHECK).
    Tick last_when = 0;
    std::uint64_t last_seq = 0;
    bool has_executed = false;
    EventProfiler *profiler = nullptr;
    EventRecorder *flight = nullptr;
    obs::TraceSink *trace_sink = nullptr;
    obs::RequestTrace *request_trace = nullptr;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;
    /** Slots holding a callback: scheduled, not fired or cancelled. */
    std::size_t live = 0;
};

} // namespace beacon

#endif // BEACON_SIM_EVENT_QUEUE_HH
