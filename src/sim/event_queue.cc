#include "event_queue.hh"

#include <limits>

#include "common/logging.hh"

namespace beacon
{

EventId
EventQueue::schedule(Tick when, Callback cb, EventCat cat)
{
    BEACON_ASSERT(when >= _now, "scheduling into the past: when=", when,
                  " now=", _now);
    BEACON_ASSERT(cb, "scheduling an empty callback");
    std::uint32_t slot;
    if (free_slots.empty()) {
        BEACON_ASSERT(slots.size() <
                          std::numeric_limits<std::uint32_t>::max(),
                      "event slot space exhausted");
        slot = std::uint32_t(slots.size());
        slots.emplace_back();
    } else {
        slot = free_slots.back();
        free_slots.pop_back();
    }
    Slot &s = slots[slot];
    s.cb = std::move(cb);
    ++live;
    queue.push(Entry{when, next_seq, slot, cat});
    ++next_seq;
    return (EventId{s.gen} << 32) | slot;
}

void
EventQueue::cancel(EventId id)
{
    if (!scheduled(id))
        return;
    slots[id & 0xffffffffu].cb.reset();
    --live;
}

bool
EventQueue::scheduled(EventId id) const
{
    const std::uint64_t slot = id & 0xffffffffu;
    return slot < slots.size() && slots[slot].gen == (id >> 32) &&
           slots[slot].cb;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Slot &s = slots[slot];
    if (++s.gen == 0)
        s.gen = 1; // id 0 must never name a live event
    free_slots.push_back(slot);
}

bool
EventQueue::skipCancelled()
{
    while (!queue.empty()) {
        const std::uint32_t slot = queue.top().slot;
        if (slots[slot].cb)
            return true;
        queue.pop();
        releaseSlot(slot);
    }
    return false;
}

void
EventQueue::fireTop()
{
    const Entry top = queue.top();
    queue.pop();
    BEACON_ASSERT(top.when >= _now, "time went backwards");
    // Determinism: events must leave the queue in (tick, seq) order —
    // same-tick events run in schedule order, so a run is a pure
    // function of the schedule calls.
    BEACON_DCHECK(!has_executed || top.when > last_when ||
                      (top.when == last_when && top.seq > last_seq),
                  "tie-break order violated: event (t=", top.when,
                  ", seq=", top.seq, ") popped after (t=", last_when,
                  ", seq=", last_seq, ")");
    BEACON_DCHECK(top.seq < next_seq,
                  "executing an event that was never scheduled");
    last_when = top.when;
    last_seq = top.seq;
    has_executed = true;
    _now = top.when;
    // Move the callback out before running it: it may schedule
    // events, which can grow (and move) the slot vector.
    Callback cb = std::move(slots[top.slot].cb);
    --live;
    releaseSlot(top.slot);
    ++executed;
    if (profiler) {
        profiler->beginEvent(top.cat, top.when);
        cb();
        profiler->endEvent(top.cat);
    } else {
        cb();
    }
}

bool
EventQueue::runOne()
{
    if (!skipCancelled())
        return false;
    fireTop();
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (skipCancelled() && queue.top().when <= limit)
        fireTop();
    return _now;
}

void
EventQueue::reset()
{
    queue = {};
    free_slots.clear();
    // Every slot is free again under a new generation; hand out
    // slot 0 first, as a fresh queue does.
    for (std::uint32_t i = std::uint32_t(slots.size()); i-- > 0;) {
        slots[i].cb.reset();
        releaseSlot(i);
    }
    live = 0;
    _now = 0;
    executed = 0;
    next_seq = 0;
    last_when = 0;
    last_seq = 0;
    has_executed = false;
}

} // namespace beacon
