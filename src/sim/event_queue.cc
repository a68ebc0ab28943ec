#include "event_queue.hh"

#include "common/logging.hh"

namespace beacon
{

EventId
EventQueue::schedule(Tick when, Callback cb, EventCat cat)
{
    BEACON_ASSERT(when >= _now, "scheduling into the past: when=", when,
                  " now=", _now);
    const EventId id = next_seq;
    queue.push(Entry{when, next_seq, id, cat});
    ++next_seq;
    live.insert(id);
    callbacks.emplace(id, std::move(cb));
    return id;
}

void
EventQueue::cancel(EventId id)
{
    live.erase(id);
    callbacks.erase(id);
}

bool
EventQueue::scheduled(EventId id) const
{
    return live.count(id) != 0;
}

bool
EventQueue::runOne()
{
    while (!queue.empty()) {
        const Entry top = queue.top();
        queue.pop();
        auto it = callbacks.find(top.id);
        if (it == callbacks.end())
            continue; // cancelled
        BEACON_ASSERT(top.when >= _now, "time went backwards");
        // Determinism: events must leave the queue in (tick, seq)
        // order — same-tick events run in schedule order, so a run
        // is a pure function of the schedule calls.
        BEACON_DCHECK(!has_executed || top.when > last_when ||
                          (top.when == last_when &&
                           top.seq > last_seq),
                      "tie-break order violated: event (t=", top.when,
                      ", seq=", top.seq,
                      ") popped after (t=", last_when, ", seq=",
                      last_seq, ")");
        BEACON_DCHECK(top.seq < next_seq,
                      "executing an event that was never scheduled");
        last_when = top.when;
        last_seq = top.seq;
        has_executed = true;
        _now = top.when;
        Callback cb = std::move(it->second);
        callbacks.erase(it);
        live.erase(top.id);
        ++executed;
        if (flight)
            flight->note(top.when, top.cat);
        if (profiler) {
            profiler->beginEvent(top.cat, top.when);
            cb();
            profiler->endEvent(top.cat);
        } else {
            cb();
        }
        return true;
    }
    return false;
}

Tick
EventQueue::run(Tick limit)
{
    while (!queue.empty()) {
        // Skip over cancelled entries without advancing time.
        const Entry top = queue.top();
        if (callbacks.find(top.id) == callbacks.end()) {
            queue.pop();
            continue;
        }
        if (top.when > limit)
            break;
        runOne();
    }
    return _now;
}

void
EventQueue::reset()
{
    queue = {};
    callbacks.clear();
    live.clear();
    _now = 0;
    executed = 0;
    next_seq = 0;
    last_when = 0;
    last_seq = 0;
    has_executed = false;
}

} // namespace beacon
