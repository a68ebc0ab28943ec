#include "trace.hh"

#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"

namespace beacon::obs
{

namespace
{

/** Minimal JSON string escaping for names we generate ourselves. */
std::string
escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Ticks (ps) rendered as trace-event microseconds. Fixed six
 * fractional digits keep full picosecond resolution and a
 * byte-stable encoding.
 */
std::string
ticksToUs(Tick t)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64,
                  t / 1000000, t % 1000000);
    return buf;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

TraceSink::TraceSink(const EventQueue &eq, std::size_t capacity)
    : eq(eq), ring(capacity ? capacity : 1)
{
}

TrackId
TraceSink::track(const std::string &name)
{
    auto [it, inserted] =
        track_ids.try_emplace(name, TrackId(track_names.size()));
    if (inserted)
        track_names.push_back(name);
    return it->second;
}

void
TraceSink::push(const TraceEvent &ev)
{
    if (count == ring.size()) {
        ++dropped; // overwriting the oldest event
    } else {
        ++count;
    }
    ring[next] = ev;
    next = (next + 1) % ring.size();
}

void
TraceSink::complete(TrackId track, const char *name, Tick start,
                    Tick end)
{
    BEACON_DCHECK(end >= start, "span ends before it starts");
    TraceEvent ev;
    ev.phase = 'X';
    ev.track = track;
    ev.name = name;
    ev.start = start;
    ev.dur = end - start;
    push(ev);
}

void
TraceSink::completeWithId(TrackId track, const char *name, Tick start,
                          Tick end, std::uint64_t id)
{
    BEACON_DCHECK(end >= start, "span ends before it starts");
    TraceEvent ev;
    ev.phase = 'X';
    ev.track = track;
    ev.name = name;
    ev.start = start;
    ev.dur = end - start;
    ev.id = id;
    ev.has_id = true;
    push(ev);
}

void
TraceSink::instant(TrackId track, const char *name)
{
    TraceEvent ev;
    ev.phase = 'i';
    ev.track = track;
    ev.name = name;
    ev.start = now();
    push(ev);
}

void
TraceSink::instantWithId(TrackId track, const char *name,
                         std::uint64_t id)
{
    TraceEvent ev;
    ev.phase = 'i';
    ev.track = track;
    ev.name = name;
    ev.start = now();
    ev.id = id;
    ev.has_id = true;
    push(ev);
}

void
TraceSink::instantReason(TrackId track, const char *name,
                         std::uint64_t id, const char *reason)
{
    TraceEvent ev;
    ev.phase = 'i';
    ev.track = track;
    ev.name = name;
    ev.start = now();
    ev.id = id;
    ev.has_id = true;
    ev.arg = reason;
    push(ev);
}

void
TraceSink::flow(TrackId track, const char *name, std::uint64_t id,
                char phase)
{
    BEACON_DCHECK(phase == 's' || phase == 't' || phase == 'f',
                  "flow phase must be s/t/f");
    TraceEvent ev;
    ev.phase = phase;
    ev.track = track;
    ev.name = name;
    ev.start = now();
    ev.id = id;
    ev.has_id = true;
    push(ev);
}

void
TraceSink::counter(TrackId track, const char *name, double value)
{
    TraceEvent ev;
    ev.phase = 'C';
    ev.track = track;
    ev.name = name;
    ev.start = now();
    ev.value = value;
    push(ev);
}

std::vector<TraceEvent>
TraceSink::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(count);
    const std::size_t first = (next + ring.size() - count) % ring.size();
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(ring[(first + i) % ring.size()]);
    return out;
}

void
TraceSink::writeJson(std::ostream &os) const
{
    os << "{\n\"traceEvents\": [";
    bool first_event = true;
    const auto sep = [&]() -> std::ostream & {
        if (!first_event)
            os << ",";
        first_event = false;
        return os << "\n";
    };

    // Metadata: one process, one named "thread" per track. Trace
    // viewers sort tracks by the sort_index we derive from creation
    // order, which follows machine construction order.
    sep() << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
             "\"name\":\"process_name\","
             "\"args\":{\"name\":\"beacon-sim\"}}";
    for (std::size_t t = 0; t < track_names.size(); ++t) {
        sep() << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << (t + 1)
              << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
              << escape(track_names[t]) << "\"}}";
        sep() << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << (t + 1)
              << ",\"name\":\"thread_sort_index\",\"args\":{"
                 "\"sort_index\":"
              << (t + 1) << "}}";
    }

    for (const TraceEvent &ev : snapshot()) {
        sep() << "{\"ph\":\"" << ev.phase << "\",\"pid\":1,\"tid\":"
              << (ev.track + 1) << ",\"ts\":" << ticksToUs(ev.start)
              << ",\"name\":\"" << escape(ev.name) << "\"";
        const bool is_flow =
            ev.phase == 's' || ev.phase == 't' || ev.phase == 'f';
        if (ev.phase == 'X')
            os << ",\"dur\":" << ticksToUs(ev.dur);
        if (ev.phase == 'i')
            os << ",\"s\":\"t\"";
        if (is_flow) {
            // Flow events carry a top-level id; 't'/'f' bind to the
            // enclosing slice ("bp":"e") so one job's arrows chain
            // host -> switch -> DIMM -> PE -> completion.
            os << ",\"cat\":\"flow\",\"id\":" << ev.id;
            if (ev.phase != 's')
                os << ",\"bp\":\"e\"";
        }
        if (ev.phase == 'C') {
            os << ",\"args\":{\"value\":" << jsonNumber(ev.value)
               << "}";
        } else if ((ev.has_id && !is_flow) || ev.arg) {
            os << ",\"args\":{";
            bool first_arg = true;
            if (ev.has_id && !is_flow) {
                os << "\"id\":" << ev.id;
                first_arg = false;
            }
            if (ev.arg) {
                os << (first_arg ? "" : ",") << "\"reason\":\""
                   << escape(ev.arg) << "\"";
            }
            os << "}";
        }
        os << "}";
    }

    os << "\n],\n";
    os << "\"displayTimeUnit\": \"ns\",\n";
    os << "\"otherData\": {\n";
    os << "  \"clock\": \"simulated-ticks-1ps\",\n";
    os << "  \"dropped_events\": \"" << dropped << "\",\n";
    os << "  \"tracks\": \"" << track_names.size() << "\"\n";
    os << "}\n}\n";
}

} // namespace beacon::obs
