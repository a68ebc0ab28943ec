#include "flight_recorder.hh"

#include <algorithm>
#include <fstream>
#include <mutex>

#include "common/logging.hh"

namespace beacon::obs
{

namespace
{

/** Live recorders, in construction order. The mutex is only taken
 *  at construction/destruction and on the (already fatal) dump-all
 *  path, never while events execute. */
std::mutex registry_mutex;
std::vector<FlightRecorder *> registry;

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
            if (static_cast<unsigned char>(c) < 0x20)
                out += ' ';
            else
                out += c;
        }
    }
    return out;
}

} // namespace

FlightRecorder::FlightRecorder(std::string path,
                               std::size_t capacity)
    : path_(std::move(path)), ring(capacity ? capacity : 1)
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    registry.push_back(this);
    // First recorder installs the process-wide panic hook so any
    // BEACON_CHECK / BEACON_ASSERT failure dumps the ring before
    // aborting. Idempotent: setPanicHook stores a pointer.
    detail::setPanicHook(&FlightRecorder::dumpAll);
}

FlightRecorder::~FlightRecorder()
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    registry.erase(std::remove(registry.begin(), registry.end(), this),
                   registry.end());
}

std::vector<FlightRecorder::Record>
FlightRecorder::snapshot() const
{
    const std::size_t n =
        std::size_t(std::min<std::uint64_t>(executed, ring.size()));
    const std::size_t first = executed > ring.size() ? next : 0;
    std::vector<Record> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(ring[(first + i) % ring.size()]);
    return out;
}

bool
FlightRecorder::dump(const char *why, const std::string &detail) const
{
    std::ofstream os(path_);
    if (!os)
        return false;
    os << "{\n\"schema\": \"beacon-flightrec-1\",\n";
    os << "\"reason\": \"" << escape(why) << "\",\n";
    os << "\"detail\": \"" << escape(detail) << "\",\n";
    // One ring, kept in a list so the schema stays
    // "beacon-flightrec-1".
    os << "\"rings\": [\n";
    os << "{\"lane\":0,\"executed\":" << executed << ",\"records\":[";
    bool first_rec = true;
    for (const Record &rec : snapshot()) {
        os << (first_rec ? "" : ",");
        first_rec = false;
        os << "{\"when\":" << rec.when << ",\"seq\":" << rec.seq
           << ",\"cat\":\"" << eventCatName(rec.cat) << "\"}";
    }
    os << "]}";
    os << "\n]\n}\n";
    os.flush();
    return bool(os);
}

void
FlightRecorder::dumpAll(const std::string &detail)
{
    std::lock_guard<std::mutex> lock(registry_mutex);
    for (const FlightRecorder *fr : registry) {
        if (fr->dump("panic", detail))
            std::cerr << "flight recorder: wrote " << fr->path()
                      << std::endl;
        else
            std::cerr << "flight recorder: cannot write "
                      << fr->path() << std::endl;
    }
}

} // namespace beacon::obs
