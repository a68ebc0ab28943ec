/**
 * @file
 * Always-on-cheap post-mortem flight recorder.
 *
 * FlightRecorder keeps one bounded ring of recently executed event
 * descriptors. The queue feeds it immediately before each callback
 * runs, so when a run dies — a BEACON_CHECK/BEACON_ASSERT failure or
 * a src/check protocol checker, all of which funnel through
 * beacon::detail::panicImpl — the trapping event itself plus the
 * window of events leading up to it are dumped as a versioned JSON
 * file ("beacon-flightrec-1") before the process aborts.
 *
 * Cost model: one branch per executed event when disabled (a null
 * pointer on the queue), three stores when enabled.
 */

#ifndef BEACON_OBS_FLIGHT_RECORDER_HH
#define BEACON_OBS_FLIGHT_RECORDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "sim/event_queue.hh"

namespace beacon::obs
{

class FlightRecorder : public EventRecorder
{
  public:
    /** Compact descriptor of one executed event. */
    struct Record
    {
        Tick when = 0;
        /** Execution ordinal (dense). */
        std::uint64_t seq = 0;
        EventCat cat = EventCat::Other;
    };

    /**
     * @p path receives the post-mortem JSON on dump().
     * @p capacity bounds the ring (oldest overwritten).
     */
    explicit FlightRecorder(std::string path,
                            std::size_t capacity = 256);
    ~FlightRecorder() override;

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Record an event about to execute. */
    void
    note(Tick when, EventCat cat) override
    {
        Record &rec = ring[next];
        rec.when = when;
        rec.seq = executed++;
        rec.cat = cat;
        next = next + 1 == ring.size() ? 0 : next + 1;
    }

    const std::string &path() const { return path_; }

    /** The ring, oldest first. */
    std::vector<Record> snapshot() const;

    /**
     * Write the post-mortem JSON to path(). @p why is a short cause
     * tag ("panic", "manual"), @p detail the failure message.
     * Returns false when the file cannot be written. Safe to call
     * from the panic path.
     */
    bool dump(const char *why, const std::string &detail) const;

    /**
     * Dump every live FlightRecorder. Installed as the panic hook
     * (common/logging) by the first constructed instance.
     */
    static void dumpAll(const std::string &detail);

  private:
    std::string path_;
    std::vector<Record> ring;
    std::size_t next = 0;
    std::uint64_t executed = 0;
};

} // namespace beacon::obs

#endif // BEACON_OBS_FLIGHT_RECORDER_HH
