/**
 * @file
 * Host-side self-profiling of the event loop.
 *
 * SelfProfiler implements the sim layer's EventProfiler interface:
 * EventQueue::runOne brackets every callback with beginEvent/endEvent
 * and the profiler attributes host wall time and event counts to the
 * EventCat the event was scheduled under. Results are wall-clock
 * based and therefore non-deterministic; they are reported only in
 * runtime sections of bench JSON (excluded by
 * BEACON_BENCH_JSON_NO_WALL, like wall_seconds).
 */

#ifndef BEACON_OBS_SELF_PROFILE_HH
#define BEACON_OBS_SELF_PROFILE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/wall_clock.hh"
#include "sim/event_queue.hh"

namespace beacon::obs
{

/** Per-category accumulation. */
struct SelfProfileCat
{
    std::uint64_t events = 0;
    double wall_seconds = 0;
    /** Most expensive single callback seen, in seconds. */
    double max_event_seconds = 0;
};

/** Aggregated self-profile, snapshot via SelfProfiler::result(). */
struct SelfProfileResult
{
    bool enabled = false;
    std::uint64_t events = 0;
    double wall_seconds = 0;

    /** Indexed by EventCat. */
    std::array<SelfProfileCat, num_event_cats> by_cat{};

    /** Executed events per host second (0 when no time elapsed). */
    double eventsPerSecond() const
    {
        return wall_seconds > 0 ? double(events) / wall_seconds : 0;
    }

    /**
     * Category names ordered by descending wall time, costliest
     * first, empty categories skipped; at most @p k entries.
     */
    std::vector<std::string> topCategories(std::size_t k = 3) const;
};

/** EventProfiler implementation using the sanctioned WallClock. */
class SelfProfiler : public EventProfiler
{
  public:
    void
    beginEvent(EventCat, Tick) override
    {
        begin = WallClock::now();
    }

    void
    endEvent(EventCat cat) override
    {
        const double dt = WallClock::secondsSince(begin);
        SelfProfileCat &c = by_cat[std::size_t(cat)];
        ++c.events;
        c.wall_seconds += dt;
        if (dt > c.max_event_seconds)
            c.max_event_seconds = dt;
    }

    SelfProfileResult result() const;

  private:
    WallClock::TimePoint begin{};
    std::array<SelfProfileCat, num_event_cats> by_cat{};
};

} // namespace beacon::obs

#endif // BEACON_OBS_SELF_PROFILE_HH
