/**
 * @file
 * The traced run's event profiler.
 *
 * Installed through EventQueue::setProfiler() on the traced run only;
 * it attributes host time and event counts to each event category
 * (the simulator's layers) and samples the queue's live and
 * cancelled-inclusive sizes after every callback.
 */

#ifndef PERFBENCH_PROFILER_HH
#define PERFBENCH_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>

#include "sim/event_queue.hh"

namespace perfbench
{

/** What the profiler measured over one traced simulation. */
struct LayerProfile
{
    /** Host cost of one event category. */
    struct Layer
    {
        std::uint64_t events = 0;
        std::chrono::nanoseconds host{0};
    };

    std::array<Layer, beacon::num_event_cats> layers{};
    /** Peak of pendingIncludingCancelled(). */
    std::uint64_t heap_peak = 0;
    /** Peak of pendingIncludingCancelled() - pending(). */
    std::uint64_t cancelled_peak = 0;

    const Layer &
    layer(beacon::EventCat cat) const
    {
        return layers[std::size_t(cat)];
    }

    /** Host time inside callbacks, over every category. */
    std::chrono::nanoseconds callbackTime() const;

    /** Whether the deterministic parts (event counts, peaks) agree. */
    bool sameCounts(const LayerProfile &other) const;
};

class LayerProfiler final : public beacon::EventProfiler
{
  public:
    explicit LayerProfiler(const beacon::EventQueue &queue)
        : eq(queue)
    {}

    void beginEvent(beacon::EventCat cat, beacon::Tick when) override;
    void endEvent(beacon::EventCat cat) override;

    const LayerProfile &profile() const { return result; }

  private:
    const beacon::EventQueue &eq;
    LayerProfile result;
    std::chrono::steady_clock::time_point started;
};

} // namespace perfbench

#endif // PERFBENCH_PROFILER_HH
