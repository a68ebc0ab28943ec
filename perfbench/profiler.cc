#include "profiler.hh"

#include <algorithm>

namespace perfbench
{

std::chrono::nanoseconds
LayerProfile::callbackTime() const
{
    std::chrono::nanoseconds total{0};
    for (const Layer &l : layers)
        total += l.host;
    return total;
}

bool
LayerProfile::sameCounts(const LayerProfile &other) const
{
    for (std::size_t cat = 0; cat < layers.size(); ++cat)
        if (layers[cat].events != other.layers[cat].events)
            return false;
    return heap_peak == other.heap_peak &&
           cancelled_peak == other.cancelled_peak;
}

void
LayerProfiler::beginEvent(beacon::EventCat, beacon::Tick)
{
    started = std::chrono::steady_clock::now();
}

void
LayerProfiler::endEvent(beacon::EventCat cat)
{
    LayerProfile::Layer &l = result.layers[std::size_t(cat)];
    l.host += std::chrono::steady_clock::now() - started;
    ++l.events;
    // After the callback, what it scheduled or cancelled is visible;
    // the queue only shrinks between this sample and the next one.
    const std::uint64_t heap = eq.pendingIncludingCancelled();
    result.heap_peak = std::max(result.heap_peak, heap);
    result.cancelled_peak =
        std::max(result.cancelled_peak, heap - eq.pending());
}

} // namespace perfbench
