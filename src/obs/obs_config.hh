/**
 * @file
 * Runtime switches for the telemetry subsystem.
 *
 * This header is a dependency-free leaf so that SystemParams can
 * include it without pulling the rest of src/obs into every
 * translation unit.
 *
 * All fields default to "off"; a default ObsConfig makes NdpSystem
 * skip constructing any obs machinery, so the only residual cost is
 * one null-pointer test per instrumented site.
 */

#ifndef BEACON_OBS_OBS_CONFIG_HH
#define BEACON_OBS_OBS_CONFIG_HH

#include <cstdint>

namespace beacon::obs
{

/** Runtime telemetry configuration, carried by SystemParams. */
struct ObsConfig
{
    /** Record trace events into the ring buffer. */
    bool trace = false;

    /**
     * Sampling interval in ticks (picoseconds); 0 disables the
     * time-series sampler.
     */
    std::uint64_t sample_interval = 0;

    /**
     * Host-side self-profiling of EventQueue::runOne. Wall-clock
     * based, so results are non-deterministic by design and are only
     * reported in runtime sections of bench JSON.
     */
    bool self_profile = false;

    /**
     * Request-scoped causal tracing (obs::RequestTrace): per-job
     * component spans, flow events, and the exact per-job latency
     * breakdown. Deterministic.
     */
    bool request_trace = false;

    /** True when any telemetry feature is requested. */
    bool enabled() const
    {
        return trace || sample_interval > 0 || self_profile ||
               request_trace;
    }
};

} // namespace beacon::obs

#endif // BEACON_OBS_OBS_CONFIG_HH
