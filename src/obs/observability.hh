/**
 * @file
 * Bundle tying the telemetry parts to one EventQueue.
 *
 * NdpSystem owns one Observability instance per machine (absent when
 * ObsConfig is all-off, so the default cost is a null pointer). The
 * bundle attaches the TraceSink and SelfProfiler to the queue,
 * starts the Sampler, and handles end-of-run emission.
 */

#ifndef BEACON_OBS_OBSERVABILITY_HH
#define BEACON_OBS_OBSERVABILITY_HH

#include <memory>
#include <string>

#include "obs/obs_config.hh"
#include "obs/request_trace.hh"
#include "obs/sampler.hh"
#include "obs/self_profile.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"

namespace beacon::obs
{

class Observability
{
  public:
    Observability(EventQueue &eq, const ObsConfig &cfg);
    ~Observability();

    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;

    /** Trace sink, or nullptr when tracing is off. */
    TraceSink *trace() { return sink_.get(); }

    /** Sampler, or nullptr when sampling is off. */
    Sampler *sampler() { return sampler_.get(); }

    /** Request trace, or nullptr when request tracing is off. */
    RequestTrace *requestTrace() { return reqtrace_.get(); }

    bool selfProfiling() const { return profiler_ != nullptr; }

    /** Snapshot of the self-profile (enabled=false when off). */
    SelfProfileResult selfProfile() const;

    /**
     * Stop sampling (recording the final partial row). Call once the
     * run is over, while all series callbacks are still alive.
     */
    void finish();

    /** Write the trace as Chrome JSON; false (with a warning) on
     * I/O failure or when tracing is off. */
    bool writeTrace(const std::string &path) const;

    /** Write the time series; ".csv" selects CSV, anything else the
     * versioned JSON form. */
    bool writeTimeseries(const std::string &path) const;

    /** Write the request trace ("beacon-reqtrace-1"); false (with a
     * warning) on I/O failure or when request tracing is off. */
    bool writeRequestTrace(const std::string &path) const;

  private:
    EventQueue &eq;
    std::unique_ptr<TraceSink> sink_;
    std::unique_ptr<Sampler> sampler_;
    std::unique_ptr<SelfProfiler> profiler_;
    std::unique_ptr<RequestTrace> reqtrace_;
};

} // namespace beacon::obs

#endif // BEACON_OBS_OBSERVABILITY_HH
