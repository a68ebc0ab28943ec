#include "observability.hh"

#include <fstream>

#include "common/logging.hh"

namespace beacon::obs
{

Observability::Observability(EventQueue &eq, const ObsConfig &cfg)
    : eq(eq)
{
    if (cfg.trace) {
        sink_ = std::make_unique<TraceSink>(eq);
        eq.setTraceSink(sink_.get());
    }
    if (cfg.request_trace) {
        reqtrace_ = std::make_unique<RequestTrace>(eq);
        eq.setRequestTrace(reqtrace_.get());
    }
    if (cfg.slo_window > 0) {
        slo_ = std::make_unique<SloMonitor>(eq, Tick(cfg.slo_window));
        slo_->start();
    }
    if (!cfg.flight_recorder_path.empty()) {
        flight_ =
            std::make_unique<FlightRecorder>(cfg.flight_recorder_path);
        eq.setFlightRecorder(flight_.get());
    }
    if (cfg.sample_interval > 0) {
        sampler_ =
            std::make_unique<Sampler>(eq, Tick(cfg.sample_interval));
        sampler_->start();
    }
    if (cfg.self_profile) {
        profiler_ = std::make_unique<SelfProfiler>();
        eq.setProfiler(profiler_.get());
    }
}

Observability::~Observability()
{
    if (sink_)
        eq.setTraceSink(nullptr);
    if (reqtrace_)
        eq.setRequestTrace(nullptr);
    if (flight_)
        eq.setFlightRecorder(nullptr);
    if (profiler_)
        eq.setProfiler(nullptr);
}

SelfProfileResult
Observability::selfProfile() const
{
    return profiler_ ? profiler_->result() : SelfProfileResult{};
}

void
Observability::finish()
{
    if (sampler_)
        sampler_->finish();
    if (slo_)
        slo_->finish();
}

bool
Observability::writeTrace(const std::string &path) const
{
    if (!sink_) {
        BEACON_WARN("no trace recorded; cannot write ", path);
        return false;
    }
    std::ofstream os(path);
    if (!os) {
        BEACON_WARN("cannot open trace file ", path);
        return false;
    }
    sink_->writeJson(os);
    return bool(os);
}

bool
Observability::writeRequestTrace(const std::string &path) const
{
    if (!reqtrace_) {
        BEACON_WARN("no request trace recorded; cannot write ", path);
        return false;
    }
    std::ofstream os(path);
    if (!os) {
        BEACON_WARN("cannot open request-trace file ", path);
        return false;
    }
    reqtrace_->writeJson(os);
    return bool(os);
}

bool
Observability::writeTimeseries(const std::string &path) const
{
    if (!sampler_) {
        BEACON_WARN("no time series recorded; cannot write ", path);
        return false;
    }
    std::ofstream os(path);
    if (!os) {
        BEACON_WARN("cannot open time-series file ", path);
        return false;
    }
    const bool csv = path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv)
        sampler_->writeCsv(os);
    else
        sampler_->writeJson(os);
    return bool(os);
}

} // namespace beacon::obs
