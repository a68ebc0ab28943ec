/**
 * @file
 * Live per-tenant SLO monitoring: streaming log-bucket latency
 * histograms with windowed percentiles and burn-rate counters.
 *
 * LogHistogram is a fixed-shape HDR-style histogram (log2 major
 * buckets, 3 sub-bucket bits => at most ~9% relative bucket width)
 * over unsigned tick values. Everything is u64 integer arithmetic:
 * add/merge/percentile are exact functions of the recorded multiset
 * of bucket indices, so histograms are bit-identical across hosts.
 *
 * SloMonitor keeps one histogram pair per tenant (current window +
 * lifetime), rolls windows on a self-scheduled EventCat::Sampler
 * event, and exposes last-closed-window p50/p99 and SLO burn rate
 * for Sampler time-series registration.
 */

#ifndef BEACON_OBS_SLO_HH
#define BEACON_OBS_SLO_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "sim/event_queue.hh"

namespace beacon::obs
{

/** Fixed log-bucket histogram over u64 values (see file comment). */
class LogHistogram
{
  public:
    /** Sub-bucket resolution bits per octave. */
    static constexpr unsigned sub_bits = 3;

    /** Bucket count covering the full u64 range. */
    static constexpr std::size_t num_buckets = 512;

    /** Bucket index of @p v; monotone non-decreasing in v. */
    static std::uint32_t bucketIndex(std::uint64_t v);

    /** Largest value mapping to bucket @p idx (reported quantile). */
    static std::uint64_t bucketUpper(std::uint32_t idx);

    void
    add(std::uint64_t v)
    {
        ++buckets_[bucketIndex(v)];
        ++count_;
    }

    /** Pointwise sum; equals the histogram of the merged multiset. */
    void merge(const LogHistogram &other);

    void clear();

    std::uint64_t count() const { return count_; }

    /**
     * Quantile @p q in [0, 100] under the exact ceil-rank rule of
     * sim/stats.hh quantileSorted: the bucket upper bound of the
     * sample with 1-based rank max(1, ceil(q/100 * count)). Returns
     * 0 on an empty histogram.
     */
    std::uint64_t percentile(unsigned q) const;

    const std::array<std::uint64_t, num_buckets> &
    buckets() const
    {
        return buckets_;
    }

  private:
    std::array<std::uint64_t, num_buckets> buckets_{};
    std::uint64_t count_ = 0;
};

/**
 * Per-tenant windowed SLO monitor.
 *
 * record() is called at job completion (the orchestrator's
 * completion events); window rolls run as EventCat::Sampler events
 * and reads at report collection.
 */
class SloMonitor
{
  public:
    /** Snapshot of one closed window. */
    struct WindowStats
    {
        Tick p50 = 0;
        Tick p99 = 0;
        std::uint64_t jobs = 0;
        std::uint64_t breaches = 0;
    };

    /** @p window is the roll interval in ticks (> 0). */
    SloMonitor(EventQueue &eq, Tick window);
    ~SloMonitor();

    SloMonitor(const SloMonitor &) = delete;
    SloMonitor &operator=(const SloMonitor &) = delete;

    /**
     * Register a tenant; @p target is the SLO latency target in
     * ticks (0 = no target: jobs are recorded but never count as
     * breaches). Returns the tenant index expected by record().
     */
    unsigned addTenant(std::string name, Tick target);

    /** Arm the first window roll at now() + window. Idempotent. */
    void start();

    /**
     * Cancel the pending roll and close one final partial window if
     * any job completed since the last roll. Idempotent.
     */
    void finish();

    /** Job for tenant @p tenant completed with @p latency ticks. */
    void record(unsigned tenant, Tick latency);

    Tick window() const { return window_; }
    std::size_t numTenants() const { return tenants.size(); }
    const std::string &tenantName(unsigned t) const
    {
        return tenants.at(t).name;
    }
    Tick target(unsigned t) const { return tenants.at(t).target; }

    /** Stats of the last closed window (zeros before the first). */
    const WindowStats &lastWindow(unsigned t) const
    {
        return tenants.at(t).last;
    }

    /**
     * Breach fraction of the last closed window in [0, 1]
     * (0 when the window saw no jobs) — the SLO burn rate.
     */
    double burnRate(unsigned t) const;

    /** Lifetime totals (closed windows only until finish()). */
    std::uint64_t totalJobs(unsigned t) const
    {
        return tenants.at(t).total_jobs;
    }
    std::uint64_t totalBreaches(unsigned t) const
    {
        return tenants.at(t).total_breaches;
    }
    const LogHistogram &totalHistogram(unsigned t) const
    {
        return tenants.at(t).total;
    }

    /** Windows closed so far (including the finish() partial). */
    std::uint64_t windowsClosed() const { return n_windows; }

  private:
    struct Tenant
    {
        std::string name;
        Tick target = 0;
        LogHistogram cur;
        LogHistogram total;
        std::uint64_t cur_jobs = 0;
        std::uint64_t cur_breaches = 0;
        std::uint64_t total_jobs = 0;
        std::uint64_t total_breaches = 0;
        WindowStats last;
    };

    void rollNow();
    void reschedule();

    EventQueue &eq;
    Tick window_;
    EventId pending_ev = 0;
    bool armed = false;
    Tick last_roll = 0;
    bool dirty = false; // a record() happened since the last roll
    std::uint64_t n_windows = 0;
    std::vector<Tenant> tenants;
};

} // namespace beacon::obs

#endif // BEACON_OBS_SLO_HH
