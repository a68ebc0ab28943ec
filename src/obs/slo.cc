#include "slo.hh"

#include "common/logging.hh"

namespace beacon::obs
{

namespace
{

/** Index of the most significant set bit (v > 0). Portable; the
 *  loop only runs on the job-completion path, never per event. */
unsigned
msb64(std::uint64_t v)
{
    unsigned m = 0;
    while (v >>= 1)
        ++m;
    return m;
}

} // namespace

std::uint32_t
LogHistogram::bucketIndex(std::uint64_t v)
{
    constexpr std::uint64_t sub_count = std::uint64_t(1) << sub_bits;
    if (v < sub_count)
        return std::uint32_t(v); // exact buckets for small values
    const unsigned m = msb64(v);
    const unsigned shift = m - sub_bits;
    const std::uint32_t sub =
        std::uint32_t((v >> shift) & (sub_count - 1));
    return ((m - sub_bits + 1) << sub_bits) + sub;
}

std::uint64_t
LogHistogram::bucketUpper(std::uint32_t idx)
{
    BEACON_DCHECK(idx < num_buckets, "bucket index out of range");
    constexpr std::uint64_t sub_count = std::uint64_t(1) << sub_bits;
    const std::uint32_t octave = idx >> sub_bits;
    if (octave == 0)
        return idx; // exact buckets
    const std::uint64_t sub = idx & (sub_count - 1);
    const unsigned shift = octave - 1;
    return ((sub + sub_count + 1) << shift) - 1;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    for (std::size_t i = 0; i < num_buckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
}

void
LogHistogram::clear()
{
    buckets_.fill(0);
    count_ = 0;
}

std::uint64_t
LogHistogram::percentile(unsigned q) const
{
    if (count_ == 0)
        return 0;
    if (q > 100)
        q = 100;
    // ceil(q/100 * count), 1-based; q*count fits u64 for any
    // realistic job count (q <= 100).
    std::uint64_t rank = (std::uint64_t(q) * count_ + 99) / 100;
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < num_buckets; ++i) {
        seen += buckets_[i];
        if (seen >= rank)
            return bucketUpper(std::uint32_t(i));
    }
    return bucketUpper(num_buckets - 1); // unreachable when counts sum
}

SloMonitor::SloMonitor(EventQueue &eq, Tick window)
    : eq(eq), window_(window)
{
    BEACON_CHECK(window_ > 0, "SloMonitor window must be positive");
}

SloMonitor::~SloMonitor()
{
    if (armed && eq.scheduled(pending_ev))
        eq.cancel(pending_ev);
}

unsigned
SloMonitor::addTenant(std::string name, Tick target)
{
    Tenant t;
    t.name = std::move(name);
    t.target = target;
    tenants.push_back(std::move(t));
    return unsigned(tenants.size() - 1);
}

void
SloMonitor::start()
{
    if (armed)
        return;
    armed = true;
    last_roll = eq.now();
    reschedule();
}

void
SloMonitor::reschedule()
{
    pending_ev = eq.scheduleIn(
        window_, [this] { rollNow(); reschedule(); },
        EventCat::Sampler);
}

void
SloMonitor::rollNow()
{
    for (Tenant &t : tenants) {
        t.last.p50 = Tick(t.cur.percentile(50));
        t.last.p99 = Tick(t.cur.percentile(99));
        t.last.jobs = t.cur_jobs;
        t.last.breaches = t.cur_breaches;
        t.total.merge(t.cur);
        t.total_jobs += t.cur_jobs;
        t.total_breaches += t.cur_breaches;
        t.cur.clear();
        t.cur_jobs = 0;
        t.cur_breaches = 0;
    }
    last_roll = eq.now();
    dirty = false;
    ++n_windows;
}

void
SloMonitor::finish()
{
    if (!armed)
        return;
    armed = false;
    if (eq.scheduled(pending_ev))
        eq.cancel(pending_ev);
    if (dirty)
        rollNow(); // close the final partial window
}

void
SloMonitor::record(unsigned tenant, Tick latency)
{
    Tenant &t = tenants.at(tenant);
    t.cur.add(latency);
    ++t.cur_jobs;
    if (t.target > 0 && latency > t.target)
        ++t.cur_breaches;
    dirty = true;
}

double
SloMonitor::burnRate(unsigned t) const
{
    const WindowStats &w = tenants.at(t).last;
    return w.jobs ? double(w.breaches) / double(w.jobs) : 0.0;
}

} // namespace beacon::obs
