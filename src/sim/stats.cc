#include "stats.hh"

#include <cmath>

#include "common/logging.hh"

namespace beacon
{

double
VectorCounter::total() const
{
    double t = 0;
    for (double v : values)
        t += v;
    return t;
}

double
VectorCounter::mean() const
{
    return values.empty() ? 0 : total() / double(values.size());
}

double
VectorCounter::maxValue() const
{
    double m = 0;
    for (double v : values)
        m = std::max(m, v);
    return m;
}

double
VectorCounter::minValue() const
{
    if (values.empty())
        return 0;
    double m = values.front();
    for (double v : values)
        m = std::min(m, v);
    return m;
}

double
VectorCounter::cov() const
{
    if (values.empty())
        return 0;
    const double mu = mean();
    if (mu == 0)
        return 0;
    double acc = 0;
    for (double v : values)
        acc += (v - mu) * (v - mu);
    return std::sqrt(acc / double(values.size())) / mu;
}

void
SampleStat::sample(double v)
{
    if (n == 0) {
        mn = v;
        mx = v;
    } else {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
    }
    ++n;
    sum += v;
    sumsq += v * v;
    ++hist[bucketIndex(v)];
}

std::size_t
SampleStat::bucketIndex(double v)
{
    if (!(v > 0) || !std::isfinite(v))
        return 0;
    // frexp: v = m * 2^e with m in [0.5, 1) => v in [2^(e-1), 2^e).
    int e = 0;
    std::frexp(v, &e);
    const long idx = long(e) - (bucket0_exp + 1) + 1;
    if (idx <= 0)
        return 0;
    return std::min<std::size_t>(std::size_t(idx), num_buckets - 1);
}

double
SampleStat::bucketLow(std::size_t b)
{
    if (b == 0)
        return 0;
    return std::ldexp(1.0, int(b) + bucket0_exp - 1);
}

double
SampleStat::bucketHigh(std::size_t b)
{
    return std::ldexp(1.0, int(b) + bucket0_exp);
}

double
SampleStat::percentile(double q) const
{
    if (n == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    std::uint64_t rank = std::uint64_t(std::ceil(q * double(n)));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    std::size_t b = 0;
    for (; b < num_buckets; ++b) {
        seen += hist[b];
        if (seen >= rank)
            break;
    }
    if (b >= num_buckets)
        b = num_buckets - 1;
    const double lo = bucketLow(b);
    const double hi = bucketHigh(b);
    // Geometric midpoint of the bucket; bucket 0 has no positive
    // lower edge, so report its upper edge scaled down instead.
    const double mid = lo > 0 ? std::sqrt(lo * hi) : hi * 0.5;
    return std::clamp(mid, minValue(), maxValue());
}

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const std::size_t rank =
        std::size_t(std::ceil(q * double(sorted.size())));
    const std::size_t idx =
        rank == 0 ? 0 : std::min(sorted.size() - 1, rank - 1);
    return sorted[idx];
}

double
SampleStat::variance() const
{
    if (n == 0)
        return 0;
    const double mu = mean();
    return sumsq / double(n) - mu * mu;
}

double
SampleStat::stddev() const
{
    return std::sqrt(std::max(0.0, variance()));
}

Counter &
StatRegistry::counter(const std::string &name)
{
    // std::map never invalidates references on insert, so the
    // returned Counter& stays valid as later stats are created.
    return scalar_stats[name];
}

VectorCounter &
StatRegistry::vectorCounter(const std::string &name, std::size_t size)
{
    auto [it, inserted] = vector_stats.try_emplace(name, size);
    if (inserted || it->second.size() != size)
        it->second.resize(size);
    return it->second;
}

SampleStat &
StatRegistry::sampleStat(const std::string &name)
{
    return sample_stats[name];
}

double
StatRegistry::counterValue(const std::string &name) const
{
    auto it = scalar_stats.find(name);
    return it == scalar_stats.end() ? 0 : it->second.value();
}

double
StatRegistry::sumMatching(const std::string &substring) const
{
    double total = 0;
    for (const auto &[name, c] : scalar_stats) {
        if (name.find(substring) != std::string::npos)
            total += c.value();
    }
    return total;
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, c] : scalar_stats)
        os << name << " " << c.value() << "\n";
    for (const auto &[name, v] : vector_stats) {
        os << name << " total=" << v.total() << " mean=" << v.mean()
           << " cov=" << v.cov() << "\n";
    }
    for (const auto &[name, s] : sample_stats) {
        os << name << " n=" << s.count() << " mean=" << s.mean()
           << " min=" << s.minValue() << " max=" << s.maxValue()
           << " sd=" << s.stddev() << "\n";
    }
}

void
StatRegistry::resetAll()
{
    for (auto &[name, c] : scalar_stats)
        c.reset();
    for (auto &[name, v] : vector_stats)
        v.reset();
    for (auto &[name, s] : sample_stats)
        s.reset();
}

} // namespace beacon
