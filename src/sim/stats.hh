/**
 * @file
 * Lightweight named-statistics framework.
 *
 * Components register counters, vector counters, and sample
 * histograms with a StatRegistry; benchmark harnesses read them back
 * by name and the registry can dump all values for debugging.
 */

#ifndef BEACON_SIM_STATS_HH
#define BEACON_SIM_STATS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace beacon
{

/** A monotonically accumulating scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator+=(double v) { _value += v; return *this; }
    Counter &operator++() { _value += 1; return *this; }

    double value() const { return _value; }
    void reset() { _value = 0; }

  private:
    double _value = 0;
};

/** A fixed-size vector of counters (e.g., per-chip access counts). */
class VectorCounter
{
  public:
    explicit VectorCounter(std::size_t size = 0) : values(size, 0) {}

    void resize(std::size_t size) { values.assign(size, 0); }
    std::size_t size() const { return values.size(); }

    double &operator[](std::size_t i) { return values.at(i); }
    double operator[](std::size_t i) const { return values.at(i); }

    double total() const;
    double mean() const;
    double maxValue() const;
    double minValue() const;
    /** Coefficient of variation (stddev / mean); 0 when empty. */
    double cov() const;

    void reset() { std::fill(values.begin(), values.end(), 0); }

  private:
    std::vector<double> values;
};

/**
 * Streaming sample statistics (count / mean / min / max / stddev)
 * plus a fixed power-of-two bucket histogram for streaming
 * percentile estimates.
 *
 * Bucket b holds samples in [2^(b-17), 2^(b-16)); bucket 0 also
 * absorbs non-positive and underflowing samples, the last bucket
 * absorbs overflow. The range 2^-17..2^47 comfortably covers both
 * millisecond latencies and picosecond tick durations.
 */
class SampleStat
{
  public:
    static constexpr std::size_t num_buckets = 64;
    /** Exponent of the upper edge of bucket 0 (2^bucket0_exp). */
    static constexpr int bucket0_exp = -16;

    void sample(double v);

    std::uint64_t count() const { return n; }
    double mean() const { return n ? sum / double(n) : 0; }
    double minValue() const { return n ? mn : 0; }
    double maxValue() const { return n ? mx : 0; }
    double variance() const;
    double stddev() const;

    /** Histogram bucket index a sample of value @p v lands in. */
    static std::size_t bucketIndex(double v);

    /** Lower edge of bucket @p b (0 for bucket 0). */
    static double bucketLow(std::size_t b);

    /** Upper edge (exclusive) of bucket @p b. */
    static double bucketHigh(std::size_t b);

    const std::array<std::uint64_t, num_buckets> &buckets() const
    {
        return hist;
    }

    /**
     * Streaming percentile estimate for quantile @p q in [0, 1].
     *
     * Finds the bucket holding the ceil(q*n)-th sample and returns
     * its geometric midpoint, clamped into [minValue, maxValue] —
     * accurate to within the power-of-two bucket width (a factor of
     * sqrt(2)). Use quantileSorted() when the exact order statistic
     * is required.
     */
    double percentile(double q) const;

    void reset() { *this = SampleStat{}; }

  private:
    std::uint64_t n = 0;
    double sum = 0;
    double sumsq = 0;
    double mn = 0;
    double mx = 0;
    std::array<std::uint64_t, num_buckets> hist{};
};

/**
 * Exact ceil-rank quantile of an ascending-sorted sample set: the
 * element with rank ceil(q*n) (1-based), the historical rule used by
 * the service-layer tenant reports. Returns 0 when empty.
 */
double quantileSorted(const std::vector<double> &sorted, double q);

/**
 * Name-indexed registry of statistics.
 *
 * Stats are created on first access; names are hierarchical by
 * convention ("dimm0.rank1.actEnergy").
 *
 * Thread model: one registry belongs to one machine, which is built
 * and driven on one thread (in a sweep, inside one SweepRunner
 * job). That confinement is why neither the name -> stat maps nor
 * the stat values take a lock.
 */
class StatRegistry
{
  public:
    Counter &counter(const std::string &name);
    VectorCounter &vectorCounter(const std::string &name,
                                 std::size_t size);
    SampleStat &sampleStat(const std::string &name);

    /** Value of a counter, or 0 if absent. */
    double counterValue(const std::string &name) const;

    /** Sum of all counters whose name contains @p substring. */
    double sumMatching(const std::string &substring) const;

    /** All counters, sorted by name. */
    const std::map<std::string, Counter> &counters() const
    {
        return scalar_stats;
    }

    const std::map<std::string, VectorCounter> &vectorCounters() const
    {
        return vector_stats;
    }

    /** All sample stats, sorted by name. */
    const std::map<std::string, SampleStat> &sampleStats() const
    {
        return sample_stats;
    }

    void dump(std::ostream &os) const;
    void resetAll();

  private:
    std::map<std::string, Counter> scalar_stats;
    std::map<std::string, VectorCounter> vector_stats;
    std::map<std::string, SampleStat> sample_stats;
};

} // namespace beacon

#endif // BEACON_SIM_STATS_HH
