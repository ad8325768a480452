/**
 * @file
 * Simple linear and log-scale histograms for latency distributions.
 */

#ifndef PLIANT_UTIL_HISTOGRAM_HH
#define PLIANT_UTIL_HISTOGRAM_HH

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace pliant {
namespace util {

/**
 * Log-bucketed histogram. Bucket i covers [lo * base^i, lo * base^(i+1)).
 * Values below lo land in an underflow bucket; values past the last
 * bucket land in overflow.
 */
class LogHistogram
{
  public:
    /**
     * @param lo lower bound of the first bucket (must be > 0).
     * @param base bucket growth factor (must be > 1).
     * @param buckets number of regular buckets.
     */
    LogHistogram(double lo, double base, std::size_t buckets)
        : loBound(lo), growth(base), counts(buckets + 2, 0)
    {
    }

    void add(double x)
    {
        ++total;
        if (x < loBound) {
            ++counts.front();
            return;
        }
        const double idx = std::log(x / loBound) / std::log(growth);
        // x >= loBound here, but for x barely above loBound the
        // quotient — and with it idx — can round to just below
        // zero, and casting a negative double to size_t is
        // undefined behavior. Clamp to bucket 0 before the cast
        // (the value is in the first bucket either way).
        const std::size_t bucket =
            idx > 0.0 ? static_cast<std::size_t>(idx) : 0;
        if (bucket + 1 >= counts.size() - 1) {
            ++counts.back();
        } else {
            ++counts[bucket + 1];
        }
    }

    /** Approximate quantile from bucket boundaries (q in [0,1]). */
    double quantile(double q) const
    {
        if (total == 0)
            return 0.0;
        const std::size_t target = static_cast<std::size_t>(
            q * static_cast<double>(total - 1));
        std::size_t seen = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            seen += counts[i];
            if (seen > target) {
                if (i == 0)
                    return loBound;
                if (i == counts.size() - 1)
                    return bucketLo(counts.size() - 2) * growth;
                // Midpoint of the bucket on a log scale.
                return bucketLo(i - 1) * std::sqrt(growth);
            }
        }
        return bucketLo(counts.size() - 2) * growth;
    }

    std::size_t count() const { return total; }
    const std::vector<std::size_t> &buckets() const { return counts; }
    double lo() const { return loBound; }
    double base() const { return growth; }

    /** Lower edge of regular bucket i (0-based, excluding under/over). */
    double bucketLo(std::size_t i) const
    {
        return loBound * std::pow(growth, static_cast<double>(i));
    }

  private:
    double loBound;
    double growth;
    std::vector<std::size_t> counts; // [under, b0..bN-1, over]
    std::size_t total = 0;
};

/**
 * ASCII sparkline of a series, for timeline benches.
 */
std::string sparkline(const std::vector<double> &series);

} // namespace util
} // namespace pliant

#endif // PLIANT_UTIL_HISTOGRAM_HH
