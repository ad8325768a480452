/**
 * @file
 * The exact percentile reference the tests compare against: sort the
 * sample, then interpolate linearly between closest ranks.
 * util::selectPercentiles, util::IntPercentileWindow and the monitor's
 * interval close must return the same doubles.
 */

#ifndef PLIANT_TESTS_UTIL_EXACT_PERCENTILE_HH
#define PLIANT_TESTS_UTIL_EXACT_PERCENTILE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace pliant {
namespace test {

/**
 * Percentile of an already-sorted sample via linear interpolation
 * between closest ranks. @param p percentile in [0, 100]. Returns 0
 * on an empty sample.
 */
inline double
sortedPercentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    if (sorted.size() == 1)
        return sorted.front();
    const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/**
 * Exact percentiles over a retained sample vector, the reference for
 * streaming estimators such as util::P2Quantile.
 *
 * Percentile queries sort a cached copy once per window generation:
 * any number of percentile()/p99()/p50() calls between adds reuse
 * the same sorted array, and the next add() invalidates it.
 */
class PercentileWindow
{
  public:
    void add(double x)
    {
        samples.push_back(x);
        sortedValid = false;
    }

    void clear()
    {
        samples.clear();
        sorted.clear();
        sortedValid = false;
    }

    std::size_t count() const { return samples.size(); }

    /**
     * @param p percentile in [0, 100].
     * @return 0 when the window is empty.
     */
    double percentile(double p) const
    {
        if (samples.empty())
            return 0.0;
        if (!sortedValid) {
            sorted = samples;
            std::sort(sorted.begin(), sorted.end());
            sortedValid = true;
        }
        return sortedPercentile(sorted, p);
    }

    double p99() const { return percentile(99.0); }
    double p50() const { return percentile(50.0); }

    double mean() const
    {
        if (samples.empty())
            return 0.0;
        double s = 0.0;
        for (double x : samples)
            s += x;
        return s / static_cast<double>(samples.size());
    }

  private:
    std::vector<double> samples;
    /** Sort cache, rebuilt lazily after the window grows. */
    mutable std::vector<double> sorted;
    mutable bool sortedValid = false;
};

} // namespace test
} // namespace pliant

#endif // PLIANT_TESTS_UTIL_EXACT_PERCENTILE_HH
