/**
 * @file
 * Streaming summary statistics and percentile estimation.
 */

#ifndef PLIANT_UTIL_STATS_HH
#define PLIANT_UTIL_STATS_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace pliant {
namespace util {

/**
 * Welford-style streaming mean/variance plus min/max tracking.
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x)
    {
        ++n;
        const double delta = x - meanVal;
        meanVal += delta / static_cast<double>(n);
        m2 += delta * (x - meanVal);
        minVal = std::min(minVal, x);
        maxVal = std::max(maxVal, x);
        sumVal += x;
    }

    /** Merge another accumulator into this one (parallel-safe pattern). */
    void merge(const RunningStats &other)
    {
        if (other.n == 0)
            return;
        if (n == 0) {
            *this = other;
            return;
        }
        const double delta = other.meanVal - meanVal;
        const std::size_t total = n + other.n;
        meanVal += delta * static_cast<double>(other.n) /
                   static_cast<double>(total);
        m2 += other.m2 + delta * delta * static_cast<double>(n) *
              static_cast<double>(other.n) / static_cast<double>(total);
        minVal = std::min(minVal, other.minVal);
        maxVal = std::max(maxVal, other.maxVal);
        sumVal += other.sumVal;
        n = total;
    }

    std::size_t count() const { return n; }
    double mean() const { return n ? meanVal : 0.0; }
    double sum() const { return sumVal; }

    double variance() const
    {
        return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }
    double min() const { return n ? minVal : 0.0; }
    double max() const { return n ? maxVal : 0.0; }

    /** Coefficient of variation (0 when the mean is 0). */
    double cv() const
    {
        return meanVal != 0.0 ? stddev() / meanVal : 0.0;
    }

    void reset() { *this = RunningStats(); }

  private:
    std::size_t n = 0;
    double meanVal = 0.0;
    double m2 = 0.0;
    double sumVal = 0.0;
    double minVal = std::numeric_limits<double>::infinity();
    double maxVal = -std::numeric_limits<double>::infinity();
};

/**
 * Exact percentiles of an unsorted, NaN-free sample by
 * histogram-prefiltered selection. With rank = (ps[k] / 100) * (n - 1),
 * lo = size_t(rank), hi = min(lo + 1, n - 1) and frac = rank - lo,
 * out[k] = vlo + frac * (vhi - vlo) over the lo-th and hi-th order
 * statistics: bit-identical to sorting @p sample and interpolating
 * between closest ranks (values that compare equal are
 * interchangeable; only -0.0 vs +0.0 could tell them apart). Used by
 * the monitor's interval close, whose window dies with the interval,
 * and by FiveNumber.
 *
 * Three linear passes narrow the sample to the few values that can be
 * those order statistics:
 *  1. Take the minimum mn and maximum mx, in four independent lanes.
 *  2. Count values per bucket size_t((v - mn) * scale), with scale =
 *     (buckets - 1) / (mx - mn). IEEE subtraction, multiplication by a
 *     positive constant and truncation are each monotone, so v <= w
 *     gives bucket(v) <= bucket(w): every value of a bucket is below
 *     every value of a higher bucket, and the prefix counts name the
 *     bucket that holds each requested rank. Rounding keeps mx's index
 *     at most buckets - 1.
 *  3. Move the values of only those buckets to the front, branchless:
 *     an unconditional swap and a conditional increment keep the
 *     sample a permutation of itself.
 * Then, on that prefix and with each rank remapped into it,
 * std::nth_element places the lo-th order statistic and the hi-th is
 * the minimum of the part above it. Each selection only partitions the
 * range the previous one left above it, so an ascending list is
 * cheapest; any order is correct.
 *
 * buckets = clamp(bit_ceil(n) / 4, 4, 1024), counted on the stack; the
 * call never allocates. A degenerate range (all values equal, an
 * infinite min or max, or a span too small for a finite scale) forms
 * no product: the sample is one bucket and the selection runs on all
 * of it.
 *
 * @param sample reordered in place (partitioned, not sorted).
 * @param ps percentiles in [0, 100].
 * @param out one value per entry of @p ps; 0 on an empty sample.
 */
inline void
selectPercentiles(std::vector<double> &sample, std::span<const double> ps,
                  std::span<double> out)
{
    const std::size_t n = sample.size();
    if (n <= 1) {
        for (std::size_t k = 0; k < ps.size(); ++k)
            out[k] = n ? sample.front() : 0.0;
        return;
    }
    double *const a = sample.data();

    // 1. Four independent min/max chains; the tail joins lane 0.
    double mn0 = a[0], mn1 = a[0], mn2 = a[0], mn3 = a[0];
    double mx0 = a[0], mx1 = a[0], mx2 = a[0], mx3 = a[0];
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        mn0 = std::min(mn0, a[i]);
        mn1 = std::min(mn1, a[i + 1]);
        mn2 = std::min(mn2, a[i + 2]);
        mn3 = std::min(mn3, a[i + 3]);
        mx0 = std::max(mx0, a[i]);
        mx1 = std::max(mx1, a[i + 1]);
        mx2 = std::max(mx2, a[i + 2]);
        mx3 = std::max(mx3, a[i + 3]);
    }
    for (; i < n; ++i) {
        mn0 = std::min(mn0, a[i]);
        mx0 = std::max(mx0, a[i]);
    }
    const double mn = std::min(std::min(mn0, mn1), std::min(mn2, mn3));
    const double mx = std::max(std::max(mx0, mx1), std::max(mx2, mx3));

    constexpr std::size_t kMaxBuckets = 1024;
    std::size_t buckets =
        std::clamp<std::size_t>(std::bit_ceil(n) / 4, 4, kMaxBuckets);
    double scale = static_cast<double>(buckets - 1) / (mx - mn);
    // Degenerate: a zero span (all values equal) or one below ~1e-305
    // makes the scale infinite, an infinite min or max makes it 0 or
    // NaN. Then the sample is one bucket and no product is formed.
    if (!(scale > 0.0 && scale <= std::numeric_limits<double>::max())) {
        buckets = 1;
        scale = 0.0;
    }
    // Via int64_t: the index is below 1024, and x86-64 converts a
    // double to a signed integer in one instruction.
    const auto bucketOf = [mn, scale](double v) {
        return static_cast<std::size_t>(
            static_cast<std::int64_t>((v - mn) * scale));
    };

    // 2. first[b]: rank of bucket b's smallest value; first[buckets]
    // is n.
    std::size_t first[kMaxBuckets + 1];
    std::fill_n(first, buckets, std::size_t{0});
    if (scale > 0.0) {
        for (std::size_t j = 0; j < n; ++j)
            ++first[bucketOf(a[j])];
    } else {
        first[0] = n;
    }
    std::size_t below = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::size_t count = first[b];
        first[b] = below;
        below += count;
    }
    first[buckets] = n;
    const auto bucketOfRank = [&first, buckets](std::size_t r) {
        return static_cast<std::size_t>(
            std::upper_bound(first, first + buckets + 1, r) - first - 1);
    };

    struct Rank
    {
        std::size_t lo, hi;
        double frac;
    };
    const auto rankOf = [n](double p) {
        const double rank = (p / 100.0) * static_cast<double>(n - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        return Rank{lo, std::min(lo + 1, n - 1),
                    rank - static_cast<double>(lo)};
    };

    bool keep[kMaxBuckets];
    std::fill_n(keep, buckets, false);
    for (const double p : ps) {
        const Rank r = rankOf(p);
        keep[bucketOfRank(r.lo)] = true;
        keep[bucketOfRank(r.hi)] = true;
    }
    // 3. The kept buckets' values to a[0, m), the rest behind them.
    std::size_t m = n;
    if (scale > 0.0) {
        m = 0;
        for (std::size_t j = 0; j < n; ++j) {
            const double v = a[j];
            const bool take = keep[bucketOf(v)];
            a[j] = a[m];
            a[m] = v;
            m += take;
        }
    }
    // Where kept bucket b's values start in a[0, m).
    const auto keptBelow = [&first, &keep](std::size_t b) {
        std::size_t kept = 0;
        for (std::size_t c = 0; c < b; ++c)
            kept += keep[c] ? first[c + 1] - first[c] : 0;
        return kept;
    };

    // Invariant: a[0, from) <= a[from, m), and a[from-1] is the
    // (from-1)-th order statistic of the prefix.
    const auto base = sample.begin();
    const auto end = base + m;
    std::size_t from = 0;
    for (std::size_t k = 0; k < ps.size(); ++k) {
        const Rank r = rankOf(ps[k]);
        const std::size_t b = bucketOfRank(r.lo);
        const std::size_t lo = r.lo - first[b] + keptBelow(b);
        if (lo >= from)
            std::nth_element(base + from, base + lo, end);
        else if (lo + 1 < from)
            std::nth_element(base, base + lo, base + from);
        from = lo + 1;
        const double vlo = a[lo];
        const double vhi =
            r.hi == r.lo ? vlo : *std::min_element(base + lo + 1, end);
        out[k] = vlo + r.frac * (vhi - vlo);
    }
}

/**
 * Exact percentiles of a window of small non-negative integers, kept
 * as one count per value: memory grows with the largest value, not
 * with the number of samples. percentile() interpolates between
 * closest ranks exactly as selectPercentiles does over the samples,
 * so it returns the same doubles.
 *
 * Used for per-interval core totals, whose bound (the node's cores)
 * is known up front: after reserveValues(bound), add() never
 * allocates.
 */
class IntPercentileWindow
{
  public:
    /** Count slots for every value in 0..maxValue. */
    void reserveValues(std::size_t maxValue)
    {
        if (maxValue >= counts.size())
            counts.resize(maxValue + 1, 0);
    }

    void add(std::size_t x)
    {
        reserveValues(x);
        ++counts[x];
        ++n;
    }

    std::size_t count() const { return n; }

    /**
     * @param p percentile in [0, 100].
     * @return 0 when the window is empty.
     */
    double percentile(double p) const
    {
        if (n == 0)
            return 0.0;
        const double rank = (p / 100.0) * static_cast<double>(n - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, n - 1);
        const double frac = rank - static_cast<double>(lo);
        const double vlo = orderStatistic(lo);
        const double vhi = hi == lo ? vlo : orderStatistic(hi);
        return vlo + frac * (vhi - vlo);
    }

  private:
    /** The k-th smallest sample (0-based), k < count(). */
    double orderStatistic(std::size_t k) const
    {
        std::size_t seen = 0;
        std::size_t v = 0;
        while ((seen += counts[v]) <= k)
            ++v;
        return static_cast<double>(v);
    }

    std::vector<std::size_t> counts;
    std::size_t n = 0;
};

/**
 * P² (Jain & Chlamtac) streaming quantile estimator: O(1) memory,
 * suitable for monitoring long latency streams without retention.
 */
class P2Quantile
{
  public:
    /** @param quantile target quantile in (0, 1), e.g. 0.99. */
    explicit P2Quantile(double quantile) : q(quantile) {}

    /** Feed one observation. */
    void add(double x)
    {
        if (count_ < 5) {
            heights[count_++] = x;
            if (count_ == 5) {
                std::sort(heights, heights + 5);
                for (int i = 0; i < 5; ++i)
                    positions[i] = i + 1;
                desired[0] = 1;
                desired[1] = 1 + 2 * q;
                desired[2] = 1 + 4 * q;
                desired[3] = 3 + 2 * q;
                desired[4] = 5;
                increments[0] = 0;
                increments[1] = q / 2;
                increments[2] = q;
                increments[3] = (1 + q) / 2;
                increments[4] = 1;
            }
            return;
        }

        if (x < heights[0])
            heights[0] = x;
        else if (x >= heights[4])
            heights[4] = x;
        // Marker cell k in [0, 3] without a scan: the heights stay
        // sorted (linear() lands between its neighbours, parabolic()
        // is only taken strictly between them), so the markers x
        // reaches form a prefix and counting them equals the scan.
        const int k = (x >= heights[1]) + (x >= heights[2]) +
            (x >= heights[3]);

        // Markers above cell k shift right. positions[0] never moves,
        // nor does desired[0] (its increment is 0); desired[4] gains
        // exactly 1 — each update is bit-identical to the loop form.
        // Integer positions make the shifts plain adds of a compare;
        // as doubles, gcc turns them into a branch on k == 0, which
        // a lognormal stream takes about half the time.
        positions[1] += (k < 1);
        positions[2] += (k < 2);
        positions[3] += (k < 3);
        positions[4] += 1;
        desired[1] += increments[1];
        desired[2] += increments[2];
        desired[3] += increments[3];
        desired[4] += 1;

        for (int i = 1; i <= 3; ++i) {
            const double d =
                desired[i] - static_cast<double>(positions[i]);
            const bool up = d >= 1 && positions[i + 1] - positions[i] > 1;
            const bool down = d <= -1 && positions[i - 1] - positions[i] < -1;
            if (up || down) {
                const int sign = d >= 0 ? 1 : -1;
                const double candidate = parabolic(i, sign);
                if (heights[i - 1] < candidate &&
                    candidate < heights[i + 1]) {
                    heights[i] = candidate;
                } else {
                    heights[i] = linear(i, sign);
                }
                positions[i] += sign;
            }
        }
        ++count_;
    }

    /**
     * Merge another estimator targeting the same quantile into this
     * one — the cross-node reduction the streaming rollup layer
     * needs (a single P2Quantile fed from one stream is NOT
     * equivalent to merging per-shard sketches; this is a
     * deterministic sketch-of-sketches).
     *
     * Marker combination: the outer markers (running min/max) merge
     * exactly; the interior markers combine as count-weighted means,
     * and the marker positions/desired positions are rebuilt from
     * the P² ideal positions for the combined count. Because
     * min/max and count-weighted sums re-associate exactly in real
     * arithmetic, any fold order over the same shard set agrees to
     * ~1e-15 relative — but NOT bit-exactly, so reductions that feed
     * golden-pinned outputs must fold in a fixed order (ascending
     * tenant/node index, the PR 7 tenant-order reduction pattern) on
     * one thread. Sides still in the raw-sample stage (< 5
     * observations) are replayed sample-by-sample instead.
     *
     * The scalar paths that feed one estimator from one stream
     * (core::PerformanceMonitor's longRun and steady sketches) are
     * untouched by this: they never merge, and their add() sequence
     * — hence their golden-pinned values — is byte-identical to the
     * pre-merge implementation.
     */
    void merge(const P2Quantile &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        if (other.count_ < 5) {
            // The other side holds raw samples: replay them.
            for (std::size_t i = 0; i < other.count_; ++i)
                add(other.heights[i]);
            return;
        }
        if (count_ < 5) {
            // This side holds raw samples: replay into a copy of the
            // already-initialized other side.
            P2Quantile merged = other;
            for (std::size_t i = 0; i < count_; ++i)
                merged.add(heights[i]);
            *this = merged;
            return;
        }
        const double wa = static_cast<double>(count_);
        const double wb = static_cast<double>(other.count_);
        heights[0] = std::min(heights[0], other.heights[0]);
        heights[4] = std::max(heights[4], other.heights[4]);
        for (int i = 1; i <= 3; ++i)
            heights[i] =
                (wa * heights[i] + wb * other.heights[i]) / (wa + wb);
        count_ += other.count_;
        // Rebuild marker bookkeeping at the ideal P² positions for
        // the combined count (closed forms of init + n-5 increments),
        // so future add() calls continue the estimator normally.
        const double n = static_cast<double>(count_);
        desired[0] = 1;
        desired[1] = 1 + q * (n - 1) / 2;
        desired[2] = 1 + q * (n - 1);
        desired[3] = 1 + (1 + q) * (n - 1) / 2;
        desired[4] = n;
        positions[0] = 1;
        for (int i = 1; i < 5; ++i) {
            auto p = static_cast<std::int64_t>(std::floor(desired[i] + 0.5));
            p = std::max(p, positions[i - 1] + 1);
            p = std::min(p, static_cast<std::int64_t>(count_) - (4 - i));
            positions[i] = p;
        }
    }

    /** Current quantile estimate (exact for < 5 observations). */
    double value() const
    {
        if (count_ == 0)
            return 0.0;
        if (count_ < 5) {
            double v[5];
            std::copy(heights, heights + count_, v);
            std::sort(v, v + count_);
            const double rank = q * static_cast<double>(count_ - 1);
            const std::size_t lo = static_cast<std::size_t>(rank);
            const std::size_t hi = std::min(lo + 1, count_ - 1);
            const double frac = rank - static_cast<double>(lo);
            return v[lo] + frac * (v[hi] - v[lo]);
        }
        return heights[2];
    }

    std::size_t count() const { return count_; }

  private:
    /** positions[a] - positions[b] as a double (exact). */
    double gap(int a, int b) const
    {
        return static_cast<double>(positions[a] - positions[b]);
    }

    double parabolic(int i, int sign) const
    {
        const double d = static_cast<double>(sign);
        return heights[i] + d / gap(i + 1, i - 1) *
            ((gap(i, i - 1) + d) * (heights[i + 1] - heights[i]) /
                 gap(i + 1, i) +
             (gap(i + 1, i) - d) * (heights[i] - heights[i - 1]) /
                 gap(i, i - 1));
    }

    double linear(int i, int sign) const
    {
        return heights[i] + sign * (heights[i + sign] - heights[i]) /
            gap(i + sign, i);
    }

    double q;
    double heights[5] = {};
    /**
     * Marker positions: whole numbers, so they are kept as integers
     * and converted (exactly) only where the formulas above divide.
     */
    std::int64_t positions[5] = {};
    double desired[5] = {};
    double increments[5] = {};
    std::size_t count_ = 0;
};

/**
 * Five-number summary (min, q1, median, q3, max) of a sample —
 * the data behind a violin/box plot. Each field is the 0th, 25th,
 * 50th, 75th or 100th percentile from selectPercentiles, so min and
 * max are the sample's extremes whenever it is finite.
 */
struct FiveNumber
{
    double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;

    static FiveNumber of(std::vector<double> v)
    {
        static constexpr double kPercentiles[] = {0.0, 25.0, 50.0, 75.0,
                                                  100.0};
        double q[5];
        selectPercentiles(v, kPercentiles, q);
        return {q[0], q[1], q[2], q[3], q[4]};
    }
};

} // namespace util
} // namespace pliant

#endif // PLIANT_UTIL_STATS_HH
