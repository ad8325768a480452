/**
 * @file
 * Tests for streaming statistics and percentile estimators.
 */

#include "util/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/exact_percentile.hh"
#include "util/rng.hh"

namespace {

using pliant::test::PercentileWindow;
using pliant::test::sortedPercentile;
using pliant::util::FiveNumber;
using pliant::util::IntPercentileWindow;
using pliant::util::P2Quantile;
using pliant::util::Rng;
using pliant::util::RunningStats;
using pliant::util::selectPercentiles;
using pliant::util::SplitMix64;

TEST(RunningStatsTest, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue)
{
    RunningStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownSequence)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12); // sample variance
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeEqualsSequential)
{
    Rng rng(5);
    RunningStats whole, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(3.0, 2.0);
        whole.add(x);
        (i % 2 == 0 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmpty)
{
    RunningStats a, b;
    a.add(1.0);
    a.add(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(RunningStatsTest, MergeIsAssociative)
{
    // (a + b) + c vs a + (b + c) over shards of one stream: the
    // count/min/max/sum are exactly equal and the Chan-style
    // mean/m2 combination agrees to tight tolerance.
    Rng rng(7);
    RunningStats a, b, c;
    for (int i = 0; i < 900; ++i) {
        const double x = rng.lognormalMeanCv(50.0, 1.2);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
    }
    RunningStats left_first = a;
    left_first.merge(b);
    left_first.merge(c);
    RunningStats right_first_bc = b;
    right_first_bc.merge(c);
    RunningStats right_first = a;
    right_first.merge(right_first_bc);
    EXPECT_EQ(left_first.count(), right_first.count());
    EXPECT_DOUBLE_EQ(left_first.min(), right_first.min());
    EXPECT_DOUBLE_EQ(left_first.max(), right_first.max());
    EXPECT_NEAR(left_first.mean(), right_first.mean(),
                1e-12 * std::abs(left_first.mean()));
    EXPECT_NEAR(left_first.variance(), right_first.variance(),
                1e-9 * left_first.variance());
}

TEST(RunningStatsTest, ManyShardMergeEqualsSequential)
{
    // The driver merges one accumulator per worker thread; the
    // result must match a single sequential accumulator regardless
    // of shard count.
    Rng rng(13);
    RunningStats whole;
    std::vector<RunningStats> shards(8);
    for (int i = 0; i < 4000; ++i) {
        const double x = rng.normal(200.0, 35.0);
        whole.add(x);
        shards[static_cast<std::size_t>(i) % shards.size()].add(x);
    }
    RunningStats merged;
    for (const RunningStats &s : shards)
        merged.merge(s);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
    EXPECT_NEAR(merged.mean(), whole.mean(),
                1e-12 * std::abs(whole.mean()));
    EXPECT_NEAR(merged.variance(), whole.variance(),
                1e-9 * whole.variance());
}

TEST(RunningStatsTest, MergeOneSidedAndSelfEmpty)
{
    RunningStats empty_both, a;
    empty_both.merge(RunningStats{});
    EXPECT_EQ(empty_both.count(), 0u);
    EXPECT_EQ(empty_both.mean(), 0.0);
    a.add(3.0);
    RunningStats into_empty;
    into_empty.merge(a);
    EXPECT_EQ(into_empty.count(), 1u);
    EXPECT_DOUBLE_EQ(into_empty.mean(), 3.0);
    EXPECT_DOUBLE_EQ(into_empty.min(), 3.0);
    EXPECT_DOUBLE_EQ(into_empty.max(), 3.0);
}

TEST(RunningStatsTest, CvOfConstantIsZero)
{
    RunningStats s;
    for (int i = 0; i < 10; ++i)
        s.add(4.0);
    EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(PercentileWindowTest, EmptyReturnsZero)
{
    PercentileWindow w;
    EXPECT_EQ(w.percentile(99.0), 0.0);
}

TEST(PercentileWindowTest, SingleSample)
{
    PercentileWindow w;
    w.add(42.0);
    EXPECT_DOUBLE_EQ(w.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(w.percentile(50.0), 42.0);
    EXPECT_DOUBLE_EQ(w.percentile(100.0), 42.0);
}

TEST(PercentileWindowTest, LinearInterpolation)
{
    PercentileWindow w;
    for (double x : {10.0, 20.0, 30.0, 40.0})
        w.add(x);
    EXPECT_DOUBLE_EQ(w.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(w.percentile(100.0), 40.0);
    EXPECT_DOUBLE_EQ(w.percentile(50.0), 25.0);
}

TEST(PercentileWindowTest, P99OfUniformRamp)
{
    PercentileWindow w;
    for (int i = 1; i <= 1000; ++i)
        w.add(static_cast<double>(i));
    EXPECT_NEAR(w.p99(), 990.0, 1.0);
    EXPECT_NEAR(w.p50(), 500.5, 1.0);
    EXPECT_NEAR(w.mean(), 500.5, 1e-9);
}

TEST(PercentileWindowTest, OrderIndependent)
{
    PercentileWindow asc, desc;
    for (int i = 0; i < 100; ++i) {
        asc.add(i);
        desc.add(99 - i);
    }
    EXPECT_DOUBLE_EQ(asc.p99(), desc.p99());
}

TEST(PercentileWindowTest, CachedSortSurvivesInterleavedQueries)
{
    // The sorted cache is rebuilt lazily after each add(); repeated
    // and interleaved percentile queries must always reflect the
    // full current window, not a stale generation.
    PercentileWindow cached;
    std::vector<double> mirror;
    Rng rng(55);
    for (int i = 0; i < 500; ++i) {
        const double x = rng.lognormalMeanCv(10.0, 0.7);
        cached.add(x);
        mirror.push_back(x);
        if (i % 7 == 0 || i % 11 == 0) {
            std::vector<double> sorted = mirror;
            std::sort(sorted.begin(), sorted.end());
            EXPECT_DOUBLE_EQ(
                cached.p99(),
                sortedPercentile(sorted, 99.0));
            EXPECT_DOUBLE_EQ(
                cached.p50(),
                sortedPercentile(sorted, 50.0));
            // Second read of the same generation hits the cache and
            // must return the identical value.
            EXPECT_DOUBLE_EQ(
                cached.p99(),
                sortedPercentile(sorted, 99.0));
        }
    }
}

TEST(PercentileWindowTest, ClearResetsCache)
{
    PercentileWindow w;
    w.add(100.0);
    w.add(200.0);
    EXPECT_DOUBLE_EQ(w.p50(), 150.0); // populate the cache
    w.clear();
    EXPECT_EQ(w.count(), 0u);
    EXPECT_EQ(w.percentile(50.0), 0.0);
    w.add(7.0);
    EXPECT_DOUBLE_EQ(w.p50(), 7.0);
    EXPECT_DOUBLE_EQ(w.p99(), 7.0);
}

TEST(IntPercentileWindowTest, EmptyReturnsZero)
{
    IntPercentileWindow w;
    EXPECT_EQ(w.count(), 0U);
    EXPECT_EQ(w.percentile(99.0), 0.0);
}

TEST(IntPercentileWindowTest, SingleSample)
{
    IntPercentileWindow w;
    w.add(42);
    EXPECT_DOUBLE_EQ(w.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(w.percentile(50.0), 42.0);
    EXPECT_DOUBLE_EQ(w.percentile(100.0), 42.0);
}

TEST(IntPercentileWindowTest, LinearInterpolation)
{
    IntPercentileWindow w;
    for (std::size_t x : {40U, 10U, 30U, 20U})
        w.add(x);
    EXPECT_DOUBLE_EQ(w.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(w.percentile(100.0), 40.0);
    EXPECT_DOUBLE_EQ(w.percentile(50.0), 25.0);
}

TEST(IntPercentileWindowTest, MatchesSortedPercentileBitForBit)
{
    // Random windows of small totals (many ties, values past the
    // reserved bound too), queried after every add at a spread of
    // percentiles, the engine's 60th among them.
    SplitMix64 sm(0x5EEDu);
    for (int iter = 0; iter < 50; ++iter) {
        const std::size_t range = 1 + sm.next() % 40;
        IntPercentileWindow w;
        w.reserveValues(range / 2);
        std::vector<double> mirror;
        const std::size_t n = 1 + sm.next() % 120;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t x = sm.next() % range;
            w.add(x);
            mirror.push_back(static_cast<double>(x));
            std::vector<double> sorted = mirror;
            std::sort(sorted.begin(), sorted.end());
            ASSERT_EQ(w.count(), sorted.size());
            for (const double p : {0.0, 25.0, 50.0, 60.0, 99.0, 100.0}) {
                const double want = sortedPercentile(sorted, p);
                const double got = w.percentile(p);
                ASSERT_EQ(std::memcmp(&want, &got, sizeof want), 0)
                    << "iteration " << iter << ", n " << mirror.size()
                    << ", p " << p << ": " << got << " vs " << want;
            }
        }
    }
}

TEST(SortedPercentileTest, MatchesWindowOnSortedInput)
{
    std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(sortedPercentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(sortedPercentile(v, 50.0), 25.0);
    EXPECT_DOUBLE_EQ(sortedPercentile(v, 100.0), 40.0);
    EXPECT_EQ(sortedPercentile({}, 99.0), 0.0);
    EXPECT_DOUBLE_EQ(sortedPercentile({5.0}, 37.0), 5.0);
}

/** Exact bit pattern, so -0.0 and +0.0 would not pass as equal. */
std::uint64_t
bitsOf(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

enum class Shape
{
    Random,
    HeavyTies,
    AllEqual,
    Sorted,
    Reversed,
};

const char *const kShapeNames[] = {"random", "heavy-ties", "all-equal",
                                   "sorted", "reversed"};

/** Uniform double in [0, 1) from the top 53 bits. */
double
unit(SplitMix64 &sm)
{
    return static_cast<double>(sm.next() >> 11) * 0x1p-53;
}

std::vector<double>
makeSample(SplitMix64 &sm, std::size_t n, Shape shape)
{
    std::vector<double> v(n);
    for (double &x : v) {
        switch (shape) {
        case Shape::HeavyTies:
            x = static_cast<double>(1 + sm.next() % 5) * 12.5;
            break;
        case Shape::AllEqual:
            x = 42.75;
            break;
        default:
            // Latency-like: positive, long upper tail.
            x = 10.0 * std::exp(3.0 * unit(sm));
            break;
        }
    }
    if (shape == Shape::Sorted)
        std::sort(v.begin(), v.end());
    if (shape == Shape::Reversed)
        std::sort(v.begin(), v.end(), [](double a, double b) {
            return a > b;
        });
    return v;
}

/**
 * Checks selectPercentiles against sort + sortedPercentile for one
 * sample and one percentile list, bit for bit (with == when
 * @p bitExact is false, for samples mixing -0.0 and +0.0), and that
 * the sample comes back as a permutation of itself.
 */
void
expectMatchesSort(const std::vector<double> &sample,
                  const std::vector<double> &ps, bool bitExact = true)
{
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> work = sample;
    std::vector<double> out(ps.size(), -1.0);
    selectPercentiles(work, ps, out);
    for (std::size_t k = 0; k < ps.size(); ++k) {
        const double want = sortedPercentile(sorted, ps[k]);
        if (bitExact)
            EXPECT_EQ(bitsOf(out[k]), bitsOf(want))
                << "p=" << ps[k] << " got " << out[k] << " want " << want;
        else
            EXPECT_EQ(out[k], want) << "p=" << ps[k];
    }
    std::sort(work.begin(), work.end());
    EXPECT_TRUE(work == sorted) << "sample is not a permutation";
}

TEST(SelectPercentilesTest, BitIdenticalToSortThenSortedPercentile)
{
    constexpr std::uint64_t kSeed = 0x5e1ec7ULL;
    SplitMix64 sm(kSeed);
    const std::vector<double> kPs = {0, 1, 25, 50, 75, 99, 99.9, 100};

    std::vector<std::size_t> sizes = {1, 2, 3, 5, 100, 4095, 4096};
    for (int i = 0; i < 24; ++i)
        sizes.push_back(1 + sm.next() % 5000);

    int case_index = 0;
    for (std::size_t n : sizes) {
        for (Shape shape : {Shape::Random, Shape::HeavyTies,
                            Shape::AllEqual, Shape::Sorted,
                            Shape::Reversed}) {
            const std::vector<double> sample = makeSample(sm, n, shape);
            // The full list, the monitor's pair, a random ascending
            // subset, and one random real percentile.
            std::vector<std::vector<double>> lists = {kPs, {50.0, 99.0}};
            std::vector<double> subset;
            const std::uint64_t mask = sm.next();
            for (std::size_t k = 0; k < kPs.size(); ++k)
                if (mask >> k & 1)
                    subset.push_back(kPs[k]);
            if (subset.empty())
                subset.push_back(kPs[mask % kPs.size()]);
            lists.push_back(subset);
            lists.push_back({100.0 * unit(sm)});
            for (const auto &ps : lists) {
                SCOPED_TRACE("seed=" + std::to_string(kSeed) +
                             " case=" + std::to_string(case_index) +
                             " n=" + std::to_string(n) + " shape=" +
                             kShapeNames[static_cast<int>(shape)]);
                expectMatchesSort(sample, ps);
                ++case_index;
            }
        }
    }
}

TEST(SelectPercentilesTest, AnyOrderAndRepeatsStayExact)
{
    // Ascending is the cheap order, not a precondition: a descending
    // list, repeats, and a jump back below an earlier selection must
    // all still read the right order statistics.
    constexpr std::uint64_t kSeed = 0xdecade5ULL;
    SplitMix64 sm(kSeed);
    for (std::size_t n : {2u, 7u, 100u, 4096u}) {
        SCOPED_TRACE("seed=" + std::to_string(kSeed) +
                     " n=" + std::to_string(n));
        const std::vector<double> sample =
            makeSample(sm, n, Shape::Random);
        expectMatchesSort(sample, {100, 99.9, 99, 75, 50, 25, 1, 0});
        expectMatchesSort(sample, {50, 50, 99, 99, 25, 99.9, 0});
    }
}

TEST(SelectPercentilesTest, EmptySampleReadsZero)
{
    std::vector<double> empty;
    const double ps[] = {0.0, 50.0, 100.0};
    double out[] = {-1.0, -1.0, -1.0};
    selectPercentiles(empty, ps, out);
    for (double x : out)
        EXPECT_EQ(x, 0.0);
}

const std::vector<double> kEdgePs = {0, 1, 25, 50, 75, 99, 99.9, 100};

TEST(SelectPercentilesTest, OneOutlierLeavesOneFullBucket)
{
    // Every value but one lands in the lowest (or highest) bucket, so
    // the prefix the selections run on is nearly the whole sample.
    for (std::size_t n : {2u, 3u, 60u, 601u, 4096u}) {
        for (double outlier : {1e6, -1e6}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " outlier=" + std::to_string(outlier));
            std::vector<double> v(n, 42.75);
            v[n / 3] = outlier;
            expectMatchesSort(v, kEdgePs);
            expectMatchesSort(v, {50.0, 99.0});
        }
    }
}

TEST(SelectPercentilesTest, HugeAndOverflowingSpansStayExact)
{
    // 1e-300..1e300 gives a tiny scale; -1e308..1e308 overflows
    // mx - mn to inf, which must fall back to one bucket.
    SplitMix64 sm(0x5ba11ULL);
    for (std::size_t n : {5u, 64u, 4096u}) {
        std::vector<double> wide(n), overflow(n);
        for (std::size_t i = 0; i < n; ++i) {
            wide[i] = std::pow(10.0, -300.0 + 600.0 * unit(sm));
            overflow[i] = (2.0 * unit(sm) - 1.0) * 1e308;
        }
        wide[0] = 1e-300;
        wide[1] = 1e300;
        overflow[0] = -1e308;
        overflow[1] = 1e308;
        SCOPED_TRACE("n=" + std::to_string(n));
        expectMatchesSort(wide, kEdgePs);
        expectMatchesSort(overflow, kEdgePs);
        expectMatchesSort(overflow, {50.0, 99.0});
    }
}

TEST(SelectPercentilesTest, UlpSpacedValuesNearDenormalsStayExact)
{
    // A span of a few ulps near the denormal range makes the scale
    // infinite (one bucket); a span of ~1e-305 keeps it finite while
    // the differences v - mn are denormal.
    SplitMix64 sm(0xdeb0ULL);
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double dmin = std::numeric_limits<double>::min();
    for (std::size_t n : {3u, 100u, 4096u}) {
        std::vector<double> denorm(n), nearMin(n), finiteScale(n);
        for (std::size_t i = 0; i < n; ++i) {
            denorm[i] = tiny * static_cast<double>(sm.next() % 4);
            nearMin[i] = dmin;
            for (std::uint64_t s = sm.next() % 4; s > 0; --s)
                nearMin[i] = std::nextafter(nearMin[i], 1.0);
            finiteScale[i] = 1e-305 * unit(sm);
        }
        SCOPED_TRACE("n=" + std::to_string(n));
        expectMatchesSort(denorm, kEdgePs);
        expectMatchesSort(nearMin, kEdgePs);
        expectMatchesSort(finiteScale, kEdgePs);
        expectMatchesSort(finiteScale, {50.0, 99.0});
    }
}

TEST(SelectPercentilesTest, InfinitiesStayExact)
{
    const double inf = std::numeric_limits<double>::infinity();
    SplitMix64 sm(0x1f1f1ULL);
    for (std::size_t n : {2u, 7u, 600u}) {
        std::vector<double> both = makeSample(sm, n, Shape::Random);
        std::vector<double> plus = both;
        std::vector<double> minus = both;
        both[0] = inf;
        both[n - 1] = -inf;
        plus[n / 2] = inf;
        minus[n / 2] = -inf;
        SCOPED_TRACE("n=" + std::to_string(n));
        for (const auto *v : {&both, &plus, &minus}) {
            expectMatchesSort(*v, kEdgePs);
            expectMatchesSort(*v, {50.0, 99.0});
        }
        expectMatchesSort(std::vector<double>(n, inf), kEdgePs);
        expectMatchesSort(std::vector<double>(n, -inf), kEdgePs);
    }
}

TEST(SelectPercentilesTest, NegativeValuesStayExact)
{
    SplitMix64 sm(0x4e9ULL);
    for (std::size_t n : {2u, 60u, 1000u, 4096u}) {
        std::vector<double> negative(n), mixed(n);
        for (std::size_t i = 0; i < n; ++i) {
            negative[i] = -1000.0 * unit(sm) - 1.0;
            mixed[i] = 200.0 * unit(sm) - 100.0;
        }
        SCOPED_TRACE("n=" + std::to_string(n));
        expectMatchesSort(negative, kEdgePs);
        expectMatchesSort(mixed, kEdgePs);
        expectMatchesSort(mixed, {50.0, 99.0});
    }
}

TEST(SelectPercentilesTest, SignedZerosCompareEqual)
{
    // -0.0 and +0.0 compare equal, so either may come back where the
    // sorted reference holds the other: compare with ==, not by bits.
    SplitMix64 sm(0x2e70ULL);
    for (std::size_t n : {2u, 9u, 500u}) {
        std::vector<double> zeros(n), withPositives(n);
        for (std::size_t i = 0; i < n; ++i) {
            zeros[i] = sm.next() & 1 ? -0.0 : 0.0;
            withPositives[i] = sm.next() % 3 == 0 ? unit(sm) : zeros[i];
        }
        SCOPED_TRACE("n=" + std::to_string(n));
        expectMatchesSort(zeros, kEdgePs, false);
        expectMatchesSort(withPositives, kEdgePs, false);
    }
}

TEST(SelectPercentilesTest, MonitorPairAtEverySizeUpTo600)
{
    // Every bucket count from 4 to 256, with and without a remainder
    // past the four-lane min/max loop.
    constexpr std::uint64_t kSeed = 0x600ULL;
    SplitMix64 sm(kSeed);
    for (std::size_t n = 1; n <= 600; ++n) {
        SCOPED_TRACE("seed=" + std::to_string(kSeed) +
                     " n=" + std::to_string(n));
        expectMatchesSort(makeSample(sm, n, Shape::Random), {50.0, 99.0});
        expectMatchesSort(makeSample(sm, n, Shape::HeavyTies),
                          {50.0, 99.0});
    }
}

TEST(P2QuantileTest, ExactBelowFiveSamples)
{
    P2Quantile q(0.5);
    q.add(3.0);
    q.add(1.0);
    q.add(2.0);
    EXPECT_DOUBLE_EQ(q.value(), 2.0);
}

TEST(P2QuantileTest, EmptyIsZero)
{
    P2Quantile q(0.99);
    EXPECT_EQ(q.value(), 0.0);
    EXPECT_EQ(q.count(), 0u);
}

/** P2 accuracy vs exact percentile for several target quantiles. */
class P2AccuracyTest : public ::testing::TestWithParam<double>
{
};

TEST_P(P2AccuracyTest, TracksExactOnLognormal)
{
    const double target = GetParam();
    Rng rng(101);
    P2Quantile est(target);
    PercentileWindow exact;
    for (int i = 0; i < 50000; ++i) {
        const double x = rng.lognormalMeanCv(100.0, 0.8);
        est.add(x);
        exact.add(x);
    }
    const double truth = exact.percentile(target * 100.0);
    EXPECT_NEAR(est.value() / truth, 1.0, 0.08)
        << "target quantile " << target;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2AccuracyTest,
                         ::testing::Values(0.5, 0.9, 0.95, 0.99));

TEST(P2AccuracyHeavyTailTest, TracksExactOnHeavyLognormal)
{
    // A heavier tail (cv = 2.0, the flash-crowd latency regime)
    // stresses the marker-adjustment path much harder than the
    // cv = 0.8 sweep above; the p99 estimate should still land
    // within ~15% of the exact window.
    Rng rng(107);
    P2Quantile est(0.99);
    PercentileWindow exact;
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.lognormalMeanCv(250.0, 2.0);
        est.add(x);
        exact.add(x);
    }
    EXPECT_NEAR(est.value() / exact.p99(), 1.0, 0.15);
}

TEST(P2MergeTest, MergeWithEmptyIsIdentity)
{
    P2Quantile a(0.99);
    for (int i = 0; i < 1000; ++i)
        a.add(static_cast<double>(i));
    const double before = a.value();
    P2Quantile empty(0.99);
    a.merge(empty);
    EXPECT_EQ(a.value(), before);
    EXPECT_EQ(a.count(), 1000u);

    P2Quantile b(0.99);
    b.merge(a);
    EXPECT_EQ(b.value(), a.value());
    EXPECT_EQ(b.count(), a.count());
}

TEST(P2MergeTest, RawStageMergesExactly)
{
    // Below five samples each side holds raw values, so a merge of
    // two raw-stage sketches must equal the sketch of the
    // concatenated stream — the estimator is still exact there.
    P2Quantile a(0.5), b(0.5), whole(0.5);
    for (double x : {3.0, 1.0})
        a.add(x);
    for (double x : {2.0, 4.0})
        b.add(x);
    for (double x : {3.0, 1.0, 2.0, 4.0})
        whole.add(x);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.value(), whole.value());
}

TEST(P2MergeTest, ShardedMergeTracksExactOnHeavyTailMillionSamples)
{
    // The cluster reduction case: 8 per-node sketches over disjoint
    // heavy-tail (cv = 2.0) shards of a 10^6-sample stream, folded
    // into one estimate, compared against the exact percentile of
    // the full stream.
    constexpr int kShards = 8;
    constexpr int kTotal = 1000000;
    Rng rng(113);
    std::vector<P2Quantile> shards(kShards, P2Quantile(0.99));
    PercentileWindow exact;
    for (int i = 0; i < kTotal; ++i) {
        const double x = rng.lognormalMeanCv(250.0, 2.0);
        shards[i % kShards].add(x);
        exact.add(x);
    }
    P2Quantile merged(0.99);
    for (const auto &shard : shards)
        merged.merge(shard);
    EXPECT_EQ(merged.count(), static_cast<std::size_t>(kTotal));
    EXPECT_NEAR(merged.value() / exact.p99(), 1.0, 0.15);
}

TEST(P2MergeTest, MergeAssociativeToTightToleranceAcrossEightShards)
{
    // Count-weighted marker averaging is associative in exact
    // arithmetic; in doubles the left fold and the pairwise tree
    // fold may differ only by accumulated rounding, pinned here at
    // 1e-12 relative. Byte-identical outputs still require a fixed
    // fold order — this bounds the damage if orders ever diverge.
    constexpr int kShards = 8;
    Rng rng(127);
    std::vector<P2Quantile> shards(kShards, P2Quantile(0.99));
    for (int s = 0; s < kShards; ++s)
        for (int i = 0; i < 40000; ++i)
            shards[s].add(rng.lognormalMeanCv(250.0, 2.0));

    P2Quantile left(0.99);
    for (const auto &shard : shards)
        left.merge(shard);

    std::vector<P2Quantile> tree = shards;
    while (tree.size() > 1) {
        std::vector<P2Quantile> next;
        for (std::size_t i = 0; i + 1 < tree.size(); i += 2) {
            P2Quantile pair = tree[i];
            pair.merge(tree[i + 1]);
            next.push_back(pair);
        }
        if (tree.size() % 2 == 1)
            next.push_back(tree.back());
        tree = std::move(next);
    }

    EXPECT_EQ(left.count(), tree[0].count());
    EXPECT_NEAR(left.value() / tree[0].value(), 1.0, 1e-12);
}

TEST(P2MergeTest, FixedFoldOrderIsBitwiseDeterministic)
{
    // The determinism contract consumed by the cluster rollup: the
    // same shards folded in the same order give bit-identical
    // estimates, run to run.
    constexpr int kShards = 5;
    std::vector<P2Quantile> shards(kShards, P2Quantile(0.99));
    Rng rng(131);
    for (int s = 0; s < kShards; ++s)
        for (int i = 0; i < 10000; ++i)
            shards[s].add(rng.lognormalMeanCv(100.0, 0.8));
    P2Quantile once(0.99), twice(0.99);
    for (const auto &shard : shards)
        once.merge(shard);
    for (const auto &shard : shards)
        twice.merge(shard);
    EXPECT_EQ(once.value(), twice.value());
    EXPECT_EQ(once.count(), twice.count());
}

/**
 * The P² estimator as it stood before add() lost its marker scan and
 * loop-form position/desired updates, frozen verbatim (add, merge,
 * value): the reference the specialized add() must match bit for bit.
 */
class FrozenP2
{
  public:
    explicit FrozenP2(double quantile) : q(quantile) {}

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

        int k;
        if (x < heights[0]) {
            heights[0] = x;
            k = 0;
        } else if (x >= heights[4]) {
            heights[4] = x;
            k = 3;
        } else {
            k = 0;
            while (k < 3 && x >= heights[k + 1])
                ++k;
        }

        for (int i = k + 1; i < 5; ++i)
            ++positions[i];
        for (int i = 0; i < 5; ++i)
            desired[i] += increments[i];

        for (int i = 1; i <= 3; ++i) {
            const double d = desired[i] - positions[i];
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

    void merge(const FrozenP2 &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        if (other.count_ < 5) {
            for (std::size_t i = 0; i < other.count_; ++i)
                add(other.heights[i]);
            return;
        }
        if (count_ < 5) {
            FrozenP2 merged = other;
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
        const double n = static_cast<double>(count_);
        desired[0] = 1;
        desired[1] = 1 + q * (n - 1) / 2;
        desired[2] = 1 + q * (n - 1);
        desired[3] = 1 + (1 + q) * (n - 1) / 2;
        desired[4] = n;
        positions[0] = 1;
        for (int i = 1; i < 5; ++i) {
            double p = std::floor(desired[i] + 0.5);
            p = std::max(p, positions[i - 1] + 1);
            p = std::min(p, n - static_cast<double>(4 - i));
            positions[i] = p;
        }
    }

    double value() const
    {
        if (count_ == 0)
            return 0.0;
        if (count_ < 5) {
            std::vector<double> v(heights, heights + count_);
            std::sort(v.begin(), v.end());
            const double rank = q * static_cast<double>(count_ - 1);
            const std::size_t lo = static_cast<std::size_t>(rank);
            const std::size_t hi = std::min(lo + 1, v.size() - 1);
            const double frac = rank - static_cast<double>(lo);
            return v[lo] + frac * (v[hi] - v[lo]);
        }
        return heights[2];
    }

    std::size_t count() const { return count_; }

  private:
    double parabolic(int i, int sign) const
    {
        const double d = static_cast<double>(sign);
        return heights[i] + d / (positions[i + 1] - positions[i - 1]) *
            ((positions[i] - positions[i - 1] + d) *
                 (heights[i + 1] - heights[i]) /
                 (positions[i + 1] - positions[i]) +
             (positions[i + 1] - positions[i] - d) *
                 (heights[i] - heights[i - 1]) /
                 (positions[i] - positions[i - 1]));
    }

    double linear(int i, int sign) const
    {
        return heights[i] + sign * (heights[i + sign] - heights[i]) /
            (positions[i + sign] - positions[i]);
    }

    double q;
    double heights[5] = {};
    double positions[5] = {};
    double desired[5] = {};
    double increments[5] = {};
    std::size_t count_ = 0;
};

/** Standard lognormal-ish latency (median 100) by Box-Muller. */
double
lognormal(SplitMix64 &sm)
{
    const double u1 = 1.0 - unit(sm); // (0, 1]: log() stays finite
    const double u2 = unit(sm);
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    return 100.0 * std::exp(0.8 * z);
}

/** One stream of P2 inputs, named for failure messages. */
struct P2Stream
{
    const char *name;
    std::vector<double> xs;
};

std::vector<P2Stream>
p2Streams(SplitMix64 &sm)
{
    constexpr std::size_t kN = 20000;
    std::vector<P2Stream> out;
    P2Stream logn{"lognormal", {}};
    P2Stream ties{"ties", {}};
    P2Stream constant{"constant", std::vector<double>(kN, 42.75)};
    P2Stream up{"ascending", {}};
    P2Stream down{"descending", {}};
    for (std::size_t i = 0; i < kN; ++i) {
        logn.xs.push_back(lognormal(sm));
        ties.xs.push_back(10.0 * static_cast<double>(sm.next() % 4));
        up.xs.push_back(static_cast<double>(i) * 0.5);
        down.xs.push_back(static_cast<double>(kN - i) * 0.5);
    }
    // A plateau, then spread: ties with every marker move positions
    // without moving value(), so a cell-rule slip only shows later.
    P2Stream plateau{"plateau-then-lognormal",
                     std::vector<double>(kN / 4, logn.xs[0])};
    plateau.xs.insert(plateau.xs.end(), logn.xs.begin(), logn.xs.end());
    out.push_back(std::move(logn));
    out.push_back(std::move(plateau));
    out.push_back(std::move(ties));
    out.push_back(std::move(constant));
    out.push_back(std::move(up));
    out.push_back(std::move(down));
    // Every length below the 5-sample init, one stream each.
    for (std::size_t n = 1; n < 5; ++n) {
        P2Stream shortStream{"short", {}};
        for (std::size_t i = 0; i < n; ++i)
            shortStream.xs.push_back(lognormal(sm));
        out.push_back(std::move(shortStream));
    }
    return out;
}

/** Feeds @p xs to both sketches, comparing value() after every add. */
void
expectSameAdds(P2Quantile &got, FrozenP2 &want,
               const std::vector<double> &xs)
{
    for (std::size_t i = 0; i < xs.size(); ++i) {
        got.add(xs[i]);
        want.add(xs[i]);
        ASSERT_EQ(bitsOf(got.value()), bitsOf(want.value()))
            << "after add " << i << " of " << xs[i] << ": got "
            << got.value() << " want " << want.value();
        ASSERT_EQ(got.count(), want.count());
    }
}

TEST(P2FrozenTest, AddIsBitIdenticalToTheLoopForm)
{
    constexpr std::uint64_t kSeed = 0x9e2add5ULL;
    SplitMix64 sm(kSeed);
    const std::vector<P2Stream> streams = p2Streams(sm);
    for (double q : {0.5, 0.9, 0.99}) {
        for (const P2Stream &stream : streams) {
            SCOPED_TRACE("seed=" + std::to_string(kSeed) + " q=" +
                         std::to_string(q) + " stream=" + stream.name +
                         " n=" + std::to_string(stream.xs.size()));
            P2Quantile got(q);
            FrozenP2 want(q);
            expectSameAdds(got, want, stream.xs);
        }
    }
}

TEST(P2FrozenTest, AddsAfterMergeStayBitIdentical)
{
    // merge() rebuilds positions/desired from closed forms, so the
    // adds that follow start from states a plain stream never
    // reaches; both raw-stage replays are covered too.
    constexpr std::uint64_t kSeed = 0x3e76e5ULL;
    SplitMix64 sm(kSeed);
    const std::vector<P2Stream> streams = p2Streams(sm);
    for (double q : {0.5, 0.9, 0.99}) {
        for (const P2Stream &left : streams) {
            for (const P2Stream &right : streams) {
                SCOPED_TRACE("seed=" + std::to_string(kSeed) + " q=" +
                             std::to_string(q) + " left=" + left.name +
                             " n=" + std::to_string(left.xs.size()) +
                             " right=" + right.name + " n=" +
                             std::to_string(right.xs.size()));
                const std::size_t half = left.xs.size() / 2;
                const std::vector<double> head(left.xs.begin(),
                                               left.xs.begin() + half);
                const std::vector<double> tail(left.xs.begin() + half,
                                               left.xs.end());
                P2Quantile got(q), got_other(q);
                FrozenP2 want(q), want_other(q);
                expectSameAdds(got, want, head);
                expectSameAdds(got_other, want_other, right.xs);
                got.merge(got_other);
                want.merge(want_other);
                ASSERT_EQ(bitsOf(got.value()), bitsOf(want.value()));
                expectSameAdds(got, want, tail);
            }
        }
    }
}

TEST(FiveNumberTest, EmptyIsZeros)
{
    const FiveNumber f = FiveNumber::of({});
    EXPECT_EQ(f.min, 0.0);
    EXPECT_EQ(f.max, 0.0);
}

TEST(FiveNumberTest, KnownValues)
{
    const FiveNumber f =
        FiveNumber::of({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_DOUBLE_EQ(f.min, 1.0);
    EXPECT_DOUBLE_EQ(f.q1, 2.0);
    EXPECT_DOUBLE_EQ(f.median, 3.0);
    EXPECT_DOUBLE_EQ(f.q3, 4.0);
    EXPECT_DOUBLE_EQ(f.max, 5.0);
}

TEST(FiveNumberTest, UnsortedInput)
{
    const FiveNumber f = FiveNumber::of({5.0, 1.0, 3.0, 2.0, 4.0});
    EXPECT_DOUBLE_EQ(f.median, 3.0);
    EXPECT_DOUBLE_EQ(f.min, 1.0);
    EXPECT_DOUBLE_EQ(f.max, 5.0);
}

} // namespace
