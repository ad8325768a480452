/**
 * @file
 * Tests for the client-side performance monitor.
 */

#include "core/monitor.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/exact_percentile.hh"
#include "util/rng.hh"

namespace {

using pliant::core::IntervalReport;
using pliant::core::PerformanceMonitor;

/** Exact bit pattern, so the comparisons below are bit equality. */
std::uint64_t
bitsOf(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/**
 * Closes the interval and checks its p99 against a sorted copy of
 * the retained window read with sortedPercentile.
 */
void
expectCloseMatchesSortedReference(PerformanceMonitor &m)
{
    std::vector<double> sorted = m.windowSamples();
    std::sort(sorted.begin(), sorted.end());

    const IntervalReport r = m.closeInterval();
    EXPECT_EQ(bitsOf(r.p99Us),
              bitsOf(pliant::test::sortedPercentile(sorted, 99.0)));
    EXPECT_EQ(m.windowSize(), 0u);
}

TEST(MonitorTest, EmptyIntervalReportsZero)
{
    PerformanceMonitor m;
    const IntervalReport r = m.closeInterval();
    EXPECT_EQ(r.p99Us, 0.0);
}

TEST(MonitorTest, KnownDistributionP99)
{
    PerformanceMonitor m(8192, 1);
    // 1..1000 microseconds uniformly.
    for (int i = 1; i <= 1000; ++i)
        m.observe(static_cast<double>(i));
    EXPECT_EQ(m.windowSize(), 1000u);
    const IntervalReport r = m.closeInterval();
    EXPECT_NEAR(r.p99Us, 990.0, 2.0);
}

TEST(MonitorTest, IntervalResetsWindow)
{
    PerformanceMonitor m;
    m.observe(100.0);
    m.closeInterval();
    EXPECT_EQ(m.windowSize(), 0u);
    EXPECT_EQ(m.closeInterval().p99Us, 0.0);
}

TEST(MonitorTest, AdaptiveSamplingBoundsMemory)
{
    PerformanceMonitor m(256, 2);
    for (int i = 0; i < 100000; ++i)
        m.observe(static_cast<double>(i % 1000));
    EXPECT_EQ(m.windowSize(), 256u);
}

TEST(MonitorTest, SubsampledP99StillAccurate)
{
    PerformanceMonitor m(2048, 3);
    pliant::util::Rng rng(5);
    for (int i = 0; i < 200000; ++i)
        m.observe(rng.lognormalMeanCv(100.0, 0.8));
    const IntervalReport r = m.closeInterval();
    // Lognormal(mean 100, cv 0.8): p99 ~ 380. Allow generous noise
    // from the 2k-sample reservoir.
    EXPECT_NEAR(r.p99Us, 380.0, 80.0);
}

TEST(MonitorTest, BatchObserve)
{
    PerformanceMonitor m;
    m.observe(std::vector<double>{1.0, 2.0, 3.0});
    EXPECT_EQ(m.windowSize(), 3u);
}

TEST(MonitorTest, LongRunP99SurvivesIntervals)
{
    PerformanceMonitor m(512, 4);
    for (int interval = 0; interval < 20; ++interval) {
        for (int i = 1; i <= 1000; ++i)
            m.observe(static_cast<double>(i));
        m.closeInterval();
    }
    EXPECT_NEAR(m.longRunP99(), 990.0, 25.0);
}

TEST(MonitorTest, DeterministicForSeed)
{
    PerformanceMonitor a(128, 9), b(128, 9);
    for (int i = 0; i < 10000; ++i) {
        a.observe(static_cast<double>(i % 777));
        b.observe(static_cast<double>(i % 777));
    }
    EXPECT_DOUBLE_EQ(a.closeInterval().p99Us, b.closeInterval().p99Us);
}

TEST(MonitorTest, CloseMatchesSortedReferenceUnsaturated)
{
    PerformanceMonitor m(4096, 21);
    pliant::util::Rng rng(8);
    for (int i = 0; i < 3200; ++i)
        m.observe(rng.lognormalMeanCv(150.0, 0.9));
    ASSERT_EQ(m.windowSize(), 3200u);
    expectCloseMatchesSortedReference(m);

    // A second interval on the same monitor, with heavy ties.
    for (int i = 0; i < 1000; ++i)
        m.observe(static_cast<double>(10 * (i % 4)));
    expectCloseMatchesSortedReference(m);
}

TEST(MonitorTest, CloseMatchesSortedReferenceSaturated)
{
    PerformanceMonitor m(256, 22);
    pliant::util::Rng rng(9);
    for (int i = 0; i < 100000; ++i)
        m.observe(rng.lognormalMeanCv(150.0, 0.9));
    ASSERT_EQ(m.windowSize(), 256u);
    expectCloseMatchesSortedReference(m);
}

/**
 * One feed pattern for the span-vs-scalar check: per-tick batch
 * lengths drawn from [0, max_span], the first warmup_ticks fed
 * without steady_state, and an interval close every ticks_per_interval.
 */
struct FeedCase
{
    const char *name;
    std::size_t budget;
    std::size_t max_span;
    int ticks;
    int warmup_ticks;
    int ticks_per_interval;
};

void
expectSameReport(const IntervalReport &got, const IntervalReport &want)
{
    EXPECT_EQ(bitsOf(got.p99Us), bitsOf(want.p99Us));
}

TEST(MonitorTest, BudgetOfWhatTheIntervalOffersMatches4096Window)
{
    // The engine sizes a window to the most samples one interval can
    // offer (here one 60-sample tick, the tick = interval shape).
    // Filled to exactly that budget, it keeps every sample and
    // reports what a 4096-sample window reports, bit for bit.
    PerformanceMonitor sized(60, 5), wide(4096, 5);
    pliant::util::Rng rng(12);
    std::vector<double> tick(60);
    for (int interval = 0; interval < 20; ++interval) {
        for (double &l : tick)
            l = rng.lognormalMeanCv(150.0, 0.9);
        sized.observe(std::span<const double>(tick), interval >= 5);
        wide.observe(std::span<const double>(tick), interval >= 5);
        ASSERT_EQ(sized.windowSamples(), tick);
        ASSERT_EQ(wide.windowSamples(), tick);
        expectSameReport(sized.closeInterval(), wide.closeInterval());
    }
    EXPECT_EQ(bitsOf(sized.longRunP99()), bitsOf(wide.longRunP99()));
    EXPECT_EQ(bitsOf(sized.steadySketch().value()),
              bitsOf(wide.steadySketch().value()));
}

TEST(MonitorSpanTest, SpanObserveMatchesPerSampleFeed)
{
    // The windows stay below the budget, cross it mid-span, and run
    // saturated; spans include empty ones and the 32-sample tick.
    const FeedCase cases[] = {
        {"below-budget", 4096, 32, 60, 20, 30},
        {"crosses-mid-span", 100, 32, 90, 30, 30},
        {"saturated", 16, 64, 200, 50, 40},
        {"ragged", 300, 97, 300, 120, 25},
    };
    constexpr std::uint64_t kSeed = 33;
    for (const FeedCase &fc : cases) {
        SCOPED_TRACE(std::string("case=") + fc.name +
                     " seed=" + std::to_string(kSeed));
        PerformanceMonitor span_fed(fc.budget, kSeed);
        PerformanceMonitor scalar_fed(fc.budget, kSeed);
        pliant::util::P2Quantile steady(0.99);
        pliant::util::Rng rng(kSeed);
        std::vector<double> batch;
        for (int tick = 0; tick < fc.ticks; ++tick) {
            const bool steady_state = tick >= fc.warmup_ticks;
            batch.resize(rng.uniformInt(fc.max_span + 1));
            for (double &l : batch)
                l = rng.lognormalMeanCv(150.0, 0.9);
            span_fed.observe(std::span<const double>(batch),
                             steady_state);
            for (double l : batch) {
                scalar_fed.observe(l);
                if (steady_state)
                    steady.add(l);
            }

            ASSERT_EQ(span_fed.windowSamples(),
                      scalar_fed.windowSamples())
                << "tick " << tick;
            ASSERT_EQ(bitsOf(span_fed.longRunP99()),
                      bitsOf(scalar_fed.longRunP99()));
            ASSERT_EQ(span_fed.steadySketch().count(), steady.count());
            ASSERT_EQ(bitsOf(span_fed.steadySketch().value()),
                      bitsOf(steady.value()));
            if ((tick + 1) % fc.ticks_per_interval == 0)
                expectSameReport(span_fed.closeInterval(),
                                 scalar_fed.closeInterval());
        }
        // The scalar overload never feeds the steady sketch.
        EXPECT_EQ(scalar_fed.steadySketch().count(), 0u);
        EXPECT_LE(span_fed.windowSize(), fc.budget);
    }
}

TEST(MonitorSpanTest, SpanWindowMatchesReservoirReference)
{
    // The per-sample reservoir rule written out: append while the
    // window is under budget, otherwise draw j in [0, offered) and
    // replace slot j when it lands inside the window.
    constexpr std::size_t kBudget = 64;
    constexpr std::uint64_t kSeed = 17;
    PerformanceMonitor m(kBudget, kSeed);
    pliant::util::Rng draws(kSeed);
    pliant::util::Rng rng(5);
    std::vector<double> want;
    std::uint64_t offered = 0;
    std::vector<double> batch(32);
    for (int tick = 0; tick < 40; ++tick) {
        for (double &l : batch)
            l = rng.lognormalMeanCv(100.0, 0.8);
        m.observe(std::span<const double>(batch));
        for (double l : batch) {
            ++offered;
            if (want.size() < kBudget) {
                want.push_back(l);
            } else {
                const std::uint64_t j = draws.uniformInt(offered);
                if (j < kBudget)
                    want[static_cast<std::size_t>(j)] = l;
            }
        }
        ASSERT_EQ(m.windowSamples(), want) << "tick " << tick;
    }
}

} // namespace
