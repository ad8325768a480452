/**
 * @file
 * Tests for the parallel experiment driver: pool mechanics, sweep
 * determinism across thread counts (including a fig1-style static
 * colocation sweep), deterministic exception propagation, and the
 * empty-sweep edge case.
 */

#include "driver/pool.hh"
#include "driver/sweep.hh"

#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "approx/profile.hh"
#include "colo/engine.hh"
#include "dse/explore.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace {

using namespace pliant;

TEST(PoolTest, RunsEverySubmittedJob)
{
    driver::Pool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(PoolTest, IsReusableAfterWait)
{
    driver::Pool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(PoolTest, WaitWithNoJobsReturnsImmediately)
{
    driver::Pool pool(2);
    pool.wait();
    SUCCEED();
}

TEST(PoolTest, WaitRethrowsJobException)
{
    driver::Pool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed; the pool keeps working.
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(PoolJobTest, SmallCapturesLiveInline)
{
    int hits = 0;
    int *p = &hits;
    driver::PoolJob small([p] { ++*p; });
    EXPECT_TRUE(small.inlined());
    small();
    EXPECT_EQ(hits, 1);

    // Moving an inline job relocates the capture, not a pointer.
    driver::PoolJob moved(std::move(small));
    EXPECT_TRUE(moved.inlined());
    moved();
    EXPECT_EQ(hits, 2);
    EXPECT_FALSE(static_cast<bool>(small));
}

TEST(PoolJobTest, OversizedCapturesAreBoxedAndStillRun)
{
    // 128 bytes of capture exceeds kInlineBytes: the job must fall
    // back to one heap box and behave identically.
    std::array<std::uint64_t, 16> payload{};
    payload.fill(7);
    std::uint64_t sum = 0;
    driver::PoolJob big([payload, &sum] {
        for (std::uint64_t v : payload)
            sum += v;
    });
    static_assert(sizeof(payload) > driver::PoolJob::kInlineBytes);
    EXPECT_FALSE(big.inlined());

    driver::PoolJob moved(std::move(big));
    EXPECT_FALSE(moved.inlined());
    moved();
    EXPECT_EQ(sum, 7u * 16u);
}

TEST(PoolTest, OversizedCaptureJobsPropagateExceptions)
{
    driver::Pool pool(2);
    std::array<char, 100> blob{};
    blob[0] = 'x';
    pool.submit([blob] {
        throw std::runtime_error(std::string("boxed ") + blob[0]);
    });
    try {
        pool.wait();
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boxed x");
    }
}

TEST(PoolTest, QueueRingSurvivesGrowthAndWrap)
{
    // More queued jobs than the ring's initial capacity, twice over,
    // with waits in between so head sits mid-ring when the second
    // burst wraps and regrows.
    driver::Pool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 300; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
    }
    EXPECT_EQ(count.load(), 900);
}

TEST(TaskSeedTest, DependsOnlyOnBaseAndIndex)
{
    EXPECT_EQ(driver::taskSeed(1, 0), driver::taskSeed(1, 0));
    EXPECT_NE(driver::taskSeed(1, 0), driver::taskSeed(1, 1));
    EXPECT_NE(driver::taskSeed(1, 0), driver::taskSeed(2, 0));
    // The salt keeps (base, index) pairs with equal xor distinct.
    EXPECT_NE(driver::taskSeed(0, 5), driver::taskSeed(5, 0));
}

TEST(SweepTest, MapPreservesTaskOrder)
{
    driver::SweepOptions opts;
    opts.threads = 8;
    driver::Sweep sweep(opts);
    const auto out =
        sweep.map(64, [](const driver::TaskContext &ctx) {
            return ctx.index * 10;
        });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * 10);
}

TEST(SweepTest, SeededResultsAreThreadCountInvariant)
{
    auto run = [](unsigned threads) {
        driver::SweepOptions opts;
        opts.threads = threads;
        opts.seed = 99;
        driver::Sweep sweep(opts);
        return sweep.map(32, [](const driver::TaskContext &ctx) {
            // A task-seeded computation long enough that any seed or
            // ordering leak between workers would show.
            util::Rng rng(ctx.seed);
            double acc = 0.0;
            for (int i = 0; i < 1000; ++i)
                acc += rng.uniform();
            return acc;
        });
    };
    const auto serial = run(1);
    const auto parallel = run(7);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "task " << i;
}

TEST(SweepTest, EmptySweepReturnsEmptyAndDoesNotHang)
{
    driver::SweepOptions opts;
    opts.threads = 3;
    driver::Sweep sweep(opts);
    const auto out = sweep.map(
        0, [](const driver::TaskContext &) { return 1; });
    EXPECT_TRUE(out.empty());
    const util::TextTable t = sweep.table(
        {"a", "b"}, 0,
        [](const driver::TaskContext &) -> std::vector<std::string> {
            return {"x", "y"};
        });
    EXPECT_EQ(t.rowCount(), 0u);
}

TEST(SweepTest, LowestIndexExceptionWinsDeterministically)
{
    driver::SweepOptions opts;
    opts.threads = 6;
    driver::Sweep sweep(opts);
    for (int round = 0; round < 5; ++round) {
        try {
            sweep.forEach(40, [](const driver::TaskContext &ctx) {
                if (ctx.index % 2 == 1)
                    throw std::runtime_error(
                        "task " + std::to_string(ctx.index));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            // Index 1 is the lowest failing task at any thread count.
            EXPECT_STREQ(e.what(), "task 1");
        }
    }
}

TEST(SweepTest, ExceptionDoesNotPoisonLaterSweeps)
{
    driver::SweepOptions opts;
    opts.threads = 4;
    driver::Sweep sweep(opts);
    EXPECT_THROW(
        sweep.forEach(8,
                      [](const driver::TaskContext &) {
                          throw std::logic_error("x");
                      }),
        std::logic_error);
    const auto out = sweep.map(
        8, [](const driver::TaskContext &ctx) { return ctx.index; });
    ASSERT_EQ(out.size(), 8u);
    EXPECT_EQ(out[7], 7u);
}

TEST(SweepTest, MapItemsPairsItemWithContext)
{
    const std::vector<int> items{5, 6, 7};
    driver::SweepOptions opts;
    opts.threads = 2;
    driver::Sweep sweep(opts);
    const auto out = sweep.mapItems(
        items, [](int item, const driver::TaskContext &ctx) {
            return item * 100 + static_cast<int>(ctx.index);
        });
    EXPECT_EQ(out, (std::vector<int>{500, 601, 702}));
}

/**
 * Render a ColoResult list the way the fig1 even rows do, down to the
 * formatted strings, so byte-identity of the table proves
 * thread-count invariance of the whole sweep.
 */
std::string
renderColoTable(const std::vector<colo::ColoResult> &results)
{
    util::TextTable t({"cell", "p99/QoS", "cores", "inacc"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        t.addRow({std::to_string(i),
                  util::fmt(r.steadyP99Us / r.qosUs, 4),
                  std::to_string(r.maxCoresReclaimedTotal),
                  r.apps.empty()
                      ? "-"
                      : util::fmtPct(r.apps[0].inaccuracy, 3)});
    }
    std::ostringstream os;
    t.print(os);
    return os.str();
}

/**
 * The acceptance-criterion test: a fig1-style static colocation
 * sweep (per-variant static colocations of catalog apps against the
 * interactive services) produces a byte-identical table with 1
 * worker and with N workers.
 */
TEST(DriverDeterminismTest, Fig1StyleSweepMatchesSerialByteForByte)
{
    // A small but structurally faithful slice of the fig1 grid: the
    // first two catalog apps, every variant, two services.
    std::vector<colo::ColoConfig> configs;
    const auto &catalog = approx::catalog();
    ASSERT_GE(catalog.size(), 2u);
    for (std::size_t p = 0; p < 2; ++p) {
        for (const auto &v : catalog[p].variants) {
            for (auto kind : {services::ServiceKind::Nginx,
                              services::ServiceKind::Memcached}) {
                colo::ColoConfig cfg;
                cfg.service = kind;
                cfg.apps = {catalog[p].name};
                cfg.runtime = core::RuntimeKind::Precise;
                cfg.initialVariants = {v.index};
                cfg.maxDuration = 10 * sim::kSecond;
                cfg.seed = 7;
                configs.push_back(cfg);
            }
        }
    }
    ASSERT_GE(configs.size(), 8u);

    driver::SweepOptions serial;
    serial.threads = 1;
    driver::SweepOptions parallel;
    parallel.threads = 6;

    const std::string one =
        renderColoTable(colo::runColocations(configs, serial));
    const std::string many =
        renderColoTable(colo::runColocations(configs, parallel));
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, many);
}

/**
 * exploreRegistry determinism: wall-clock timings are noisy, but the
 * structure of the exploration — which kernels, how many points,
 * which knob labels, and each point's (deterministic) inaccuracy —
 * must be thread-count invariant because every kernel is built from
 * the sweep's base seed (exactly what a serial entry.make(seed)
 * loop would do), never from worker identity or task scheduling.
 */
TEST(DriverDeterminismTest, ExploreRegistryStructureIsThreadInvariant)
{
    dse::ExploreOptions opts;
    opts.repetitions = 1;

    auto structure = [&](unsigned threads) {
        driver::SweepOptions sweep;
        sweep.threads = threads;
        sweep.seed = 42;
        std::ostringstream os;
        for (const auto &res : dse::exploreRegistry(opts, sweep)) {
            os << res.app << ":" << res.points.size();
            for (const auto &pt : res.points)
                os << "," << pt.knobs.describe() << "="
                   << util::fmtPct(pt.inaccuracy, 4);
            os << "\n";
        }
        return os.str();
    };

    const std::string one = structure(1);
    const std::string many = structure(5);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, many);
}

} // namespace
