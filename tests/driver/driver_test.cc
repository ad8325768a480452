/**
 * @file
 * Tests for the parallel experiment driver: pool mechanics and
 * PLIANT_THREADS parsing, runIndexed's deterministic exception
 * propagation, parallelMap's item order (including the empty input),
 * and determinism across thread counts of a fig1-style static
 * colocation batch and of the DSE.
 */

#include "driver/pool.hh"

#include <array>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "approx/profile.hh"
#include "colo/engine.hh"
#include "dse/explore.hh"
#include "util/logging.hh"
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

TEST(PoolTest, OversizedCaptureJobsPropagateExceptions)
{
    // Repeated so a race-detector build reliably hits the window
    // between the worker handing the exception over and the caller
    // reading it.
    driver::Pool pool(2);
    std::array<char, 100> blob{};
    blob[0] = 'x';
    for (int round = 0; round < 200; ++round) {
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
}

TEST(PoolTest, ManyQueuedJobsAllRun)
{
    // Bursts far deeper than the worker count, with waits in between
    // so the queue drains and refills.
    driver::Pool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 300; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
    }
    EXPECT_EQ(count.load(), 900);
}

TEST(PoolTest, DefaultThreadCountRejectsMalformedEnv)
{
    const char *saved = std::getenv("PLIANT_THREADS");
    const std::string restore = saved ? saved : "";
    ::unsetenv("PLIANT_THREADS");
    const unsigned fallback = driver::Pool::defaultThreadCount();
    EXPECT_GE(fallback, 1u);

    ::setenv("PLIANT_THREADS", "4", 1);
    EXPECT_EQ(driver::Pool::defaultThreadCount(), 4u);
    // Anything that is not exactly an integer in 1..512 is ignored,
    // trailing junk and leading blanks included.
    for (const char *junk : {"3x", "2.9", "1e9", " 5", "abc", "-2"}) {
        ::setenv("PLIANT_THREADS", junk, 1);
        EXPECT_EQ(driver::Pool::defaultThreadCount(), fallback)
            << "PLIANT_THREADS='" << junk << "'";
    }

    if (saved)
        ::setenv("PLIANT_THREADS", restore.c_str(), 1);
    else
        ::unsetenv("PLIANT_THREADS");
}

TEST(PoolTest, ThreadCountAboveTheCeilingIsFatal)
{
    // A typo'd thread count fails loudly instead of being clamped.
    EXPECT_THROW(driver::Pool pool(513), util::FatalError);
}

TEST(RunIndexedTest, LowestIndexExceptionWinsDeterministically)
{
    driver::Pool pool(6);
    for (int round = 0; round < 5; ++round) {
        try {
            driver::runIndexed(pool, 40, [](std::size_t i) {
                if (i % 2 == 1)
                    throw std::runtime_error("task " + std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            // Index 1 is the lowest failing task at any thread count.
            EXPECT_STREQ(e.what(), "task 1");
        }
    }
}

TEST(RunIndexedTest, ExceptionDoesNotPoisonLaterRuns)
{
    driver::Pool pool(4);
    auto fail = [](std::size_t) { throw std::logic_error("x"); };
    EXPECT_THROW(driver::runIndexed(pool, 8, fail), std::logic_error);
    std::vector<std::size_t> out(8);
    auto fill = [&out](std::size_t i) { out[i] = i; };
    driver::runIndexed(pool, out.size(), fill);
    EXPECT_EQ(out[7], 7u);
}

TEST(ParallelMapTest, PreservesItemOrder)
{
    std::vector<std::size_t> items(64);
    std::iota(items.begin(), items.end(), std::size_t{0});
    auto times10 = [](std::size_t item) { return item * 10; };
    const auto out = driver::parallelMap(items, 8, times10);
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * 10);
}

TEST(ParallelMapTest, PairsEachResultWithItsItem)
{
    const std::vector<int> items{5, 6, 7};
    auto show = [](int item) { return std::to_string(item); };
    const auto out = driver::parallelMap(items, 2, show);
    EXPECT_EQ(out, (std::vector<std::string>{"5", "6", "7"}));
}

TEST(ParallelMapTest, EmptyInputReturnsEmptyAndDoesNotHang)
{
    const std::vector<int> items;
    auto identity = [](int item) { return item; };
    const auto out = driver::parallelMap(items, 3, identity);
    EXPECT_TRUE(out.empty());
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
        const colo::ServiceOutcome &svc = r.services[0];
        t.addRow({std::to_string(i),
                  util::fmt(svc.steadyP99Us / svc.qosUs, 4),
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
                colo::ColoConfig cfg = colo::makeColoConfig(
                    kind, {catalog[p].name}, core::RuntimeKind::Precise,
                    7);
                cfg.initialVariants = {v.index};
                cfg.maxDuration = 10 * sim::kSecond;
                configs.push_back(cfg);
            }
        }
    }
    ASSERT_GE(configs.size(), 8u);

    const std::string one = renderColoTable(colo::runColocations(configs, 1));
    const std::string many = renderColoTable(colo::runColocations(configs, 6));
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, many);
}

/**
 * exploreRegistry determinism: wall-clock timings are noisy, but the
 * structure of the exploration — which kernels, how many points,
 * which knob labels, and each point's (deterministic) inaccuracy —
 * must be thread-count invariant because every kernel is built from
 * opts.seed (exactly what a serial entry.make(seed) loop would do),
 * never from worker identity or task scheduling.
 */
TEST(DriverDeterminismTest, ExploreRegistryStructureIsThreadInvariant)
{
    dse::ExploreOptions opts;
    opts.repetitions = 1;
    opts.seed = 42;

    auto structure = [&](unsigned threads) {
        std::ostringstream os;
        for (const auto &res : dse::exploreRegistry(opts, threads)) {
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
