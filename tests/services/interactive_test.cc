/**
 * @file
 * Tests for the interactive service models.
 */

#include "services/interactive.hh"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/exact_percentile.hh"
#include "util/stats.hh"

namespace {

using namespace pliant::services;
namespace sim = pliant::sim;

WorkloadConfig
steadyLoad(double load)
{
    WorkloadConfig wl;
    wl.loadFraction = load;
    wl.noiseSd = 0.0;
    wl.burstRatePerSec = 0.0;
    return wl;
}

TEST(ServiceConfigTest, QosTargetsMatchPaper)
{
    EXPECT_DOUBLE_EQ(defaultConfig(ServiceKind::Nginx).qosUs, 10e3);
    EXPECT_DOUBLE_EQ(defaultConfig(ServiceKind::Memcached).qosUs, 200.0);
    EXPECT_DOUBLE_EQ(defaultConfig(ServiceKind::MongoDb).qosUs, 100e3);
}

TEST(ServiceConfigTest, Names)
{
    EXPECT_EQ(serviceName(ServiceKind::Nginx), "nginx");
    EXPECT_EQ(serviceName(ServiceKind::Memcached), "memcached");
    EXPECT_EQ(serviceName(ServiceKind::MongoDb), "mongodb");
}

TEST(ServiceConfigTest, MemcachedIsMostSensitive)
{
    const auto mc = defaultConfig(ServiceKind::Memcached).sensitivity;
    const auto mongo = defaultConfig(ServiceKind::MongoDb).sensitivity;
    // The base colocation sensitivity orders memcached > mongodb.
    EXPECT_GT(mc.base, mongo.base);
}

/** Each service meets QoS when run alone at its operating load. */
class SoloQosTest : public ::testing::TestWithParam<ServiceKind>
{
};

TEST_P(SoloQosTest, MeetsQosWithoutInterference)
{
    const ServiceConfig cfg = defaultConfig(GetParam());
    InteractiveService svc(cfg, steadyLoad(0.78), 21);
    pliant::test::PercentileWindow window;
    for (int i = 0; i < 1000; ++i) {
        const auto r = svc.tick(10 * sim::kMillisecond, 1.0);
        for (double s : r.sampleUs)
            window.add(s);
    }
    EXPECT_LE(window.p99(), cfg.qosUs)
        << serviceName(GetParam()) << " should meet QoS solo";
    // ... but not by an absurd margin (the operating point is near
    // the latency knee, paper Section 5).
    EXPECT_GE(window.p99(), 0.4 * cfg.qosUs);
}

INSTANTIATE_TEST_SUITE_P(Services, SoloQosTest,
                         ::testing::Values(ServiceKind::Nginx,
                                           ServiceKind::Memcached,
                                           ServiceKind::MongoDb));

/** Sustained inflation above ~1.3 forces a QoS violation. */
class InflatedQosTest : public ::testing::TestWithParam<ServiceKind>
{
};

TEST_P(InflatedQosTest, HighInflationViolatesQos)
{
    const ServiceConfig cfg = defaultConfig(GetParam());
    InteractiveService svc(cfg, steadyLoad(0.78), 22);
    pliant::test::PercentileWindow window;
    for (int i = 0; i < 1000; ++i) {
        const auto r = svc.tick(10 * sim::kMillisecond, 1.35);
        for (double s : r.sampleUs)
            window.add(s);
    }
    EXPECT_GT(window.p99(), cfg.qosUs);
}

INSTANTIATE_TEST_SUITE_P(Services, InflatedQosTest,
                         ::testing::Values(ServiceKind::Nginx,
                                           ServiceKind::Memcached,
                                           ServiceKind::MongoDb));

TEST(InteractiveServiceTest, LatencyGrowsWithInflation)
{
    const ServiceConfig cfg = defaultConfig(ServiceKind::Memcached);
    InteractiveService a(cfg, steadyLoad(0.7), 5);
    InteractiveService b(cfg, steadyLoad(0.7), 5);
    double p_a = 0, p_b = 0;
    for (int i = 0; i < 500; ++i) {
        p_a += a.tick(10 * sim::kMillisecond, 1.0).p99Us;
        p_b += b.tick(10 * sim::kMillisecond, 1.2).p99Us;
    }
    EXPECT_GT(p_b, p_a);
}

TEST(InteractiveServiceTest, LatencyGrowsWithLoad)
{
    const ServiceConfig cfg = defaultConfig(ServiceKind::Nginx);
    InteractiveService lo(cfg, steadyLoad(0.5), 5);
    InteractiveService hi(cfg, steadyLoad(0.9), 5);
    double p_lo = 0, p_hi = 0;
    for (int i = 0; i < 500; ++i) {
        p_lo += lo.tick(10 * sim::kMillisecond, 1.0).p99Us;
        p_hi += hi.tick(10 * sim::kMillisecond, 1.0).p99Us;
    }
    EXPECT_GT(p_hi, p_lo * 1.2);
}

TEST(InteractiveServiceTest, MoreCoresLowerUtilization)
{
    const ServiceConfig cfg = defaultConfig(ServiceKind::Memcached);
    InteractiveService svc(cfg, steadyLoad(0.8), 5);
    const double rho_fair =
        svc.tick(10 * sim::kMillisecond, 1.2).rho;
    svc.setCores(cfg.fairCores + 4);
    const double rho_more =
        svc.tick(10 * sim::kMillisecond, 1.2).rho;
    EXPECT_LT(rho_more, rho_fair);
}

TEST(InteractiveServiceTest, OverloadAccumulatesBacklogSpike)
{
    const ServiceConfig cfg = defaultConfig(ServiceKind::Memcached);
    InteractiveService svc(cfg, steadyLoad(0.9), 5);
    // Drive hard overload for two seconds.
    double peak = 0.0;
    for (int i = 0; i < 200; ++i)
        peak = std::max(peak,
                        svc.tick(10 * sim::kMillisecond, 1.8).p99Us);
    EXPECT_GT(peak, 3.0 * cfg.qosUs);
    // Recovery: drop inflation; the spike must drain.
    double last = 0.0;
    for (int i = 0; i < 300; ++i)
        last = svc.tick(10 * sim::kMillisecond, 1.0).p99Us;
    EXPECT_LT(last, 2.0 * cfg.qosUs);
}

TEST(InteractiveServiceTest, SamplesMatchAnalyticTail)
{
    const ServiceConfig cfg = defaultConfig(ServiceKind::Nginx);
    InteractiveService svc(cfg, steadyLoad(0.7), 5);
    pliant::test::PercentileWindow window;
    pliant::util::RunningStats analytic;
    for (int i = 0; i < 2000; ++i) {
        const auto r = svc.tick(10 * sim::kMillisecond, 1.0);
        analytic.add(r.p99Us);
        for (double s : r.sampleUs)
            window.add(s);
    }
    // The sampled p99 should track the mean analytic p99 within ~20%.
    EXPECT_NEAR(window.p99() / analytic.mean(), 1.0, 0.2);
}

TEST(InteractiveServiceTest, PressureScalesWithLoad)
{
    const ServiceConfig cfg = defaultConfig(ServiceKind::Memcached);
    InteractiveService lo(cfg, steadyLoad(0.4), 5);
    InteractiveService hi(cfg, steadyLoad(1.0), 5);
    lo.tick(10 * sim::kMillisecond, 1.0);
    hi.tick(10 * sim::kMillisecond, 1.0);
    EXPECT_LT(lo.currentPressure().membwGbs,
              hi.currentPressure().membwGbs);
    EXPECT_LT(lo.currentPressure().compute,
              hi.currentPressure().compute);
}

/**
 * Byte-identity pin for the batched sample path. The expected doubles
 * were captured from the pre-batching scalar implementation (per-draw
 * normal() + exp in the tick loop); the SoA fillLognormal path and
 * the hoisted per-tick constants must reproduce them bit-exactly.
 * If an intentional model change breaks this, recapture the values
 * and re-pin in the same PR.
 */
TEST(InteractiveServiceTest, SampleStreamMatchesPreBatchingScalars)
{
    const ServiceConfig cfg = defaultConfig(ServiceKind::Memcached);
    InteractiveService svc(cfg, WorkloadConfig{}, 123);

    struct Tick
    {
        double inflation;
        double p99;
        std::size_t n;
        double s[7]; // samples at indices 0, 7, 14, ..., 42
    };
    const Tick expected[3] = {
        {1.0, 126.50943737234813, 46,
         {7.7409764469362008, 49.204209634471589, 7.3107385527010837,
          3.967357352127606, 33.646506688260068, 12.069203133445717,
          54.965078339860518}},
        {1.37, 797.76024715837366, 47,
         {47.603893517473693, 294.68614760255679, 91.785258564213038,
          348.7295512269975, 206.38881619397364, 52.697675335095731,
          200.60210583506671}},
        {1.0, 129.08288654105073, 47,
         {27.113841739181076, 29.032436329268499, 12.324372576945439,
          36.77297860927748, 9.0985288924421663, 27.901941929419049,
          45.649453526534785}},
    };

    for (int t = 0; t < 3; ++t) {
        const auto r =
            svc.tick(10 * sim::kMillisecond, expected[t].inflation);
        EXPECT_EQ(r.p99Us, expected[t].p99) << "tick " << t;
        ASSERT_EQ(r.sampleUs.size(), expected[t].n) << "tick " << t;
        for (std::size_t i = 0; i * 7 < expected[t].n; ++i)
            EXPECT_EQ(r.sampleUs[i * 7], expected[t].s[i])
                << "tick " << t << " sample " << i * 7;
    }

    // A second service kind (different tailToMedian, so different
    // hoisted sigma) pins the nginx path too.
    InteractiveService ngx(defaultConfig(ServiceKind::Nginx),
                           WorkloadConfig{}, 7);
    const auto r2 = ngx.tick(10 * sim::kMillisecond, 1.1);
    EXPECT_EQ(r2.p99Us, 10306.271691784248);
    ASSERT_EQ(r2.sampleUs.size(), 55u);
    EXPECT_EQ(r2.sampleUs.front(), 1675.0904486764409);
    EXPECT_EQ(r2.sampleUs.back(), 2183.3716272580828);
}

TEST(InteractiveServiceTest, ReusedResultBufferMatchesFreshResult)
{
    // The allocation-free tick(dt, inflation, out) overload must
    // produce the same values whether `out` is fresh or carries a
    // larger stale sampleUs from a previous tick.
    const ServiceConfig cfg = defaultConfig(ServiceKind::Memcached);
    InteractiveService a(cfg, WorkloadConfig{}, 17);
    InteractiveService b(cfg, WorkloadConfig{}, 17);
    ServiceTickResult reused;
    reused.sampleUs.assign(512, -1.0); // stale oversized buffer
    for (int i = 0; i < 50; ++i) {
        a.tick(10 * sim::kMillisecond, 1.05, reused);
        const auto fresh = b.tick(10 * sim::kMillisecond, 1.05);
        EXPECT_EQ(reused.p99Us, fresh.p99Us);
        ASSERT_EQ(reused.sampleUs.size(), fresh.sampleUs.size());
        for (std::size_t j = 0; j < fresh.sampleUs.size(); ++j)
            EXPECT_EQ(reused.sampleUs[j], fresh.sampleUs[j]);
    }
}

/**
 * Two halves of a tick with every service's normals drawn by one
 * normalBatches call (the engine's tenant group) must equal tick()
 * on a twin service, bit for bit, tick after tick.
 */
TEST(InteractiveServiceTest, GroupedSplitTickMatchesTick)
{
    std::vector<InteractiveService> split, whole;
    for (ServiceKind kind : {ServiceKind::Memcached, ServiceKind::Nginx,
                             ServiceKind::MongoDb, ServiceKind::Memcached}) {
        const ServiceConfig cfg = defaultConfig(kind);
        // Load noise and bursts move the sample count between ticks,
        // so the streams' spare parity keeps changing.
        WorkloadConfig wl;
        wl.loadFraction = 0.5 + 0.1 * static_cast<double>(split.size());
        const std::uint64_t seed = 31 + split.size();
        split.emplace_back(cfg, wl, seed);
        whole.emplace_back(cfg, wl, seed);
    }
    double normals[4][kMaxNormalsPerTick];
    PendingTick pending[4];
    ServiceTickResult got, want;
    for (int t = 0; t < 300; ++t) {
        const double inflation = 1.0 + 0.002 * t;
        std::vector<pliant::util::Rng::NormalRequest> group;
        for (std::size_t k = 0; k < split.size(); ++k) {
            pending[k] =
                split[k].prepareTick(10 * sim::kMillisecond, inflation);
            ASSERT_LE(pending[k].normals(), kMaxNormalsPerTick);
            group.push_back(
                {&split[k].sampleRng(), normals[k], pending[k].normals()});
        }
        pliant::util::Rng::normalBatches(group);
        for (std::size_t k = 0; k < split.size(); ++k) {
            split[k].finishTick(pending[k], normals[k], got);
            whole[k].tick(10 * sim::kMillisecond, inflation, want);
            ASSERT_EQ(got.offeredLoad, want.offeredLoad) << t << "/" << k;
            ASSERT_EQ(got.rho, want.rho) << t << "/" << k;
            ASSERT_EQ(got.inflation, want.inflation) << t << "/" << k;
            ASSERT_EQ(got.p99Us, want.p99Us) << t << "/" << k;
            ASSERT_EQ(got.sampleUs, want.sampleUs) << t << "/" << k;
        }
    }
}

TEST(InteractiveServiceTest, DeterministicForSeed)
{
    const ServiceConfig cfg = defaultConfig(ServiceKind::MongoDb);
    InteractiveService a(cfg, WorkloadConfig{}, 77);
    InteractiveService b(cfg, WorkloadConfig{}, 77);
    for (int i = 0; i < 200; ++i) {
        const auto ra = a.tick(10 * sim::kMillisecond, 1.1);
        const auto rb = b.tick(10 * sim::kMillisecond, 1.1);
        EXPECT_DOUBLE_EQ(ra.p99Us, rb.p99Us);
        ASSERT_EQ(ra.sampleUs.size(), rb.sampleUs.size());
    }
}

} // namespace
