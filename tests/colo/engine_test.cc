/**
 * @file
 * Tests for the colocation engine's multi-service generalization:
 *
 *  - a regression suite pinning single-service results to the exact
 *    numbers the pre-refactor ColocationExperiment produced for
 *    fixed configs (captured before the engine extraction), so the
 *    refactor provably did not move any figure;
 *  - the acceptance scenario: memcached + nginx sharing a box with
 *    two approximate apps through a flash crowd (its thread-count
 *    invariance is the equivalence harness's, in
 *    builder_property_test.cc);
 *  - config validation (bad fair-core splits, duplicate tenants);
 *  - the close schedule: no decision interval holds more than
 *    ceil(interval / tick) ticks, the bound each tenant's monitor
 *    window is sized to.
 */

#include "colo/engine.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.hh"
#include "util/rng.hh"

namespace {

using namespace pliant;
using namespace pliant::colo;

/** Relative tolerance for the pinned pre-refactor numbers: the
 * arithmetic is identical, so this only absorbs last-ulp libm
 * differences across toolchains. */
constexpr double kRelTol = 1e-9;

#define EXPECT_PINNED(actual, golden) \
    EXPECT_NEAR(actual, golden, std::abs(golden) * kRelTol)

/** A run's result plus its recorded per-interval series. */
struct Recorded
{
    ColoResult result;
    std::vector<TimePoint> points;
};

/** Run `cfg` with a TimelineRecorder attached. */
Recorded
runRecorded(const ColoConfig &cfg)
{
    Engine engine(cfg);
    TimelineRecorder recorder;
    engine.setTimelineSink(&recorder);
    Recorded out;
    out.result = engine.run();
    out.points = std::move(recorder.points);
    return out;
}

TEST(EngineRegressionTest, PliantSingleAppMatchesPreRefactorNumbers)
{
    const Recorded rec = runRecorded(makeColoConfig(
        services::ServiceKind::Memcached, {"canneal"},
        core::RuntimeKind::Pliant, 33));
    const ColoResult &r = rec.result;
    EXPECT_PINNED(r.services[0].overallP99Us, 851.65302665005822);
    EXPECT_PINNED(r.services[0].steadyP99Us, 247.62057575172005);
    EXPECT_PINNED(r.services[0].meanIntervalP99Us, 166.11821731330028);
    EXPECT_PINNED(r.services[0].qosMetFraction, 0.80000000000000004);
    EXPECT_EQ(rec.points.size(), 25u);
    EXPECT_EQ(r.maxCoresReclaimedTotal, 1);
    EXPECT_EQ(r.typicalCoresReclaimed, 1);
    ASSERT_EQ(r.apps.size(), 1u);
    EXPECT_PINNED(r.apps[0].inaccuracy, 0.047484937659885089);
    EXPECT_PINNED(r.apps[0].relativeExecTime, 0.64949999999999997);
    EXPECT_EQ(r.apps[0].switches, 1);
    EXPECT_PINNED(rec.points.back().services[0].p99Us, 141.09470936694575);
    EXPECT_PINNED(rec.points.back().services[0].loadFraction,
                  0.80775416712913262);

    // Fig. 5's memcached + canneal cell (seed 31) runs 2598 ticks.
    const ColoConfig fig5 = makeColoConfig(
        services::ServiceKind::Memcached, {"canneal"},
        core::RuntimeKind::Pliant, 31);
    Engine engine(fig5);
    engine.run();
    EXPECT_EQ(engine.now(), 2598 * fig5.tick);
}

TEST(EngineRegressionTest, PliantTwoAppMatchesPreRefactorNumbers)
{
    const Recorded rec = runRecorded(makeColoConfig(
        services::ServiceKind::Nginx, {"canneal", "bayesian"},
        core::RuntimeKind::Pliant, 7));
    const ColoResult &r = rec.result;
    EXPECT_PINNED(r.services[0].overallP99Us, 71431.775438696568);
    EXPECT_PINNED(r.services[0].steadyP99Us, 37851.119005662069);
    EXPECT_PINNED(r.services[0].meanIntervalP99Us, 10963.174573611705);
    EXPECT_PINNED(r.services[0].qosMetFraction, 0.76923076923076927);
    EXPECT_EQ(rec.points.size(), 26u);
    EXPECT_EQ(r.maxCoresReclaimedTotal, 2);
    ASSERT_EQ(r.apps.size(), 2u);
    EXPECT_PINNED(r.apps[0].inaccuracy, 0.044872631632100361);
    EXPECT_PINNED(r.apps[1].inaccuracy, 0.01276985040276179);
    EXPECT_PINNED(r.apps[1].relativeExecTime, 0.47272727272727272);
}

TEST(EngineRegressionTest, LearnedRuntimeMatchesPreRefactorNumbers)
{
    // The learned controller's model moved from microseconds to
    // normalized p99/QoS ratios; with one service that is a pure
    // rescaling, so every decision — and thus every number — must be
    // unchanged.
    const Recorded rec = runRecorded(makeColoConfig(
        services::ServiceKind::MongoDb, {"snp"},
        core::RuntimeKind::Learned, 5));
    const ColoResult &r = rec.result;
    EXPECT_PINNED(r.services[0].overallP99Us, 115045.78570774179);
    EXPECT_PINNED(r.services[0].steadyP99Us, 88699.240896317351);
    EXPECT_PINNED(r.services[0].qosMetFraction, 0.80645161290322576);
    EXPECT_EQ(rec.points.size(), 31u);
    ASSERT_EQ(r.apps.size(), 1u);
    EXPECT_PINNED(r.apps[0].inaccuracy, 0.019704575919043815);
    EXPECT_EQ(r.apps[0].switches, 5);
}

TEST(EngineRegressionTest, PreciseBaselineMatchesPreRefactorNumbers)
{
    const Recorded rec = runRecorded(makeColoConfig(
        services::ServiceKind::Memcached, {"canneal"},
        core::RuntimeKind::Precise, 11));
    const ColoResult &r = rec.result;
    EXPECT_PINNED(r.services[0].overallP99Us, 1604.9142869211935);
    EXPECT_PINNED(r.services[0].steadyP99Us, 1688.660206917443);
    EXPECT_PINNED(r.services[0].meanIntervalP99Us, 1279.8011361988601);
    EXPECT_DOUBLE_EQ(r.services[0].qosMetFraction, 0.0);
    EXPECT_EQ(rec.points.size(), 40u);
    EXPECT_EQ(r.maxCoresReclaimedTotal, 0);
}

/** Two tenants (one flash-crowded) and two apps at the given timing. */
ColoConfig
timedConfig(sim::Time tick, sim::Time interval, std::uint64_t seed)
{
    ServiceSpec crowd;
    crowd.kind = services::ServiceKind::Memcached;
    crowd.scenario = Scenario::flashCrowd(0.55, 0.95, 20 * sim::kSecond,
                                          3 * sim::kSecond,
                                          10 * sim::kSecond,
                                          5 * sim::kSecond);
    ServiceSpec steady;
    steady.kind = services::ServiceKind::Nginx;
    steady.scenario = Scenario::constant(0.6);
    ColoConfig cfg = makeMultiServiceConfig(
        {crowd, steady}, {"canneal", "bayesian"},
        core::RuntimeKind::Pliant, seed);
    cfg.tick = tick;
    cfg.decisionInterval = interval;
    return cfg;
}

TEST(EngineRegressionTest, TickEqualsIntervalMatchesPinnedNumbers)
{
    // tick = interval (the 1000-node sweep's shape) and a tick that
    // does not divide the interval are the shapes whose monitor
    // window is smaller than 4096 samples; these numbers were
    // recorded while every window was 4096, so a window that drops a
    // sample moves them.
    {
        const Recorded rec =
            runRecorded(timedConfig(sim::kSecond, sim::kSecond, 97));
        const ColoResult &r = rec.result;
        EXPECT_PINNED(r.services[0].overallP99Us, 644.74054555285534);
        EXPECT_PINNED(r.services[0].steadyP99Us, 748.93817300929595);
        EXPECT_PINNED(r.services[0].meanIntervalP99Us, 182.63372773105155);
        EXPECT_PINNED(r.services[0].qosMetFraction, 0.92592592592592593);
        EXPECT_PINNED(r.services[1].steadyP99Us, 10728.90993491353);
        EXPECT_EQ(rec.points.size(), 27u);
        ASSERT_EQ(r.apps.size(), 2u);
        EXPECT_PINNED(r.apps[0].inaccuracy, 0.042445655858211404);
        EXPECT_PINNED(r.apps[1].relativeExecTime, 0.47272727272727272);
        EXPECT_PINNED(rec.points.back().services[0].p99Us, 139.50079256746542);
    }
    {
        const Recorded rec = runRecorded(
            timedConfig(30 * sim::kMillisecond,
                        100 * sim::kMillisecond, 97));
        const ColoResult &r = rec.result;
        EXPECT_PINNED(r.services[0].overallP99Us, 136.58744641724022);
        EXPECT_PINNED(r.services[0].steadyP99Us, 138.32483014282232);
        EXPECT_PINNED(r.services[0].meanIntervalP99Us, 122.94136577855339);
        EXPECT_PINNED(r.services[0].qosMetFraction, 0.98299319727891155);
        EXPECT_PINNED(r.services[1].steadyP99Us, 7379.4402634833223);
        EXPECT_EQ(rec.points.size(), 294u);
        ASSERT_EQ(r.apps.size(), 2u);
        EXPECT_PINNED(r.apps[0].inaccuracy, 0.044088545496259006);
        EXPECT_PINNED(r.apps[1].relativeExecTime, 0.49036363636363633);
        EXPECT_PINNED(rec.points.back().services[0].p99Us, 106.69601850602263);
    }
}

/** The acceptance config: memcached + nginx, two approximate apps,
 * a flash crowd hitting memcached mid-run. */
std::vector<ColoConfig>
acceptanceConfigs()
{
    const sim::Time s = sim::kSecond;
    std::vector<ColoConfig> configs;
    for (auto rt : {core::RuntimeKind::Precise,
                    core::RuntimeKind::Pliant}) {
        ColoConfig cfg = makeMultiServiceConfig(
            {{services::ServiceKind::Memcached,
              Scenario::flashCrowd(0.60, 0.95, 30 * s, 3 * s, 20 * s,
                                   10 * s)},
             {services::ServiceKind::Nginx, Scenario::constant(0.65)}},
            {"canneal", "bayesian"}, rt, 71);
        cfg.maxDuration = 120 * s;
        configs.push_back(cfg);
    }
    return configs;
}

TEST(EngineMultiServiceTest, ReportsBothServicesAndTheirQos)
{
    for (const ColoConfig &cfg : acceptanceConfigs()) {
        const Recorded rec = runRecorded(cfg);
        const ColoResult &r = rec.result;
        ASSERT_EQ(r.services.size(), 2u);
        EXPECT_EQ(r.services[0].name, "memcached");
        EXPECT_EQ(r.services[1].name, "nginx");
        EXPECT_DOUBLE_EQ(r.services[0].qosUs, 200.0);
        EXPECT_DOUBLE_EQ(r.services[1].qosUs, 10e3);
        // Timeline carries one slice per service.
        for (const auto &tp : rec.points) {
            ASSERT_EQ(tp.services.size(), 2u);
            EXPECT_GT(tp.services[0].p99Us, 0.0);
            EXPECT_GT(tp.services[1].p99Us, 0.0);
        }
    }

    // Eight tenants, the first two crowded, on the same apps and
    // seed: every tenant is reported and the run lasts 3520 ticks.
    const sim::Time s = sim::kSecond;
    std::vector<ServiceSpec> specs;
    for (int i = 0; i < 8; ++i) {
        ServiceSpec spec;
        spec.kind = i % 2 == 0 ? services::ServiceKind::Memcached
                               : services::ServiceKind::Nginx;
        spec.name = (i % 2 == 0 ? "mc-" : "ngx-") + std::to_string(i);
        spec.scenario = i < 2 ? Scenario::flashCrowd(0.45, 0.95, 20 * s,
                                                     3 * s, 20 * s, 10 * s)
                              : Scenario::constant(0.45);
        specs.push_back(std::move(spec));
    }
    ColoConfig wide = makeMultiServiceConfig(
        std::move(specs), {"canneal", "bayesian"}, core::RuntimeKind::Pliant,
        71);
    wide.maxDuration = 120 * s;
    Engine engine(wide);
    EXPECT_EQ(engine.run().services.size(), 8u);
    EXPECT_EQ(engine.now(), 3520 * wide.tick);
}

TEST(EngineMultiServiceTest, PliantImprovesOnPreciseUnderFlashCrowd)
{
    const auto results = runColocations(acceptanceConfigs());
    const ColoResult &precise = results[0];
    const ColoResult &pliant = results[1];
    // The joint control loop must beat the static baseline on the
    // crowded service without wrecking the other tenant.
    EXPECT_LT(pliant.services[0].meanIntervalP99Us,
              precise.services[0].meanIntervalP99Us);
    EXPECT_GE(pliant.services[0].qosMetFraction,
              precise.services[0].qosMetFraction);
    EXPECT_LE(pliant.services[1].meanIntervalP99Us,
              1.10 * pliant.services[1].qosUs);
}

TEST(EngineMultiServiceTest, ScenarioLoadShowsUpInTheTimeline)
{
    // A step scenario must visibly move the recorded offered load.
    const sim::Time s = sim::kSecond;
    ColoConfig cfg = makeMultiServiceConfig(
        {{services::ServiceKind::Memcached,
          Scenario::step(0.45, 0.90, 20 * s)}},
        {"bayesian"}, core::RuntimeKind::Pliant, 3);
    cfg.maxDuration = 40 * s;
    double before = 0.0, after = 0.0;
    int n_before = 0, n_after = 0;
    for (const auto &tp : runRecorded(cfg).points) {
        if (tp.t <= 20 * s) {
            before += tp.services[0].loadFraction;
            ++n_before;
        } else {
            after += tp.services[0].loadFraction;
            ++n_after;
        }
    }
    ASSERT_GT(n_before, 0);
    ASSERT_GT(n_after, 0);
    EXPECT_NEAR(before / n_before, 0.45, 0.08);
    EXPECT_NEAR(after / n_after, 0.90, 0.08);
}

TEST(EngineMultiServiceTest, CachePartitioningWorksWithTwoTenants)
{
    // Both tenants live inside the service-side way partition; the
    // runtime may isolate ways before reclaiming cores. The
    // equivalence harness (builder_property_test.cc) runs this config
    // as its fixed input: identical at 1 and 3 worker threads and
    // under every other transform.
    const sim::Time s = sim::kSecond;
    ColoConfig cfg = makeMultiServiceConfig(
        {{services::ServiceKind::Nginx, Scenario::constant(0.70)},
         {services::ServiceKind::MongoDb, Scenario::constant(0.60)}},
        {"canneal", "streamcluster"}, core::RuntimeKind::Pliant, 19);
    cfg.enableCachePartitioning = true;
    cfg.maxDuration = 120 * s;

    const Recorded rec = runRecorded(cfg);
    const ColoResult &r = rec.result;
    ASSERT_EQ(r.services.size(), 2u);
    // The LLC-sensitive primary drives the partition lever.
    EXPECT_GT(r.maxPartitionWays, 0);
    for (const auto &tp : rec.points)
        EXPECT_LE(tp.partitionWays, cfg.spec.llcWays);
}

TEST(EngineValidationTest, RejectsDuplicateApps)
{
    const ColoConfig cfg =
        makeColoConfig(services::ServiceKind::Memcached,
                       {"canneal", "canneal"}, core::RuntimeKind::Pliant);
    EXPECT_THROW(Engine e(cfg), util::FatalError);
}

TEST(EngineValidationTest, RejectsDuplicateServices)
{
    ColoConfig cfg;
    cfg.apps = {"canneal"};
    cfg.services = {{services::ServiceKind::Memcached, {}},
                    {services::ServiceKind::Memcached, {}}};
    EXPECT_THROW(Engine e(cfg), util::FatalError);
}

TEST(EngineValidationTest, RejectsConfigsLeavingServicesNoCores)
{
    // 16 usable cores, 16 apps: every app's share clamps to 1 and
    // nothing is left for the service — the old harness died deep
    // inside InteractiveService with an obscure message; the engine
    // must reject the config up front.
    const ColoConfig cfg = makeColoConfig(
        services::ServiceKind::Memcached,
        {"canneal", "bayesian", "snp", "kmeans", "raytrace", "glimmer",
         "fluidanimate", "water_spatial", "water_nsquared",
         "streamcluster", "plsa", "scalparc", "hmmer", "fasta", "birch",
         "semphy"},
        core::RuntimeKind::Pliant);
    EXPECT_THROW(Engine e(cfg), util::FatalError);
}

TEST(EngineValidationTest, RejectsNonPositiveTickWithItsOwnMessage)
{
    // The tick check is the engine's own, and its message is the one
    // raised: nothing built before checkConfig may reject the tick
    // first with a different error.
    for (const sim::Time tick : {sim::Time{0}, sim::Time{-1}}) {
        ColoConfig cfg = makeColoConfig(services::ServiceKind::Memcached,
                                        {"canneal"},
                                        core::RuntimeKind::Pliant);
        cfg.tick = tick;
        try {
            Engine e(cfg);
            ADD_FAILURE() << "tick " << tick << " was accepted";
        } catch (const util::FatalError &err) {
            EXPECT_NE(std::string(err.what())
                          .find("simulation tick must be positive"),
                      std::string::npos)
                << "tick " << tick << ": " << err.what();
        }
    }
}

TEST(EngineScheduleTest, NoIntervalHoldsMoreThanCeilIntervalOverTicks)
{
    // Each tenant's monitor window is sized to ceil(interval / tick)
    // ticks of samples, so the close schedule (nextDecision +=
    // interval, checked after each tick) must never put more ticks
    // than that into one interval — for dividing and non-dividing
    // pairs alike. The first interval always holds exactly that
    // many, so the bound is also tight.
    struct Timing
    {
        sim::Time tick, interval;
    };
    std::vector<Timing> timings = {
        {30 * sim::kMillisecond, 100 * sim::kMillisecond},
        {3, 4},
        {7, 10},
        {999, 1000},
        {1000, 1999},
        {10 * sim::kMillisecond, sim::kSecond},
        {300 * sim::kMillisecond, sim::kSecond},
        {sim::kSecond, sim::kSecond},
    };
    util::SplitMix64 sm(22);
    for (int i = 0; i < 24; ++i) {
        const auto tick = static_cast<sim::Time>(1 + sm.next() % 50000);
        const auto interval =
            tick + static_cast<sim::Time>(sm.next() % (20 * tick));
        timings.push_back({tick, interval});
    }
    for (const Timing &tm : timings) {
        SCOPED_TRACE(::testing::Message() << "tick " << tm.tick
                                          << " us, interval "
                                          << tm.interval << " us");
        ColoConfig cfg = makeColoConfig(services::ServiceKind::Memcached,
                                        {"canneal"},
                                        core::RuntimeKind::Precise, 3);
        cfg.tick = tm.tick;
        cfg.decisionInterval = tm.interval;
        cfg.maxDuration = 25 * tm.interval;
        const Recorded rec = runRecorded(cfg);
        ASSERT_GE(rec.points.size(), 20u);

        const sim::Time bound =
            (tm.interval + tm.tick - 1) / tm.tick;
        sim::Time prev = 0, most = 0;
        for (const TimePoint &p : rec.points) {
            ASSERT_EQ((p.t - prev) % tm.tick, 0);
            const sim::Time ticks = (p.t - prev) / tm.tick;
            EXPECT_GE(ticks, 1);
            EXPECT_LE(ticks, bound) << "interval closing at " << p.t;
            most = std::max(most, ticks);
            prev = p.t;
        }
        EXPECT_EQ(most, bound);
    }
}

TEST(EngineValidationTest, FairShareSplitsAcrossServices)
{
    server::ServerSpec spec; // 16 usable
    EXPECT_EQ(Engine::fairShare(spec, 1, 1), 8);
    EXPECT_EQ(Engine::fairShare(spec, 2, 2), 4);
    EXPECT_EQ(Engine::fairShare(spec, 1, 2), 5);
}

} // namespace
