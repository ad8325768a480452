/**
 * @file
 * Tests for the colocation engine's multi-service generalization:
 *
 *  - a regression suite pinning single-service results to the exact
 *    numbers the pre-refactor ColocationExperiment produced for
 *    fixed configs (captured before the engine extraction), so the
 *    refactor provably did not move any figure;
 *  - the acceptance scenario: memcached + nginx sharing a box with
 *    two approximate apps through a flash crowd, run through
 *    runColocations, byte-identical at 1 and 6 worker threads;
 *  - config validation (bad fair-core splits, duplicate tenants).
 */

#include "colo/engine.hh"

#include <cmath>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace {

using namespace pliant;
using namespace pliant::colo;

/** Relative tolerance for the pinned pre-refactor numbers: the
 * arithmetic is identical, so this only absorbs last-ulp libm
 * differences across toolchains. */
constexpr double kRelTol = 1e-9;

#define EXPECT_PINNED(actual, golden) \
    EXPECT_NEAR(actual, golden, std::abs(golden) * kRelTol)

TEST(EngineRegressionTest, PliantSingleAppMatchesPreRefactorNumbers)
{
    const ColoResult r = runColocation(
        services::ServiceKind::Memcached, {"canneal"},
        core::RuntimeKind::Pliant, 33);
    EXPECT_PINNED(r.overallP99Us, 851.65302665005822);
    EXPECT_PINNED(r.steadyP99Us, 247.62057575172005);
    EXPECT_PINNED(r.meanIntervalP99Us, 166.11821731330028);
    EXPECT_PINNED(r.qosMetFraction, 0.80000000000000004);
    EXPECT_EQ(r.timeline.size(), 25u);
    EXPECT_EQ(r.maxCoresReclaimedTotal, 1);
    EXPECT_EQ(r.typicalCoresReclaimed, 1);
    ASSERT_EQ(r.apps.size(), 1u);
    EXPECT_PINNED(r.apps[0].inaccuracy, 0.047484937659885089);
    EXPECT_PINNED(r.apps[0].relativeExecTime, 0.64949999999999997);
    EXPECT_EQ(r.apps[0].switches, 1);
    EXPECT_PINNED(r.timeline.back().p99Us, 141.09470936694575);
    EXPECT_PINNED(r.timeline.back().loadFraction,
                  0.80775416712913262);
}

TEST(EngineRegressionTest, PliantTwoAppMatchesPreRefactorNumbers)
{
    const ColoResult r = runColocation(
        services::ServiceKind::Nginx, {"canneal", "bayesian"},
        core::RuntimeKind::Pliant, 7);
    EXPECT_PINNED(r.overallP99Us, 71431.775438696568);
    EXPECT_PINNED(r.steadyP99Us, 37851.119005662069);
    EXPECT_PINNED(r.meanIntervalP99Us, 10963.174573611705);
    EXPECT_PINNED(r.qosMetFraction, 0.76923076923076927);
    EXPECT_EQ(r.timeline.size(), 26u);
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
    const ColoResult r = runColocation(
        services::ServiceKind::MongoDb, {"snp"},
        core::RuntimeKind::Learned, 5);
    EXPECT_PINNED(r.overallP99Us, 115045.78570774179);
    EXPECT_PINNED(r.steadyP99Us, 88699.240896317351);
    EXPECT_PINNED(r.qosMetFraction, 0.80645161290322576);
    EXPECT_EQ(r.timeline.size(), 31u);
    ASSERT_EQ(r.apps.size(), 1u);
    EXPECT_PINNED(r.apps[0].inaccuracy, 0.019704575919043815);
    EXPECT_EQ(r.apps[0].switches, 5);
}

TEST(EngineRegressionTest, PreciseBaselineMatchesPreRefactorNumbers)
{
    const ColoResult r = runColocation(
        services::ServiceKind::Memcached, {"canneal"},
        core::RuntimeKind::Precise, 11);
    EXPECT_PINNED(r.overallP99Us, 1604.9142869211935);
    EXPECT_PINNED(r.steadyP99Us, 1688.660206917443);
    EXPECT_PINNED(r.meanIntervalP99Us, 1279.8011361988601);
    EXPECT_DOUBLE_EQ(r.qosMetFraction, 0.0);
    EXPECT_EQ(r.timeline.size(), 40u);
    EXPECT_EQ(r.maxCoresReclaimedTotal, 0);
}

TEST(EngineRegressionTest, ExplicitConstantTenantEqualsLegacyConfig)
{
    // A one-entry services list with a constant scenario must be
    // bit-identical to the legacy service/loadFraction fields.
    ColoConfig legacy;
    legacy.service = services::ServiceKind::Memcached;
    legacy.apps = {"canneal"};
    legacy.seed = 33;

    ColoConfig modern = legacy;
    modern.services = {{services::ServiceKind::Memcached,
                        Scenario::constant(legacy.loadFraction)}};

    Engine a(legacy), b(modern);
    const ColoResult ra = a.run(), rb = b.run();
    EXPECT_EQ(ra.overallP99Us, rb.overallP99Us);
    EXPECT_EQ(ra.steadyP99Us, rb.steadyP99Us);
    ASSERT_EQ(ra.timeline.size(), rb.timeline.size());
    for (std::size_t i = 0; i < ra.timeline.size(); ++i)
        EXPECT_EQ(ra.timeline[i].p99Us, rb.timeline[i].p99Us);
    EXPECT_EQ(ra.apps[0].inaccuracy, rb.apps[0].inaccuracy);
}

/** Exact structural equality of two results (byte-identical runs). */
void
expectIdentical(const ColoResult &a, const ColoResult &b)
{
    EXPECT_EQ(a.service, b.service);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.overallP99Us, b.overallP99Us);
    EXPECT_EQ(a.steadyP99Us, b.steadyP99Us);
    EXPECT_EQ(a.meanIntervalP99Us, b.meanIntervalP99Us);
    EXPECT_EQ(a.qosMetFraction, b.qosMetFraction);
    EXPECT_EQ(a.maxCoresReclaimedTotal, b.maxCoresReclaimedTotal);
    EXPECT_EQ(a.typicalCoresReclaimed, b.typicalCoresReclaimed);
    ASSERT_EQ(a.services.size(), b.services.size());
    for (std::size_t s = 0; s < a.services.size(); ++s) {
        EXPECT_EQ(a.services[s].name, b.services[s].name);
        EXPECT_EQ(a.services[s].overallP99Us, b.services[s].overallP99Us);
        EXPECT_EQ(a.services[s].steadyP99Us, b.services[s].steadyP99Us);
        EXPECT_EQ(a.services[s].meanIntervalP99Us,
                  b.services[s].meanIntervalP99Us);
        EXPECT_EQ(a.services[s].qosMetFraction,
                  b.services[s].qosMetFraction);
    }
    ASSERT_EQ(a.apps.size(), b.apps.size());
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        EXPECT_EQ(a.apps[i].inaccuracy, b.apps[i].inaccuracy);
        EXPECT_EQ(a.apps[i].relativeExecTime,
                  b.apps[i].relativeExecTime);
        EXPECT_EQ(a.apps[i].switches, b.apps[i].switches);
    }
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].t, b.timeline[i].t);
        EXPECT_EQ(a.timeline[i].p99Us, b.timeline[i].p99Us);
        EXPECT_EQ(a.timeline[i].loadFraction,
                  b.timeline[i].loadFraction);
        ASSERT_EQ(a.timeline[i].services.size(),
                  b.timeline[i].services.size());
        for (std::size_t s = 0; s < a.timeline[i].services.size(); ++s) {
            EXPECT_EQ(a.timeline[i].services[s].p99Us,
                      b.timeline[i].services[s].p99Us);
            EXPECT_EQ(a.timeline[i].services[s].loadFraction,
                      b.timeline[i].services[s].loadFraction);
        }
        EXPECT_EQ(a.timeline[i].variantOf, b.timeline[i].variantOf);
        EXPECT_EQ(a.timeline[i].reclaimed, b.timeline[i].reclaimed);
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

TEST(EngineMultiServiceTest, FlashCrowdSweepIdenticalAt1And6Threads)
{
    const auto configs = acceptanceConfigs();

    const auto one = runColocations(configs, 1);
    const auto many = runColocations(configs, 6);
    ASSERT_EQ(one.size(), many.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        expectIdentical(one[i], many[i]);
}

TEST(EngineMultiServiceTest, ReportsBothServicesAndTheirQos)
{
    const auto results = runColocations(acceptanceConfigs());
    for (const auto &r : results) {
        ASSERT_EQ(r.services.size(), 2u);
        EXPECT_EQ(r.services[0].name, "memcached");
        EXPECT_EQ(r.services[1].name, "nginx");
        EXPECT_DOUBLE_EQ(r.services[0].qosUs, 200.0);
        EXPECT_DOUBLE_EQ(r.services[1].qosUs, 10e3);
        // Scalar fields mirror the primary service.
        EXPECT_EQ(r.qosMetFraction, r.services[0].qosMetFraction);
        EXPECT_EQ(r.steadyP99Us, r.services[0].steadyP99Us);
        // Timeline carries one slice per service.
        for (const auto &tp : r.timeline) {
            ASSERT_EQ(tp.services.size(), 2u);
            EXPECT_EQ(tp.p99Us, tp.services[0].p99Us);
            EXPECT_GT(tp.services[1].p99Us, 0.0);
        }
    }
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
    Engine engine(cfg);
    const ColoResult r = engine.run();
    double before = 0.0, after = 0.0;
    int n_before = 0, n_after = 0;
    for (const auto &tp : r.timeline) {
        if (tp.t <= 20 * s) {
            before += tp.loadFraction;
            ++n_before;
        } else {
            after += tp.loadFraction;
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
    // runtime may isolate ways before reclaiming cores, and the run
    // must stay deterministic across thread counts.
    const sim::Time s = sim::kSecond;
    ColoConfig cfg = makeMultiServiceConfig(
        {{services::ServiceKind::Nginx, Scenario::constant(0.70)},
         {services::ServiceKind::MongoDb, Scenario::constant(0.60)}},
        {"canneal", "streamcluster"}, core::RuntimeKind::Pliant, 19);
    cfg.enableCachePartitioning = true;
    cfg.maxDuration = 120 * s;

    const auto one = runColocations({cfg}, 1);
    const auto many = runColocations({cfg}, 6);
    expectIdentical(one[0], many[0]);

    const ColoResult &r = one[0];
    ASSERT_EQ(r.services.size(), 2u);
    // The LLC-sensitive primary drives the partition lever.
    EXPECT_GT(r.maxPartitionWays, 0);
    for (const auto &tp : r.timeline)
        EXPECT_LE(tp.partitionWays, cfg.spec.llcWays);
}

TEST(EngineValidationTest, RejectsDuplicateApps)
{
    ColoConfig cfg;
    cfg.apps = {"canneal", "canneal"};
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
    ColoConfig cfg;
    cfg.apps = {"canneal",    "bayesian",     "snp",
                "kmeans",     "raytrace",     "glimmer",
                "fluidanimate", "water_spatial", "water_nsquared",
                "streamcluster", "plsa",      "scalparc",
                "hmmer",      "fasta",        "birch",
                "semphy"};
    EXPECT_THROW(Engine e(cfg), util::FatalError);
}

TEST(EngineValidationTest, FairShareSplitsAcrossServices)
{
    server::ServerSpec spec; // 16 usable
    EXPECT_EQ(Engine::fairShare(spec, 1, 1), 8);
    EXPECT_EQ(Engine::fairShare(spec, 2, 2), 4);
    EXPECT_EQ(Engine::fairShare(spec, 1, 2), 5);
}

} // namespace
