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
#include <string>

#include <gtest/gtest.h>

#include "driver/pool.hh"
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

/** runColocations() with every run recorded. */
std::vector<Recorded>
runRecorded(const std::vector<ColoConfig> &configs, unsigned threads)
{
    return driver::parallelMap(configs, threads, [](const ColoConfig &cfg) {
        return runRecorded(cfg);
    });
}

TEST(EngineRegressionTest, PliantSingleAppMatchesPreRefactorNumbers)
{
    const Recorded rec = runRecorded(makeColoConfig(
        services::ServiceKind::Memcached, {"canneal"},
        core::RuntimeKind::Pliant, 33));
    const ColoResult &r = rec.result;
    EXPECT_PINNED(r.overallP99Us, 851.65302665005822);
    EXPECT_PINNED(r.steadyP99Us, 247.62057575172005);
    EXPECT_PINNED(r.meanIntervalP99Us, 166.11821731330028);
    EXPECT_PINNED(r.qosMetFraction, 0.80000000000000004);
    EXPECT_EQ(rec.points.size(), 25u);
    EXPECT_EQ(r.maxCoresReclaimedTotal, 1);
    EXPECT_EQ(r.typicalCoresReclaimed, 1);
    ASSERT_EQ(r.apps.size(), 1u);
    EXPECT_PINNED(r.apps[0].inaccuracy, 0.047484937659885089);
    EXPECT_PINNED(r.apps[0].relativeExecTime, 0.64949999999999997);
    EXPECT_EQ(r.apps[0].switches, 1);
    EXPECT_PINNED(rec.points.back().p99Us, 141.09470936694575);
    EXPECT_PINNED(rec.points.back().loadFraction,
                  0.80775416712913262);
}

TEST(EngineRegressionTest, PliantTwoAppMatchesPreRefactorNumbers)
{
    const Recorded rec = runRecorded(makeColoConfig(
        services::ServiceKind::Nginx, {"canneal", "bayesian"},
        core::RuntimeKind::Pliant, 7));
    const ColoResult &r = rec.result;
    EXPECT_PINNED(r.overallP99Us, 71431.775438696568);
    EXPECT_PINNED(r.steadyP99Us, 37851.119005662069);
    EXPECT_PINNED(r.meanIntervalP99Us, 10963.174573611705);
    EXPECT_PINNED(r.qosMetFraction, 0.76923076923076927);
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
    EXPECT_PINNED(r.overallP99Us, 115045.78570774179);
    EXPECT_PINNED(r.steadyP99Us, 88699.240896317351);
    EXPECT_PINNED(r.qosMetFraction, 0.80645161290322576);
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
    EXPECT_PINNED(r.overallP99Us, 1604.9142869211935);
    EXPECT_PINNED(r.steadyP99Us, 1688.660206917443);
    EXPECT_PINNED(r.meanIntervalP99Us, 1279.8011361988601);
    EXPECT_DOUBLE_EQ(r.qosMetFraction, 0.0);
    EXPECT_EQ(rec.points.size(), 40u);
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

    const Recorded a = runRecorded(legacy), b = runRecorded(modern);
    EXPECT_EQ(a.result.overallP99Us, b.result.overallP99Us);
    EXPECT_EQ(a.result.steadyP99Us, b.result.steadyP99Us);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i)
        EXPECT_EQ(a.points[i].p99Us, b.points[i].p99Us);
    EXPECT_EQ(a.result.apps[0].inaccuracy, b.result.apps[0].inaccuracy);
}

/** Exact structural equality of two recorded (byte-identical) runs. */
void
expectIdentical(const Recorded &ra, const Recorded &rb)
{
    const ColoResult &a = ra.result, &b = rb.result;
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
    const std::vector<TimePoint> &pa = ra.points, &pb = rb.points;
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i].t, pb[i].t);
        EXPECT_EQ(pa[i].p99Us, pb[i].p99Us);
        EXPECT_EQ(pa[i].loadFraction, pb[i].loadFraction);
        ASSERT_EQ(pa[i].services.size(), pb[i].services.size());
        for (std::size_t s = 0; s < pa[i].services.size(); ++s) {
            EXPECT_EQ(pa[i].services[s].p99Us, pb[i].services[s].p99Us);
            EXPECT_EQ(pa[i].services[s].loadFraction,
                      pb[i].services[s].loadFraction);
        }
        EXPECT_EQ(pa[i].variantOf, pb[i].variantOf);
        EXPECT_EQ(pa[i].reclaimed, pb[i].reclaimed);
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

    const auto one = runRecorded(configs, 1);
    const auto many = runRecorded(configs, 6);
    ASSERT_EQ(one.size(), many.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        expectIdentical(one[i], many[i]);
    // runColocations is the same parallel map without the recorder.
    const auto batch = runColocations(configs, 6);
    ASSERT_EQ(batch.size(), one.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectIdentical({batch[i], one[i].points}, one[i]);
}

TEST(EngineMultiServiceTest, ReportsBothServicesAndTheirQos)
{
    for (const auto &rec : runRecorded(acceptanceConfigs(), 0)) {
        const ColoResult &r = rec.result;
        ASSERT_EQ(r.services.size(), 2u);
        EXPECT_EQ(r.services[0].name, "memcached");
        EXPECT_EQ(r.services[1].name, "nginx");
        EXPECT_DOUBLE_EQ(r.services[0].qosUs, 200.0);
        EXPECT_DOUBLE_EQ(r.services[1].qosUs, 10e3);
        // Scalar fields mirror the primary service.
        EXPECT_EQ(r.qosMetFraction, r.services[0].qosMetFraction);
        EXPECT_EQ(r.steadyP99Us, r.services[0].steadyP99Us);
        // Timeline carries one slice per service.
        for (const auto &tp : rec.points) {
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
    double before = 0.0, after = 0.0;
    int n_before = 0, n_after = 0;
    for (const auto &tp : runRecorded(cfg).points) {
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

    const auto one = runRecorded({cfg}, 1);
    const auto many = runRecorded({cfg}, 6);
    expectIdentical(one[0], many[0]);

    const ColoResult &r = one[0].result;
    ASSERT_EQ(r.services.size(), 2u);
    // The LLC-sensitive primary drives the partition lever.
    EXPECT_GT(r.maxPartitionWays, 0);
    for (const auto &tp : one[0].points)
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

TEST(EngineValidationTest, RejectsNonPositiveTickWithItsOwnMessage)
{
    // The tick check is the engine's own, and its message is the one
    // raised: nothing built before checkConfig may reject the tick
    // first with a different error.
    for (const sim::Time tick : {sim::Time{0}, sim::Time{-1}}) {
        ColoConfig cfg;
        cfg.apps = {"canneal"};
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

TEST(EngineValidationTest, FairShareSplitsAcrossServices)
{
    server::ServerSpec spec; // 16 usable
    EXPECT_EQ(Engine::fairShare(spec, 1, 1), 8);
    EXPECT_EQ(Engine::fairShare(spec, 2, 2), 4);
    EXPECT_EQ(Engine::fairShare(spec, 1, 2), 5);
}

} // namespace
