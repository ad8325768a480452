/**
 * @file
 * Integration tests for the colocation experiment harness.
 */

#include "colo/engine.hh"

#include <gtest/gtest.h>

#include "approx/profile.hh"
#include "util/logging.hh"

namespace {

using namespace pliant;
using namespace pliant::colo;

/** Run `cfg`, recording its per-interval series into `recorder`. */
ColoResult
runRecorded(const ColoConfig &cfg, TimelineRecorder &recorder)
{
    Engine engine(cfg);
    engine.setTimelineSink(&recorder);
    return engine.run();
}

TEST(FairShareTest, SplitsUsableCores)
{
    server::ServerSpec spec; // 16 usable
    EXPECT_EQ(Engine::fairShare(spec, 1, 1), 8);
    EXPECT_EQ(Engine::fairShare(spec, 2, 1), 5);
    EXPECT_EQ(Engine::fairShare(spec, 3, 1), 4);
}

TEST(ExperimentTest, RequiresAtLeastOneService)
{
    // An app-less node is legal; a tenant-less one is not.
    ColoConfig cfg;
    cfg.apps = {"canneal"};
    try {
        Engine exp(cfg);
        ADD_FAILURE() << "a config without services was accepted";
    } catch (const util::FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      "needs at least one interactive service"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ExperimentTest, RunsToTaskCompletion)
{
    TimelineRecorder recorder;
    const ColoResult r = runRecorded(
        makeColoConfig(services::ServiceKind::Memcached, {"raytrace"},
                       core::RuntimeKind::Pliant, 1),
        recorder);
    ASSERT_EQ(r.apps.size(), 1u);
    EXPECT_TRUE(r.apps[0].finished);
    EXPECT_GT(r.apps[0].relativeExecTime, 0.0);
    EXPECT_FALSE(recorder.points.empty());
}

TEST(ExperimentTest, DeterministicForSeed)
{
    const ColoConfig cfg = makeColoConfig(
        services::ServiceKind::Nginx, {"canneal"},
        core::RuntimeKind::Pliant, 42);
    TimelineRecorder ta, tb;
    const ColoResult a = runRecorded(cfg, ta);
    const ColoResult b = runRecorded(cfg, tb);
    EXPECT_DOUBLE_EQ(a.services[0].overallP99Us, b.services[0].overallP99Us);
    EXPECT_DOUBLE_EQ(a.apps[0].inaccuracy, b.apps[0].inaccuracy);
    ASSERT_EQ(ta.points.size(), tb.points.size());
    for (std::size_t i = 0; i < ta.points.size(); ++i)
        EXPECT_DOUBLE_EQ(ta.points[i].services[0].p99Us,
                         tb.points[i].services[0].p99Us);
}

TEST(ExperimentTest, DifferentSeedsDiffer)
{
    const ColoResult a = runColocation(
        services::ServiceKind::Nginx, {"canneal"},
        core::RuntimeKind::Pliant, 1);
    const ColoResult b = runColocation(
        services::ServiceKind::Nginx, {"canneal"},
        core::RuntimeKind::Pliant, 2);
    EXPECT_NE(a.services[0].overallP99Us, b.services[0].overallP99Us);
}

TEST(ExperimentTest, PreciseBaselineNeverActuates)
{
    TimelineRecorder recorder;
    const ColoResult r = runRecorded(
        makeColoConfig(services::ServiceKind::Memcached, {"canneal"},
                       core::RuntimeKind::Precise, 3),
        recorder);
    EXPECT_EQ(r.runtime, "precise");
    for (const auto &tp : recorder.points) {
        EXPECT_EQ(tp.variantOf[0], 0);
        EXPECT_EQ(tp.reclaimed[0], 0);
    }
    EXPECT_EQ(r.apps[0].switches, 0);
    EXPECT_DOUBLE_EQ(r.apps[0].inaccuracy, 0.0);
    // The baseline runs natively: no instrumentation overhead.
    EXPECT_DOUBLE_EQ(r.apps[0].dynrecOverhead, 0.0);
}

TEST(ExperimentTest, PliantCarriesDynrecOverhead)
{
    const ColoResult r = runColocation(
        services::ServiceKind::Memcached, {"canneal"},
        core::RuntimeKind::Pliant, 3);
    EXPECT_GT(r.apps[0].dynrecOverhead, 0.0);
}

TEST(ExperimentTest, TimelineInvariants)
{
    TimelineRecorder recorder;
    runRecorded(makeColoConfig(services::ServiceKind::Nginx,
                               {"canneal", "bayesian"},
                               core::RuntimeKind::Pliant, 7),
                recorder);
    ASSERT_FALSE(recorder.points.empty());
    const int most_canneal =
        approx::findProfile("canneal").mostApproxIndex();
    const int most_bayes =
        approx::findProfile("bayesian").mostApproxIndex();
    for (const auto &tp : recorder.points) {
        ASSERT_EQ(tp.variantOf.size(), 2u);
        EXPECT_GE(tp.variantOf[0], 0);
        EXPECT_LE(tp.variantOf[0], most_canneal);
        EXPECT_GE(tp.variantOf[1], 0);
        EXPECT_LE(tp.variantOf[1], most_bayes);
        EXPECT_GE(tp.reclaimed[0], 0);
        EXPECT_GE(tp.reclaimed[1], 0);
        EXPECT_GT(tp.services[0].p99Us, 0.0);
    }
}

TEST(ExperimentTest, MultiAppUsesSmallerFairShare)
{
    const ColoConfig cfg = makeColoConfig(
        services::ServiceKind::MongoDb, {"scalparc", "fasta", "hmmer"},
        core::RuntimeKind::Pliant, 4);
    Engine exp(cfg);
    const ColoResult r = exp.run();
    EXPECT_EQ(r.apps.size(), 3u);
    for (const auto &a : r.apps)
        EXPECT_TRUE(a.finished);
}

TEST(ExperimentTest, QosMetFractionWithinUnit)
{
    const ColoResult r = runColocation(
        services::ServiceKind::MongoDb, {"snp"},
        core::RuntimeKind::Pliant, 5);
    EXPECT_GE(r.services[0].qosMetFraction, 0.0);
    EXPECT_LE(r.services[0].qosMetFraction, 1.0);
}

TEST(ExperimentTest, InaccuracyWithinCatalogBudget)
{
    // Work-weighted inaccuracy can never exceed the most-approximate
    // variant's inaccuracy plus the sync-elision noise.
    const ColoResult r = runColocation(
        services::ServiceKind::Memcached, {"canneal"},
        core::RuntimeKind::Pliant, 6);
    const auto &prof = approx::findProfile("canneal");
    const double bound =
        prof.variants.back().inaccuracy + prof.syncElisionNoise + 1e-9;
    EXPECT_LE(r.apps[0].inaccuracy, bound);
}

TEST(ExperimentTest, MaxDurationCapsRunaway)
{
    ColoConfig cfg = makeColoConfig(services::ServiceKind::Memcached,
                                    {"plsa"}, core::RuntimeKind::Pliant);
    cfg.maxDuration = 3 * sim::kSecond;
    TimelineRecorder recorder;
    const ColoResult r = runRecorded(cfg, recorder);
    EXPECT_LE(recorder.points.size(), 3u);
    EXPECT_FALSE(r.apps[0].finished);
}

TEST(ExperimentTest, DecisionIntervalControlsTimelineDensity)
{
    ColoConfig cfg = makeColoConfig(services::ServiceKind::Memcached,
                                    {"raytrace"},
                                    core::RuntimeKind::Pliant, 8);
    cfg.decisionInterval = 2 * sim::kSecond;
    TimelineRecorder coarse;
    runRecorded(cfg, coarse);

    ColoConfig cfg2 = cfg;
    cfg2.decisionInterval = sim::kSecond;
    TimelineRecorder fine;
    runRecorded(cfg2, fine);
    // Same wall time, double the decision points (within rounding).
    EXPECT_GT(fine.points.size(), coarse.points.size());
}

TEST(ExperimentTest, ImpactAwareArbiterRuns)
{
    ColoConfig cfg = makeColoConfig(services::ServiceKind::Nginx,
                                    {"canneal", "snp"},
                                    core::RuntimeKind::Pliant, 9);
    cfg.arbiter = core::ArbiterKind::ImpactAware;
    Engine exp(cfg);
    const ColoResult r = exp.run();
    EXPECT_EQ(r.apps.size(), 2u);
    // Impact-aware should prefer escalating SNP (more relief, similar
    // cost), so SNP's switches should be at least canneal's.
    EXPECT_TRUE(r.apps[0].finished);
    EXPECT_TRUE(r.apps[1].finished);
}

} // namespace
