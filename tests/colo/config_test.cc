/**
 * @file
 * Tests for the up-front validation pass (colo::checkConfig) that
 * Engine's constructor runs on every raw ColoConfig:
 *
 *  - every class of config error surfaces before the tick loop:
 *    unknown apps, duplicates, out-of-range or mismatched initial
 *    variants, duplicate tenant names, non-positive timing, and
 *    non-finite or negative scenario loads;
 *  - pinned initial variants reach the tasks;
 *  - ServiceSpec instance names make same-kind shards expressible,
 *    and reports/traces key on the name.
 */

#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "colo/engine.hh"
#include "colo/trace.hh"
#include "util/logging.hh"

namespace {

using namespace pliant;
using namespace pliant::colo;

/** One memcached tenant at load 0.5 with the given apps. */
ColoConfig
oneTenant(const std::vector<std::string> &apps)
{
    return makeMultiServiceConfig(
        {{services::ServiceKind::Memcached, Scenario::constant(0.5)}},
        apps, core::RuntimeKind::Pliant);
}

TEST(ConfigTest, PinnedVariantsReachTheTasks)
{
    // The precise baseline never switches a variant, so the pinned
    // starting variants are what every timeline point reports.
    ColoConfig cfg = oneTenant({"canneal", "bayesian"});
    cfg.runtime = core::RuntimeKind::Precise;
    cfg.initialVariants = {2, 0};
    cfg.maxDuration = 3 * sim::kSecond;
    Engine engine(cfg);
    TimelineRecorder recorder;
    engine.setTimelineSink(&recorder);
    engine.run();
    ASSERT_FALSE(recorder.points.empty());
    for (const TimePoint &tp : recorder.points)
        EXPECT_EQ(tp.variantOf, (std::vector<int>{2, 0}));
}

TEST(ConfigValidationTest, RejectsUnknownApp)
{
    EXPECT_THROW(checkConfig(oneTenant({"no-such-app"})),
                 util::FatalError);
}

TEST(ConfigValidationTest, RejectsDuplicateApps)
{
    EXPECT_THROW(checkConfig(oneTenant({"canneal", "canneal"})),
                 util::FatalError);
}

TEST(ConfigValidationTest, RejectsOutOfRangeInitialVariant)
{
    // canneal has 4 variants (0..3 valid).
    ColoConfig cfg = oneTenant({"canneal"});
    for (const int bad : {99, -1}) {
        cfg.initialVariants = {bad};
        EXPECT_THROW(checkConfig(cfg), util::FatalError) << bad;
    }
}

TEST(ConfigValidationTest, RejectsMismatchedRawVariantList)
{
    // The same pass guards raw configs handed to the engine.
    ColoConfig cfg = oneTenant({"canneal", "bayesian"});
    cfg.initialVariants = {1};
    EXPECT_THROW(Engine e(cfg), util::FatalError);

    cfg.initialVariants = {1, 99};
    EXPECT_THROW(Engine e(cfg), util::FatalError);
}

TEST(ConfigValidationTest, RejectsDuplicateTenantNames)
{
    // Two unnamed memcached tenants collide on the default name...
    ColoConfig cfg = oneTenant({"canneal"});
    cfg.services.push_back(
        {services::ServiceKind::Memcached, Scenario::constant(0.6)});
    EXPECT_THROW(checkConfig(cfg), util::FatalError);
    // ... as do two tenants with the same explicit name.
    cfg.services = {{services::ServiceKind::Memcached,
                     Scenario::constant(0.5), "shard"},
                    {services::ServiceKind::Nginx,
                     Scenario::constant(0.6), "shard"}};
    EXPECT_THROW(checkConfig(cfg), util::FatalError);
}

TEST(ConfigValidationTest, DuplicateTenantReportsTheFirstRepeated)
{
    // Tenants a, b, b, a: the lowest index whose name recurs later
    // is 0, so 'a' is reported even though the b pair is adjacent.
    ColoConfig cfg = oneTenant({"canneal"});
    cfg.services.clear();
    for (const char *name : {"a", "b", "b", "a"})
        cfg.services.push_back({services::ServiceKind::Memcached,
                                Scenario::constant(0.3), name});
    std::string text;
    try {
        checkConfig(cfg);
    } catch (const util::FatalError &e) {
        text = e.what();
    }
    EXPECT_EQ(text, "duplicate service 'a' in colocation config: give "
                    "same-kind tenants distinct instance names");
}

TEST(ConfigValidationTest, RejectsNonPositiveTiming)
{
    ColoConfig cfg = oneTenant({"canneal"});
    cfg.decisionInterval = 0;
    EXPECT_THROW(checkConfig(cfg), util::FatalError);
    cfg = oneTenant({"canneal"});
    cfg.maxDuration = -1;
    EXPECT_THROW(checkConfig(cfg), util::FatalError);
}

/** The loads every scenario kind must reject. */
const double kBadLoads[] = {-0.2,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()};

/** Whether a one-tenant config with `scenario` fails validation. */
bool
rejectsScenario(const Scenario &scenario)
{
    ColoConfig cfg = oneTenant({"canneal"});
    cfg.services[0].scenario = scenario;
    try {
        checkConfig(cfg);
    } catch (const util::FatalError &) {
        return true;
    }
    return false;
}

TEST(ScenarioLoadValidationTest, RejectsBadConstantLoad)
{
    for (const double bad : kBadLoads)
        EXPECT_TRUE(rejectsScenario(Scenario::constant(bad))) << bad;
    EXPECT_FALSE(rejectsScenario(Scenario::constant(0.0)));
    // Constant reads only baseLoad; the other fields stay inert.
    Scenario flat = Scenario::constant(0.5);
    flat.peakLoad = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(rejectsScenario(flat));
}

TEST(ScenarioLoadValidationTest, RejectsBadDiurnalLoadAndAmplitude)
{
    const sim::Time s = sim::kSecond;
    for (const double bad : kBadLoads)
        EXPECT_TRUE(rejectsScenario(Scenario::diurnal(bad, 0.2, 60 * s)))
            << bad;
    for (const double bad : {kBadLoads[1], kBadLoads[2]})
        EXPECT_TRUE(rejectsScenario(Scenario::diurnal(0.5, bad, 60 * s)))
            << bad;
    EXPECT_FALSE(rejectsScenario(Scenario::diurnal(0.5, -0.2, 60 * s)));
}

TEST(ScenarioLoadValidationTest, RejectsBadFlashCrowdLoads)
{
    const sim::Time s = sim::kSecond;
    for (const double bad : kBadLoads) {
        EXPECT_TRUE(rejectsScenario(
            Scenario::flashCrowd(bad, 0.9, 10 * s, s, s, s)))
            << bad;
        EXPECT_TRUE(rejectsScenario(
            Scenario::flashCrowd(0.5, bad, 10 * s, s, s, s)))
            << bad;
    }
}

TEST(ScenarioLoadValidationTest, RejectsBadStepLoads)
{
    const sim::Time s = sim::kSecond;
    for (const double bad : kBadLoads) {
        EXPECT_TRUE(rejectsScenario(Scenario::step(bad, 0.5, 10 * s)))
            << bad;
        EXPECT_TRUE(rejectsScenario(Scenario::step(0.5, bad, 10 * s)))
            << bad;
    }
}

TEST(ScenarioLoadValidationTest, RejectsBadTraceLoads)
{
    const sim::Time s = sim::kSecond;
    for (const double bad : kBadLoads) {
        // The factory rejects these itself...
        EXPECT_THROW(Scenario::trace({{0, 0.5}, {10 * s, bad}}),
                     util::FatalError)
            << bad;
        // ... and knots written past it fail validation.
        Scenario raw = Scenario::trace({{0, 0.5}, {10 * s, 0.6}});
        raw.points[1].load = bad;
        EXPECT_TRUE(rejectsScenario(raw)) << bad;
        Scenario empty;
        empty.kind = ScenarioKind::Trace;
        empty.baseLoad = bad;
        EXPECT_TRUE(rejectsScenario(empty)) << bad;
    }
}

TEST(ScenarioLoadValidationTest, RejectsBadLegacyLoadFraction)
{
    // makeColoConfig's load fraction becomes its one tenant's
    // constant scenario, so a bad value fails that tenant's scenario
    // check, with the message a hand-built tenant gets.
    for (const double bad : kBadLoads) {
        const ColoConfig cfg = makeColoConfig(
            services::ServiceKind::Memcached, {"canneal"},
            core::RuntimeKind::Pliant, 1, bad);
        try {
            checkConfig(cfg);
            ADD_FAILURE() << "load " << bad << " was accepted";
        } catch (const util::FatalError &err) {
            EXPECT_NE(std::string(err.what())
                          .find("service 'memcached': constant scenario "
                                "load must be finite and non-negative"),
                      std::string::npos)
                << err.what();
        }
        EXPECT_THROW(Engine engine(cfg), util::FatalError) << bad;
    }
}

TEST(ServiceNamingTest, SameKindShardsRunUnderDistinctNames)
{
    const sim::Time s = sim::kSecond;
    ColoConfig cfg = makeMultiServiceConfig(
        {{services::ServiceKind::Memcached, Scenario::constant(0.55),
          "mc-a"},
         {services::ServiceKind::Memcached,
          Scenario::step(0.45, 0.85, 30 * s), "mc-b"}},
        {"canneal", "bayesian"}, core::RuntimeKind::Pliant, 13);
    cfg.maxDuration = 90 * s;
    Engine engine(cfg);
    std::ostringstream timeline;
    CsvTimelineSink sink = CsvTimelineSink::forConfig(timeline, cfg);
    engine.setTimelineSink(&sink);
    const ColoResult r = engine.run();

    ASSERT_EQ(r.services.size(), 2u);
    EXPECT_EQ(r.services[0].name, "mc-a");
    EXPECT_EQ(r.services[0].name, "mc-a");
    EXPECT_EQ(r.services[1].name, "mc-b");
    // Both shards keep memcached's QoS target.
    EXPECT_DOUBLE_EQ(r.services[0].qosUs, 200.0);
    EXPECT_DOUBLE_EQ(r.services[1].qosUs, 200.0);
    // The shards see different loads, so their tails differ.
    EXPECT_NE(r.services[0].meanIntervalP99Us,
              r.services[1].meanIntervalP99Us);

    // Traces and summaries key on the instance names.
    EXPECT_NE(timeline.str().find("mc-b_p99_us"), std::string::npos);
    std::ostringstream summary;
    writeSummaryCsv(summary, r);
    EXPECT_NE(summary.str().find("mc-a"), std::string::npos);
    EXPECT_NE(summary.str().find("mc-b"), std::string::npos);
}

} // namespace
