/**
 * @file
 * Tests for the fluent config builder and the up-front validation
 * pass it shares with the engine:
 *
 *  - builder output is byte-identical to the hand-written config it
 *    describes (so migrating call sites can never move results);
 *  - every class of config error surfaces at build() time: unknown
 *    apps, duplicates, out-of-range initial variants, duplicate
 *    tenant names, fair-core starvation, a NaN or out-of-range slack
 *    threshold, and non-finite or negative scenario loads;
 *  - ServiceSpec instance names make same-kind shards expressible,
 *    and reports/traces key on the name.
 */

#include "colo/builder.hh"

#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "colo/trace.hh"
#include "util/logging.hh"

namespace {

using namespace pliant;
using namespace pliant::colo;

TEST(ConfigBuilderTest, BuildsTheEquivalentHandWrittenConfig)
{
    const sim::Time s = sim::kSecond;
    const ColoConfig built =
        ConfigBuilder()
            .service(services::ServiceKind::Memcached,
                     Scenario::flashCrowd(0.60, 0.95, 30 * s, 3 * s,
                                          20 * s, 10 * s))
            .service(services::ServiceKind::Nginx,
                     Scenario::constant(0.65))
            .apps({"canneal", "bayesian"})
            .runtime(core::RuntimeKind::Pliant)
            .seed(71)
            .maxDuration(120 * s)
            .build();

    ColoConfig manual = makeMultiServiceConfig(
        {{services::ServiceKind::Memcached,
          Scenario::flashCrowd(0.60, 0.95, 30 * s, 3 * s, 20 * s,
                               10 * s)},
         {services::ServiceKind::Nginx, Scenario::constant(0.65)}},
        {"canneal", "bayesian"}, core::RuntimeKind::Pliant, 71);
    manual.maxDuration = 120 * s;

    Engine a(built), b(manual);
    TimelineRecorder ta, tb;
    a.setTimelineSink(&ta);
    b.setTimelineSink(&tb);
    const ColoResult ra = a.run(), rb = b.run();
    EXPECT_EQ(ra.overallP99Us, rb.overallP99Us);
    EXPECT_EQ(ra.steadyP99Us, rb.steadyP99Us);
    EXPECT_EQ(ra.qosMetFraction, rb.qosMetFraction);
    ASSERT_FALSE(ta.points.empty());
    ASSERT_EQ(ta.points.size(), tb.points.size());
    for (std::size_t i = 0; i < ta.points.size(); ++i)
        EXPECT_EQ(ta.points[i].p99Us, tb.points[i].p99Us);
    ASSERT_EQ(ra.apps.size(), rb.apps.size());
    for (std::size_t i = 0; i < ra.apps.size(); ++i)
        EXPECT_EQ(ra.apps[i].inaccuracy, rb.apps[i].inaccuracy);
}

TEST(ConfigBuilderTest, PinnedVariantsReachTheTasks)
{
    const ColoConfig cfg = ConfigBuilder()
                               .service(services::ServiceKind::Memcached,
                                        Scenario::constant(0.5))
                               .app("canneal", 2)
                               .app("bayesian")
                               .build();
    ASSERT_EQ(cfg.initialVariants.size(), 2u);
    EXPECT_EQ(cfg.initialVariants[0], 2);
    EXPECT_EQ(cfg.initialVariants[1], 0);
}

TEST(ConfigBuilderTest, AllPreciseVariantListIsDropped)
{
    // apps() alone must produce the same config bytes as a raw
    // struct with an empty initialVariants list.
    const ColoConfig cfg = ConfigBuilder()
                               .service(services::ServiceKind::Nginx,
                                        Scenario::constant(0.6))
                               .apps({"canneal", "bayesian"})
                               .build();
    EXPECT_TRUE(cfg.initialVariants.empty());
}

TEST(ConfigBuilderValidationTest, RejectsUnknownApp)
{
    EXPECT_THROW(ConfigBuilder()
                     .service(services::ServiceKind::Memcached,
                              Scenario::constant(0.5))
                     .app("no-such-app")
                     .build(),
                 util::FatalError);
}

TEST(ConfigBuilderValidationTest, RejectsDuplicateApps)
{
    EXPECT_THROW(ConfigBuilder()
                     .service(services::ServiceKind::Memcached,
                              Scenario::constant(0.5))
                     .app("canneal")
                     .app("canneal")
                     .build(),
                 util::FatalError);
}

TEST(ConfigBuilderValidationTest, RejectsOutOfRangeInitialVariant)
{
    // canneal has 4 variants (0..3 valid).
    EXPECT_THROW(ConfigBuilder()
                     .service(services::ServiceKind::Memcached,
                              Scenario::constant(0.5))
                     .app("canneal", 99)
                     .build(),
                 util::FatalError);
    EXPECT_THROW(ConfigBuilder()
                     .service(services::ServiceKind::Memcached,
                              Scenario::constant(0.5))
                     .app("canneal", -1)
                     .build(),
                 util::FatalError);
}

TEST(ConfigBuilderValidationTest, RejectsMismatchedRawVariantList)
{
    // The same pass guards raw configs handed to the engine.
    ColoConfig cfg;
    cfg.apps = {"canneal", "bayesian"};
    cfg.initialVariants = {1};
    EXPECT_THROW(Engine e(cfg), util::FatalError);

    cfg.initialVariants = {1, 99};
    EXPECT_THROW(Engine e(cfg), util::FatalError);
}

TEST(ConfigBuilderValidationTest, RejectsDuplicateTenantNames)
{
    // Two unnamed memcached tenants collide on the default name...
    EXPECT_THROW(ConfigBuilder()
                     .service(services::ServiceKind::Memcached,
                              Scenario::constant(0.5))
                     .service(services::ServiceKind::Memcached,
                              Scenario::constant(0.6))
                     .app("canneal")
                     .build(),
                 util::FatalError);
    // ... as do two tenants with the same explicit name.
    EXPECT_THROW(ConfigBuilder()
                     .service("shard", services::ServiceKind::Memcached,
                              Scenario::constant(0.5))
                     .service("shard", services::ServiceKind::Nginx,
                              Scenario::constant(0.6))
                     .app("canneal")
                     .build(),
                 util::FatalError);
}

TEST(ConfigBuilderValidationTest, DuplicateTenantReportsTheFirstRepeated)
{
    // Tenants a, b, b, a: the lowest index whose name recurs later
    // is 0, so 'a' is reported even though the b pair is adjacent.
    ConfigBuilder builder;
    for (const char *name : {"a", "b", "b", "a"})
        builder.service(name, services::ServiceKind::Memcached,
                        Scenario::constant(0.3));
    builder.app("canneal");
    std::string text;
    try {
        builder.build();
    } catch (const util::FatalError &e) {
        text = e.what();
    }
    EXPECT_EQ(text, "duplicate service 'a' in colocation config: give "
                    "same-kind tenants distinct instance names");
}

TEST(ConfigBuilderValidationTest, RejectsNonPositiveTiming)
{
    EXPECT_THROW(ConfigBuilder()
                     .service(services::ServiceKind::Memcached,
                              Scenario::constant(0.5))
                     .app("canneal")
                     .decisionInterval(0)
                     .build(),
                 util::FatalError);
    EXPECT_THROW(ConfigBuilder()
                     .service(services::ServiceKind::Memcached,
                              Scenario::constant(0.5))
                     .app("canneal")
                     .maxDuration(-1)
                     .build(),
                 util::FatalError);
}

/** The loads every scenario kind must reject. */
const double kBadLoads[] = {-0.2,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()};

/** Whether a one-tenant config with `scenario` fails at build(). */
bool
rejectsScenario(const Scenario &scenario)
{
    try {
        ConfigBuilder()
            .service(services::ServiceKind::Memcached, scenario)
            .app("canneal")
            .build();
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
    for (const double bad : kBadLoads) {
        const ColoConfig cfg = makeColoConfig(
            services::ServiceKind::Memcached, {"canneal"},
            core::RuntimeKind::Pliant, 1, bad);
        EXPECT_THROW(checkConfig(cfg), util::FatalError) << bad;
        EXPECT_THROW(Engine engine(cfg), util::FatalError) << bad;
    }
}

TEST(ServiceNamingTest, SameKindShardsRunUnderDistinctNames)
{
    const sim::Time s = sim::kSecond;
    const ColoConfig cfg =
        ConfigBuilder()
            .service("mc-a", services::ServiceKind::Memcached,
                     Scenario::constant(0.55))
            .service("mc-b", services::ServiceKind::Memcached,
                     Scenario::step(0.45, 0.85, 30 * s))
            .apps({"canneal", "bayesian"})
            .runtime(core::RuntimeKind::Pliant)
            .maxDuration(90 * s)
            .seed(13)
            .build();
    Engine engine(cfg);
    std::ostringstream timeline;
    CsvTimelineSink sink = CsvTimelineSink::forConfig(timeline, cfg);
    engine.setTimelineSink(&sink);
    const ColoResult r = engine.run();

    ASSERT_EQ(r.services.size(), 2u);
    EXPECT_EQ(r.service, "mc-a");
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
