/**
 * @file
 * obs::MetricsRegistry: freeze semantics, snapshot merging, and the
 * JSON/table exporters the bench tooling parses.
 */

#include "obs/metrics.hh"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace pliant {
namespace obs {
namespace {

TEST(MetricsRegistryTest, SnapshotPreservesRegistrationOrderAndTags)
{
    MetricsRegistry reg;
    reg.counter("a.count");
    reg.gauge("b.gauge", Stability::WallTime);
    reg.stat("c.stat");
    reg.histogram("d.hist", 1.0, 2.0, 8);
    reg.freeze();
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.metrics.size(), 4U);
    EXPECT_EQ(snap.metrics[0].name, "a.count");
    EXPECT_EQ(snap.metrics[1].name, "b.gauge");
    EXPECT_EQ(snap.metrics[2].name, "c.stat");
    EXPECT_EQ(snap.metrics[3].name, "d.hist");
    EXPECT_EQ(snap.metrics[0].kind, MetricKind::Counter);
    EXPECT_EQ(snap.metrics[1].stability, Stability::WallTime);
    EXPECT_EQ(snap.metrics[2].stability, Stability::Deterministic);
    EXPECT_EQ(snap.metrics[3].buckets.size(), 8U + 2U);
}

TEST(MetricsRegistryTest, GaugeSetAndSetMax)
{
    MetricsRegistry reg;
    const MetricId g = reg.gauge("g");
    reg.freeze();
    reg.set(g, 4.0);
    reg.setMax(g, 2.0); // below current: no change
    EXPECT_EQ(reg.snapshot().metrics[0].value, 4.0);
    reg.setMax(g, 9.0);
    EXPECT_EQ(reg.snapshot().metrics[0].value, 9.0);
}

TEST(MetricsRegistryTest, RegistrationAfterFreezePanics)
{
    MetricsRegistry reg;
    reg.counter("ok");
    reg.freeze();
    EXPECT_TRUE(reg.frozen());
    EXPECT_THROW(reg.counter("late"), util::PanicError);
    EXPECT_THROW(reg.freeze(), util::PanicError);
}

TEST(MetricsSnapshotTest, MergeAddsCountersGaugesAndBuckets)
{
    const auto build = [](std::uint64_t hits, double depth,
                          double obs) {
        MetricsRegistry reg;
        const MetricId c = reg.counter("hits");
        const MetricId g = reg.gauge("depth");
        const MetricId s = reg.stat("lat");
        const MetricId h = reg.histogram("h", 1.0, 2.0, 4);
        reg.freeze();
        reg.add(c, hits);
        reg.set(g, depth);
        reg.record(s, obs);
        reg.histAdd(h, obs);
        return reg.snapshot();
    };
    MetricsSnapshot a = build(10, 1.5, 2.0);
    const MetricsSnapshot b = build(32, 2.5, 6.0);
    a.merge(b);
    EXPECT_EQ(a.find("hits")->count, 42U);
    EXPECT_EQ(a.find("depth")->value, 4.0);
    EXPECT_EQ(a.find("lat")->stat.count(), 2U);
    EXPECT_EQ(a.find("lat")->stat.mean(), 4.0);
    EXPECT_EQ(a.find("h")->histCount(), 2U);
}

TEST(MetricsSnapshotTest, MergeAppendsUnknownMetrics)
{
    MetricsRegistry reg;
    reg.counter("common");
    reg.freeze();
    MetricsSnapshot a = reg.snapshot();

    MetricsRegistry other;
    other.counter("common");
    other.counter("extra");
    other.freeze();
    a.merge(other.snapshot());
    ASSERT_EQ(a.metrics.size(), 2U);
    EXPECT_EQ(a.metrics[1].name, "extra");
}

TEST(MetricsSnapshotTest, FindReturnsNullForAbsentName)
{
    MetricsSnapshot snap;
    EXPECT_EQ(snap.find("nope"), nullptr);
    EXPECT_TRUE(snap.empty());
}

TEST(MetricsExportTest, JsonCarriesSchemaKindAndStabilityTags)
{
    MetricsRegistry reg;
    const MetricId c = reg.counter("e.ticks");
    reg.stat("e.wall", Stability::WallTime);
    reg.freeze();
    reg.add(c, 7);
    std::ostringstream os;
    writeMetricsJson(os, reg.snapshot());
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\": \"pliant-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"e.ticks\", \"kind\": "
                        "\"counter\", \"stability\": "
                        "\"deterministic\", \"count\": 7"),
              std::string::npos);
    EXPECT_NE(json.find("\"stability\": \"wall_time\""),
              std::string::npos);
    // An empty stat exports finite zeros (RunningStats clamps empty
    // min/max), and nothing in an export may be an inf/nan literal —
    // JSON has neither.
    EXPECT_NE(json.find("\"count\": 0, \"mean\": 0"),
              std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(MetricsExportTest, TableListsEveryMetric)
{
    MetricsRegistry reg;
    reg.counter("one");
    reg.gauge("two");
    reg.freeze();
    std::ostringstream os;
    metricsTable(reg.snapshot()).print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("one"), std::string::npos);
    EXPECT_NE(text.find("two"), std::string::npos);
    EXPECT_NE(text.find("counter"), std::string::npos);
    EXPECT_NE(text.find("gauge"), std::string::npos);
}

TEST(MetricsExportTest, TableScalesWallSecondsButNotJson)
{
    MetricsRegistry reg;
    const MetricId phase =
        reg.stat("phase.close_wall_s", Stability::WallTime);
    const MetricId job =
        reg.gauge("pool.job_wall_max_s", Stability::WallTime);
    const MetricId epoch = reg.stat("epoch_wall_s", Stability::WallTime);
    const MetricId p99 = reg.stat("engine.interval_p99_us");
    reg.freeze();
    reg.record(phase, 3.2e-6);
    reg.set(job, 0.0125);
    reg.record(epoch, 2.5);
    reg.record(p99, 3.2e-6);
    const MetricsSnapshot snap = reg.snapshot();

    std::ostringstream table;
    metricsTable(snap).print(table);
    const std::string text = table.str();
    EXPECT_NE(text.find("mean=3.200 µs max=3.200 µs"), std::string::npos)
        << text;
    EXPECT_NE(text.find("12.500 ms"), std::string::npos) << text;
    EXPECT_NE(text.find("mean=2.500 s"), std::string::npos) << text;
    // Deterministic values and non-second units keep the plain format.
    EXPECT_NE(text.find("mean=0.0000 max=0.0000"), std::string::npos)
        << text;

    // The JSON export stays in raw seconds.
    std::ostringstream json;
    writeMetricsJson(json, snap);
    EXPECT_NE(json.str().find("\"mean\": 3.1999999999999999e-06"),
              std::string::npos)
        << json.str();
    EXPECT_EQ(json.str().find("µs"), std::string::npos);
}

TEST(MetricsRegistryTest, UpdatesOnFrozenRegistryDoNotAllocate)
{
    // The warmed tick loop relies on every update path being
    // heap-free; storage is allocated at registration, so the
    // update methods are plain array writes. Verified for real (with
    // a global operator-new trap) in colo_zero_alloc_test; here we
    // just pin the shapes that make it possible.
    MetricsRegistry reg;
    const MetricId c = reg.counter("c");
    const MetricId h = reg.histogram("h", 1.0, 2.0, 16);
    const MetricId g = reg.gauge("g");
    const MetricId s = reg.stat("s");
    reg.freeze();
    for (int i = 0; i < 4; ++i) {
        reg.add(c);
        reg.histAdd(h, 3.0);
    }
    reg.set(g, 1.0);
    reg.record(s, 2.0);
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.find("c")->count, 4U);
    EXPECT_EQ(snap.find("h")->histCount(), 4U);
}

} // namespace
} // namespace obs
} // namespace pliant
