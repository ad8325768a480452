/**
 * @file
 * Observability wired through the engine and cluster layers:
 *
 *  - output byte-pin: an obs-off run's summary CSV contains no obs
 *    column, and the obs-on CSV only ever appends columns;
 *  - tracing: an engine/cluster trace has balanced, nested spans
 *    with non-decreasing per-track simulated timestamps, and the
 *    runs fill the engine and cluster metric families.
 *
 * The determinism contracts (every `deterministic` metric bit-equal
 * at 1 vs 3 pool threads; metrics and tracing on leave every
 * simulated value unchanged) are checked over random configs by the
 * equivalence harness in tests/colo/builder_property_test.cc.
 */

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "colo/engine.hh"
#include "colo/trace.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace {

using namespace pliant;

constexpr sim::Time kS = sim::kSecond;

/** A flash-crowd node with admission engaged: exercises every
 *  engine-side metric family in ~60 simulated seconds. */
colo::ColoConfig
engineConfig()
{
    colo::ColoConfig cfg = colo::makeMultiServiceConfig(
        {{services::ServiceKind::Memcached,
          colo::Scenario::flashCrowd(0.45, 1.10, 15 * kS, 3 * kS,
                                     20 * kS, 5 * kS)},
         {services::ServiceKind::Nginx,
          colo::Scenario::constant(0.45)}},
        {"canneal", "bayesian"}, core::RuntimeKind::Pliant, 71);
    cfg.admission.enabled = true;
    cfg.admission.policy = admission::AdmissionKind::QosShed;
    cfg.admission.batching = admission::BatchingKind::Adaptive;
    cfg.maxDuration = 60 * kS;
    return cfg;
}

cluster::ClusterConfig
clusterConfig()
{
    cluster::ClusterConfig cfg;
    cfg.nodes.resize(3);
    for (cluster::NodeSpec &node : cfg.nodes)
        node.services.push_back({services::ServiceKind::Memcached,
                                 colo::Scenario::constant(0.60)});
    cfg.nodes[0].services[0].scenario = colo::Scenario::flashCrowd(
        0.60, 0.95, 20 * kS, 3 * kS, 20 * kS, 10 * kS);
    cfg.apps = {"canneal", "bayesian", "snp"};
    cfg.runtime = core::RuntimeKind::Pliant;
    cfg.placement = cluster::PlacementKind::QosAware;
    cfg.epoch = 5 * kS;
    cfg.seed = 71;
    cfg.maxDuration = 60 * kS;
    cfg.observability.metrics = true;
    return cfg;
}

TEST(ObsEngineTest, SummaryCsvObsColumnsAppearOnlyWhenEnabled)
{
    colo::ColoConfig off = engineConfig();
    colo::ColoConfig on = engineConfig();
    on.observability.metrics = true;
    const colo::ColoResult a = colo::Engine(off).run();
    const colo::ColoResult b = colo::Engine(on).run();

    std::ostringstream sa, sb;
    colo::writeSummaryCsv(sa, a);
    colo::writeSummaryCsv(sb, b);
    const std::string csv_off = sa.str();
    const std::string csv_on = sb.str();

    // Off: byte-pin — not a single obs column.
    EXPECT_EQ(csv_off.find("obs_"), std::string::npos);
    // On: columns are appended, never inserted, so every obs-off
    // line is a strict prefix of its obs-on counterpart.
    std::istringstream la(csv_off), lb(csv_on);
    std::string line_off, line_on;
    while (std::getline(la, line_off)) {
        ASSERT_TRUE(static_cast<bool>(std::getline(lb, line_on)));
        EXPECT_EQ(line_on.compare(0, line_off.size(), line_off), 0)
            << "obs-on row must extend the obs-off row";
        EXPECT_GT(line_on.size(), line_off.size());
    }
    EXPECT_NE(csv_on.find("obs_ticks"), std::string::npos);
    EXPECT_NE(csv_on.find("obs_qos_met_intervals"), std::string::npos);

    // The run actually produced work for the registry.
    EXPECT_GT(b.metrics.find("engine.ticks")->count, 0U);
    EXPECT_GT(b.metrics.find("engine.intervals")->count, 0U);
    EXPECT_GT(b.metrics.find("engine.samples")->count, 0U);
    EXPECT_GT(b.metrics.find("engine.interval_p99_us_hist")
                  ->histCount(),
              0U);
    EXPECT_GT(b.metrics.find("admission.shed_fraction")->stat.count(),
              0U);
}

/** One parsed trace_event, enough structure for the invariants. */
struct TraceEvent
{
    std::string name;
    char ph = '?';
    long long ts = 0;
    int pid = 0;
    int tid = 0;
};

std::vector<TraceEvent>
parseTrace(const std::string &json)
{
    std::vector<TraceEvent> events;
    std::istringstream is(json);
    std::string line;
    const auto field = [](const std::string &l, const char *key) {
        const std::size_t at = l.find(key);
        EXPECT_NE(at, std::string::npos) << key << " in " << l;
        return l.substr(at + std::string(key).size());
    };
    while (std::getline(is, line)) {
        if (line.empty() || line[0] != '{')
            continue;
        TraceEvent ev;
        const std::string name = field(line, "\"name\": \"");
        ev.name = name.substr(0, name.find('"'));
        ev.ph = field(line, "\"ph\": \"")[0];
        ev.ts = std::atoll(field(line, "\"ts\": ").c_str());
        ev.pid = std::atoi(field(line, "\"pid\": ").c_str());
        ev.tid = std::atoi(field(line, "\"tid\": ").c_str());
        events.push_back(std::move(ev));
    }
    return events;
}

/** The check_trace.py invariants, in-process. */
void
expectWellFormedTrace(const std::vector<TraceEvent> &events)
{
    std::map<std::pair<int, int>, long long> last_ts;
    std::map<std::pair<int, int>, std::vector<std::string>> stacks;
    for (const TraceEvent &ev : events) {
        if (ev.ph == 'M')
            continue;
        const auto track = std::make_pair(ev.pid, ev.tid);
        const auto it = last_ts.find(track);
        if (it != last_ts.end()) {
            EXPECT_GE(ev.ts, it->second)
                << ev.name << " on track " << ev.pid << "/" << ev.tid;
        }
        last_ts[track] = ev.ts;
        if (ev.ph == 'B') {
            stacks[track].push_back(ev.name);
        } else if (ev.ph == 'E') {
            auto &stack = stacks[track];
            ASSERT_FALSE(stack.empty()) << ev.name;
            EXPECT_EQ(stack.back(), ev.name) << "spans must nest";
            stack.pop_back();
        }
    }
    for (const auto &entry : stacks)
        EXPECT_TRUE(entry.second.empty()) << "unclosed spans on track "
                                          << entry.first.first << "/"
                                          << entry.first.second;
}

TEST(ObsTraceTest, EngineTraceHasBalancedMonotonicSpans)
{
    colo::ColoConfig cfg = engineConfig();
    cfg.observability.traceTickPhases = true;
    std::ostringstream os;
    {
        obs::TraceWriter tracer(os);
        colo::Engine engine(cfg);
        engine.setTrace(&tracer, 0);
        engine.run();
    }
    const auto events = parseTrace(os.str());
    expectWellFormedTrace(events);

    std::size_t intervals = 0, phases = 0, instants = 0;
    for (const TraceEvent &ev : events) {
        if (ev.ph == 'B' && ev.name == "interval")
            ++intervals;
        if (ev.ph == 'B' && ev.name == "tick.tasks")
            ++phases;
        if (ev.ph == 'i')
            ++instants;
    }
    EXPECT_GT(intervals, 0U);
    EXPECT_GT(phases, 0U) << "traceTickPhases must add phase spans";
    EXPECT_GT(instants, 0U)
        << "a flash crowd with QosShed must emit decision or "
           "shed-gate events";
}

TEST(ObsTraceTest, ClusterTraceCoversEpochsAndNodeTracks)
{
    std::ostringstream os;
    cluster::ClusterResult r;
    {
        obs::TraceWriter tracer(os);
        cluster::Cluster cl(clusterConfig());
        cl.setTraceWriter(&tracer);
        r = cl.run();
    }
    // The cluster layer's metrics, with every node's folded in.
    ASSERT_TRUE(r.obsEnabled);
    EXPECT_GT(r.metrics.find("cluster.epochs")->count, 0U);
    EXPECT_GT(r.metrics.find("engine.ticks")->count, 0U);
    const auto events = parseTrace(os.str());
    expectWellFormedTrace(events);

    bool saw_epoch = false, saw_node_interval = false;
    for (const TraceEvent &ev : events) {
        if (ev.ph == 'B' && ev.name == "epoch" && ev.pid == 0)
            saw_epoch = true;
        if (ev.ph == 'B' && ev.name == "interval" && ev.pid >= 1)
            saw_node_interval = true;
    }
    EXPECT_TRUE(saw_epoch);
    EXPECT_TRUE(saw_node_interval)
        << "engine tracks must carry pid 1+node";
}

} // namespace
