/**
 * @file
 * Tests for the cluster layer:
 *
 *  - builder/config validation (zero-node clusters, service-less
 *    nodes, bad epochs, duplicate node names and the exact text that
 *    names the first repeat, bad loads);
 *  - every shared setting reaches every node config;
 *  - placement semantics: static round-robin and least-loaded LPT
 *    assignments, QoS-aware migration's fixed thresholds and
 *    cooldown on hand-built node states, and pressure-driven
 *    migration off a crowded node with every app accounted for
 *    exactly once;
 *  - tick accounting: a run that stops at app completion reports
 *    the ticks its nodes executed, not the horizon's.
 *
 * The byte-identity contracts (a single-node Cluster equals a bare
 * colo::Engine of nodeConfig(0); runs are identical at any pool
 * thread count, inside one Cluster and across a runClusters batch)
 * are checked over random configs by the equivalence harness in
 * tests/colo/builder_property_test.cc.
 */

#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "approx/profile.hh"
#include "colo/trace.hh"
#include "util/logging.hh"

namespace {

using namespace pliant;
using namespace pliant::cluster;

constexpr sim::Time kS = sim::kSecond;

/** A cluster run plus every node's recorded per-interval series. */
struct RecordedCluster
{
    ClusterResult result;
    std::vector<colo::TimelineRecorder> nodes;
};

/** Run `cfg` with a TimelineRecorder on every node. */
RecordedCluster
runRecorded(ClusterConfig cfg)
{
    Cluster cl(std::move(cfg));
    RecordedCluster out;
    out.nodes.resize(cl.nodeCount());
    for (std::size_t i = 0; i < out.nodes.size(); ++i)
        cl.setTimelineSink(i, &out.nodes[i]);
    out.result = cl.run();
    return out;
}

/**
 * The acceptance cluster: three memcached+nginx nodes, a flash crowd
 * on node 0, six apps placed by the given policy. The precise
 * runtime leaves the crowd unmitigated locally, so the QoS-aware
 * policy must migrate.
 */
ClusterConfig
acceptanceConfig(PlacementKind placement, core::RuntimeKind runtime,
                 unsigned threads)
{
    // Background loads are low enough that, even under the precise
    // baseline, only the flash-crowded node violates its QoS — the
    // signal the QoS-aware policy migrates on.
    ClusterConfigBuilder builder;
    for (int n = 0; n < 3; ++n) {
        builder.node();
        builder.service(services::ServiceKind::Memcached,
                        n == 0 ? colo::Scenario::flashCrowd(
                                     0.45, 0.97, 20 * kS, 3 * kS,
                                     40 * kS, 10 * kS)
                               : colo::Scenario::constant(0.45));
        builder.service(services::ServiceKind::Nginx,
                        colo::Scenario::constant(0.45));
    }
    return builder
        .apps({"canneal", "bayesian", "snp", "kmeans", "raytrace",
               "streamcluster"})
        .runtime(runtime)
        .placement(placement)
        .epoch(5 * kS)
        .maxDuration(120 * kS)
        .seed(71)
        .threads(threads)
        .build();
}

TEST(ClusterValidationTest, RejectsZeroNodeCluster)
{
    ClusterConfigBuilder builder;
    EXPECT_THROW(builder.apps({"canneal"}).build(), util::FatalError);
}

TEST(ClusterValidationTest, RejectsNodeWithoutServices)
{
    EXPECT_THROW(ClusterConfigBuilder()
                     .nodes(2)
                     .apps({"canneal"})
                     .build(),
                 util::FatalError);
}

TEST(ClusterValidationTest, RejectsServiceBeforeNode)
{
    EXPECT_THROW(ClusterConfigBuilder().service(
                     services::ServiceKind::Memcached,
                     colo::Scenario::constant(0.5)),
                 util::FatalError);
}

TEST(ClusterValidationTest, RejectsEpochShorterThanInterval)
{
    EXPECT_THROW(ClusterConfigBuilder()
                     .nodes(1)
                     .serviceOnAll(services::ServiceKind::Memcached,
                                   colo::Scenario::constant(0.5))
                     .apps({"canneal"})
                     .epoch(sim::kSecond / 2)
                     .build(),
                 util::FatalError);
}

TEST(ClusterValidationTest, RejectsDuplicateNodeNames)
{
    EXPECT_THROW(ClusterConfigBuilder()
                     .node("twin")
                     .service(services::ServiceKind::Memcached,
                              colo::Scenario::constant(0.5))
                     .node("twin")
                     .service(services::ServiceKind::Nginx,
                              colo::Scenario::constant(0.5))
                     .apps({"canneal"})
                     .build(),
                 util::FatalError);
}

TEST(ClusterValidationTest, RejectsUnknownAndDuplicateApps)
{
    EXPECT_THROW(ClusterConfigBuilder()
                     .nodes(1)
                     .serviceOnAll(services::ServiceKind::Memcached,
                                   colo::Scenario::constant(0.5))
                     .app("no-such-app")
                     .build(),
                 util::FatalError);
    EXPECT_THROW(ClusterConfigBuilder()
                     .nodes(1)
                     .serviceOnAll(services::ServiceKind::Memcached,
                                   colo::Scenario::constant(0.5))
                     .app("canneal")
                     .app("canneal")
                     .build(),
                 util::FatalError);
}

/** The FatalError text `build` throws ("" when it does not throw). */
template <typename Build>
std::string
fatalText(Build build)
{
    try {
        build();
    } catch (const util::FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(ClusterValidationTest, DuplicateNodeNameReportsTheFirstRepeated)
{
    // Names a, b, b, a: the lowest index whose name recurs later is
    // 0, so 'a' is reported even though the b pair is adjacent.
    ClusterConfigBuilder builder;
    for (const char *name : {"a", "b", "b", "a"})
        builder.node(name).service(services::ServiceKind::Memcached,
                                   colo::Scenario::constant(0.5));
    builder.apps({"canneal"});
    EXPECT_EQ(fatalText([&] { builder.build(); }),
              "duplicate node name 'a' in cluster config");
}

TEST(ClusterValidationTest, UnnamedNodeCollidesWithExplicitName)
{
    // The unnamed node at index 1 resolves to "node1", which an
    // explicitly named later node repeats.
    ClusterConfigBuilder builder;
    builder.node().service(services::ServiceKind::Memcached,
                           colo::Scenario::constant(0.5));
    builder.node().service(services::ServiceKind::Memcached,
                           colo::Scenario::constant(0.5));
    builder.node("node1").service(services::ServiceKind::Nginx,
                                  colo::Scenario::constant(0.5));
    builder.apps({"canneal"});
    EXPECT_EQ(fatalText([&] { builder.build(); }),
              "duplicate node name 'node1' in cluster config");
}

TEST(ClusterValidationTest, DuplicateUnnamedTenantsNameTheNode)
{
    ClusterConfigBuilder builder;
    builder.node("edge")
        .service(services::ServiceKind::Memcached,
                 colo::Scenario::constant(0.5))
        .service(services::ServiceKind::Memcached,
                 colo::Scenario::constant(0.6));
    builder.apps({"canneal"});
    EXPECT_EQ(fatalText([&] { builder.build(); }),
              "duplicate service 'memcached' on node 'edge': give "
              "same-kind tenants distinct instance names");
}

TEST(ClusterValidationTest, DuplicateAppReportsTheFirstRepeated)
{
    ClusterConfigBuilder builder;
    builder.nodes(2).serviceOnAll(services::ServiceKind::Memcached,
                                  colo::Scenario::constant(0.5));
    builder.apps({"canneal", "bayesian", "bayesian", "canneal"});
    EXPECT_EQ(fatalText([&] { builder.build(); }),
              "duplicate app 'canneal' in colocation config: each "
              "approximate application may appear once");
}

TEST(ClusterValidationTest, ConstructorRejectsBadLoads)
{
    // Raw configs skip build(), so Cluster::Cluster must catch these
    // before run() builds the first engine.
    const auto raw = [] {
        ClusterConfig cfg;
        cfg.nodes.resize(2);
        for (NodeSpec &node : cfg.nodes)
            node.services.push_back(
                {services::ServiceKind::Memcached,
                 colo::Scenario::constant(0.5), ""});
        cfg.apps = {"canneal"};
        return cfg;
    };
    EXPECT_NO_THROW(Cluster c(raw()));
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(), -0.1,
          std::numeric_limits<double>::infinity()}) {
        ClusterConfig cfg = raw();
        cfg.nodes[1].services[0].scenario =
            colo::Scenario::step(0.5, bad, 10 * kS);
        EXPECT_THROW(Cluster c(std::move(cfg)), util::FatalError)
            << "load " << bad;
    }
}

TEST(ClusterNodeConfigTest, EverySharedSettingReachesEveryNode)
{
    // One row per colo::RunConfig field a node takes unchanged from
    // its cluster. Each is set away from its default below; seed,
    // apps and initialVariants are checked after the table, since a
    // node gets a derived seed and its placed subset of the apps.
#define PLIANT_SAME_FIELD(field)                                        \
    {                                                                   \
        #field, [](const colo::RunConfig &a, const colo::RunConfig &b) { \
            return a.field == b.field;                                  \
        }                                                               \
    }
    const struct
    {
        const char *field;
        bool (*same)(const colo::RunConfig &, const colo::RunConfig &);
    } rows[] = {
        PLIANT_SAME_FIELD(runtime),
        PLIANT_SAME_FIELD(arbiter),
        PLIANT_SAME_FIELD(learnedVector),
        PLIANT_SAME_FIELD(decisionInterval),
        PLIANT_SAME_FIELD(tick),
        PLIANT_SAME_FIELD(maxDuration),
        PLIANT_SAME_FIELD(enableCachePartitioning),
        PLIANT_SAME_FIELD(admission.enabled),
        PLIANT_SAME_FIELD(admission.policy),
        PLIANT_SAME_FIELD(admission.batching),
        PLIANT_SAME_FIELD(admission.queueBoundQos),
        PLIANT_SAME_FIELD(admission.batchSize),
        PLIANT_SAME_FIELD(admission.batchTimeoutUs),
        PLIANT_SAME_FIELD(observability.metrics),
        PLIANT_SAME_FIELD(observability.traceTickPhases),
    };
#undef PLIANT_SAME_FIELD

    ClusterConfig cfg;
    cfg.nodes.resize(3);
    for (NodeSpec &node : cfg.nodes)
        node.services.push_back({services::ServiceKind::Memcached,
                                 colo::Scenario::constant(0.5)});
    cfg.apps = {"canneal", "bayesian", "snp", "kmeans"};
    for (const std::string &app : cfg.apps)
        cfg.initialVariants.push_back(
            approx::findProfile(app).mostApproxIndex());
    cfg.runtime = core::RuntimeKind::Learned;
    cfg.arbiter = core::ArbiterKind::ImpactAware;
    cfg.learnedVector = false;
    cfg.decisionInterval = 2 * kS;
    cfg.tick = 20 * sim::kMillisecond;
    cfg.maxDuration = 90 * kS;
    cfg.seed = 99;
    cfg.enableCachePartitioning = true;
    cfg.admission.enabled = true;
    cfg.admission.policy = admission::AdmissionKind::QosShed;
    cfg.admission.batching = admission::BatchingKind::Fixed;
    cfg.admission.queueBoundQos = 3.0;
    cfg.admission.batchSize = 8;
    cfg.admission.batchTimeoutUs = 250.0;
    cfg.observability.metrics = true;
    cfg.observability.traceTickPhases = true;

    const colo::RunConfig defaults;
    for (const auto &row : rows)
        ASSERT_FALSE(row.same(cfg, defaults))
            << row.field << " is left at its default";

    const Cluster cl(cfg);
    ASSERT_EQ(cl.nodeCount(), 3u);
    const std::vector<std::size_t> &placed = cl.initialAssignment();
    std::size_t apps_seen = 0;
    for (std::size_t i = 0; i < cl.nodeCount(); ++i) {
        const colo::ColoConfig &node = cl.nodeConfig(i);
        for (const auto &row : rows)
            EXPECT_TRUE(row.same(node, cfg))
                << row.field << " on node " << i;
        EXPECT_EQ(node.seed, Cluster::nodeSeed(cfg.seed, i));

        std::vector<std::string> apps;
        std::vector<int> variants;
        for (std::size_t a = 0; a < cfg.apps.size(); ++a) {
            if (placed[a] != i)
                continue;
            apps.push_back(cfg.apps[a]);
            variants.push_back(cfg.initialVariants[a]);
        }
        EXPECT_EQ(node.apps, apps) << "node " << i;
        EXPECT_EQ(node.initialVariants, variants) << "node " << i;
        apps_seen += node.apps.size();
    }
    EXPECT_EQ(apps_seen, cfg.apps.size());
}

TEST(ClusterPlacementTest, StaticAssignsRoundRobin)
{
    Cluster cl(acceptanceConfig(PlacementKind::Static,
                                core::RuntimeKind::Pliant, 1));
    const auto &assignment = cl.initialAssignment();
    ASSERT_EQ(assignment.size(), 6u);
    for (std::size_t a = 0; a < assignment.size(); ++a)
        EXPECT_EQ(assignment[a], a % 3);
}

/** A hand-built node state: one unfinished app when `app` is set. */
NodeStatus
nodeStatus(std::size_t idx, double worst_ratio, const char *app)
{
    NodeStatus st;
    st.node = idx;
    st.name = "node" + std::to_string(idx);
    st.worstRatio = worst_ratio;
    if (app) {
        AppStatus a;
        a.name = app;
        a.remainingWorkSeconds = 30.0;
        st.apps.push_back(a);
    }
    return st;
}

TEST(QosAwarePlacementTest, SourceMustBeAbovePressureOne)
{
    const NodeStatus calm = nodeStatus(1, 0.5, nullptr);

    QosAwarePlacement at_qos;
    EXPECT_TRUE(
        at_qos.rebalance({nodeStatus(0, 1.0, "canneal"), calm}, kS)
            .empty());

    QosAwarePlacement over_qos;
    const auto moves = over_qos.rebalance(
        {nodeStatus(0, std::nextafter(1.0, 2.0), "canneal"), calm}, kS);
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].app, "canneal");
    EXPECT_EQ(moves[0].from, 0u);
    EXPECT_EQ(moves[0].to, 1u);
}

TEST(QosAwarePlacementTest, DestinationMustBeBelowHeadroomRatio)
{
    const NodeStatus hot = nodeStatus(0, 1.5, "canneal");

    QosAwarePlacement no_headroom;
    EXPECT_TRUE(
        no_headroom.rebalance({hot, nodeStatus(1, 0.90, nullptr)}, kS)
            .empty());

    QosAwarePlacement headroom;
    const auto moves = headroom.rebalance(
        {hot, nodeStatus(1, std::nextafter(0.90, 0.0), nullptr)}, kS);
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].to, 1u);
}

TEST(QosAwarePlacementTest, MovedAppStaysPinnedForThreeEpochs)
{
    // The same pressured picture every epoch: the app moves at epoch
    // 0, is pinned at epochs 1 and 2, and may move again at epoch 3.
    QosAwarePlacement policy;
    const std::vector<NodeStatus> nodes = {
        nodeStatus(0, 1.5, "canneal"), nodeStatus(1, 0.5, nullptr)};
    EXPECT_EQ(policy.rebalance(nodes, 0).size(), 1u);
    EXPECT_TRUE(policy.rebalance(nodes, 5 * kS).empty());
    EXPECT_TRUE(policy.rebalance(nodes, 10 * kS).empty());
    const auto again = policy.rebalance(nodes, 15 * kS);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].app, "canneal");
}

TEST(ClusterPlacementTest, LeastLoadedBalancesNominalWork)
{
    Cluster cl(acceptanceConfig(PlacementKind::LeastLoaded,
                                core::RuntimeKind::Pliant, 1));
    const auto &assignment = cl.initialAssignment();
    // Every node gets at least one of the six apps, and the nominal
    // work across nodes is closer than one max-size app.
    std::vector<double> work(3, 0.0);
    std::vector<int> count(3, 0);
    const std::vector<std::string> apps = {"canneal", "bayesian",
                                           "snp", "kmeans",
                                           "raytrace",
                                           "streamcluster"};
    double heaviest = 0.0;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const double w =
            approx::findProfile(apps[a]).nominalExecSeconds;
        work[assignment[a]] += w;
        ++count[assignment[a]];
        heaviest = std::max(heaviest, w);
    }
    for (int n = 0; n < 3; ++n)
        EXPECT_GT(count[n], 0);
    const auto [lo, hi] = std::minmax_element(work.begin(), work.end());
    EXPECT_LE(*hi - *lo, heaviest + 1e-9);
}

TEST(ClusterMigrationTest, CrowdedNodeShedsAnAppAndAllAppsSurvive)
{
    const ClusterResult r =
        Cluster(acceptanceConfig(PlacementKind::QosAware,
                                 core::RuntimeKind::Precise, 1))
            .run();

    ASSERT_FALSE(r.migrations.empty());
    // Migrations flee the crowded node while it is in violation.
    EXPECT_EQ(r.migrations.front().from, 0u);
    EXPECT_NE(r.migrations.front().to, 0u);
    EXPECT_GE(r.migrations.front().t, 20 * kS);

    // Every app appears on exactly one node's final report.
    std::map<std::string, int> seen;
    for (const auto &node : r.nodes)
        for (const auto &app : node.result.apps)
            ++seen[app.name];
    EXPECT_EQ(seen.size(), 6u);
    for (const auto &[name, times] : seen)
        EXPECT_EQ(times, 1) << name;
    EXPECT_EQ(r.appsTotal, 6);
}

TEST(ClusterMigrationTest, MigratedAppKeepsItsQualityAccounting)
{
    // Under the pliant runtime the same cluster also migrates or
    // not deterministically; either way the rollups must count each
    // app once and inaccuracy must stay within the catalog's bounds.
    const ClusterResult r =
        Cluster(acceptanceConfig(PlacementKind::QosAware,
                                 core::RuntimeKind::Pliant, 2))
            .run();
    EXPECT_EQ(r.appsTotal, 6);
    EXPECT_GE(r.meanInaccuracy, 0.0);
    EXPECT_LE(r.meanInaccuracy, 1.0);
    EXPECT_GE(r.meanRelativeExecTime, 0.0);
}

TEST(ClusterIdleNodeTest, AppLessNodesKeepServingAndReporting)
{
    // One app on three nodes: two nodes host no app, but their
    // services keep running (and reporting QoS) for the whole
    // cluster experiment.
    const RecordedCluster rec =
        runRecorded(ClusterConfigBuilder()
                        .nodes(3)
                        .serviceOnAll(services::ServiceKind::Memcached,
                                      colo::Scenario::constant(0.6))
                        .apps({"bayesian"})
                        .placement(PlacementKind::LeastLoaded)
                        .maxDuration(60 * kS)
                        .seed(5)
                        .build());
    const ClusterResult &r = rec.result;
    ASSERT_EQ(r.nodes.size(), 3u);
    EXPECT_EQ(r.appsTotal, 1);
    int hosting = 0;
    for (std::size_t n = 0; n < r.nodes.size(); ++n) {
        const NodeResult &node = r.nodes[n];
        if (!node.result.apps.empty())
            ++hosting;
        // Every node — app-less ones included — simulated its
        // service and produced interval reports.
        EXPECT_FALSE(rec.nodes[n].points.empty()) << node.name;
        EXPECT_GT(node.result.services[0].meanIntervalP99Us, 0.0)
            << node.name;
    }
    EXPECT_EQ(hosting, 1);
}

TEST(ClusterIdleNodeTest, AppLessNodeIsAValidMigrationTarget)
{
    // Two apps on three nodes: the third node starts empty. When the
    // crowd hits node 0 it has the most headroom, so the QoS-aware
    // policy migrates onto it.
    ClusterConfigBuilder builder;
    for (int n = 0; n < 3; ++n) {
        builder.node();
        builder.service(services::ServiceKind::Memcached,
                        n == 0 ? colo::Scenario::flashCrowd(
                                     0.45, 0.97, 20 * kS, 3 * kS,
                                     40 * kS, 10 * kS)
                               : colo::Scenario::constant(0.45));
    }
    const ClusterResult r =
        Cluster(builder.apps({"bayesian", "snp"})
                    .runtime(core::RuntimeKind::Precise)
                    .placement(PlacementKind::QosAware)
                    .epoch(5 * kS)
                    .maxDuration(120 * kS)
                    .seed(71)
                    .build())
            .run();

    ASSERT_FALSE(r.migrations.empty());
    EXPECT_EQ(r.migrations.front().from, 0u);
    // Every app still accounted for exactly once.
    std::map<std::string, int> seen;
    for (const auto &node : r.nodes)
        for (const auto &app : node.result.apps)
            ++seen[app.name];
    EXPECT_EQ(seen.size(), 2u);
    for (const auto &[name, times] : seen)
        EXPECT_EQ(times, 1) << name;
}

TEST(ClusterTickCountTest, RunEndingAtAppCompletionReportsFewerTicks)
{
    // One app on two nodes, static placement: node 0 hosts it. The
    // run stops at the first epoch barrier after the app finishes,
    // long before the 600 s horizon, so the nodes execute fewer
    // ticks than nodes x horizon / tick.
    const auto config = [](sim::Time horizon) {
        return ClusterConfigBuilder()
            .nodes(2)
            .serviceOnAll(services::ServiceKind::Memcached,
                          colo::Scenario::constant(0.6))
            .apps({"bayesian"})
            .placement(PlacementKind::Static)
            .tick(10 * sim::kMillisecond)
            .epoch(5 * kS)
            .maxDuration(horizon)
            .seed(5)
            .build();
    };
    const ClusterResult early = Cluster(config(600 * kS)).run();
    ASSERT_EQ(early.appsFinished, early.appsTotal);
    ASSERT_EQ(early.nodes.size(), 2u);
    const std::uint64_t horizon_ticks = 600 * 100;
    EXPECT_LT(early.nodes[0].ticks + early.nodes[1].ticks,
              2 * horizon_ticks);
    // The app's node stops at its last tick; the app-less node
    // serves on to the barrier, a whole number of 5 s epochs.
    EXPECT_GT(early.nodes[0].ticks, 0u);
    EXPECT_LE(early.nodes[0].ticks, early.nodes[1].ticks);
    EXPECT_EQ(early.nodes[1].ticks % 500, 0u);
    EXPECT_LT(early.nodes[1].ticks, horizon_ticks);

    // A horizon the app outlasts: every node runs all of it.
    const ClusterResult full = Cluster(config(10 * kS)).run();
    EXPECT_EQ(full.appsFinished, 0);
    for (const NodeResult &node : full.nodes)
        EXPECT_EQ(node.ticks, 1000u) << node.name;
}

TEST(ClusterValidationTest, RejectsNonPositiveTiming)
{
    EXPECT_THROW(ClusterConfigBuilder()
                     .nodes(1)
                     .serviceOnAll(services::ServiceKind::Memcached,
                                   colo::Scenario::constant(0.5))
                     .apps({"canneal"})
                     .maxDuration(0)
                     .build(),
                 util::FatalError);
    EXPECT_THROW(ClusterConfigBuilder()
                     .nodes(1)
                     .serviceOnAll(services::ServiceKind::Memcached,
                                   colo::Scenario::constant(0.5))
                     .apps({"canneal"})
                     .tick(0)
                     .build(),
                 util::FatalError);
}

TEST(ClusterMigrationTest, TimelineCsvAttributesSlotsThroughRoster)
{
    const ClusterConfig cfg = acceptanceConfig(
        PlacementKind::QosAware, core::RuntimeKind::Precise, 1);
    const RecordedCluster rec = runRecorded(cfg);
    ASSERT_FALSE(rec.result.migrations.empty());
    const auto &mig = rec.result.migrations.front();
    const colo::ColoResult &dst = rec.result.nodes[mig.to].result;

    // The destination's sink receives the arrival as a roster event
    // after the initial roster...
    const auto &rosters = rec.nodes[mig.to].rosters;
    ASSERT_GE(rosters.size(), 2u);
    EXPECT_EQ(rosters.front().t, 0);
    const auto arrival = std::find_if(
        rosters.begin(), rosters.end(), [&](const colo::RosterEvent &ev) {
            return std::find(ev.apps.begin(), ev.apps.end(), mig.app) !=
                   ev.apps.end();
        });
    ASSERT_NE(arrival, rosters.end());
    EXPECT_EQ(arrival->t, mig.t);

    // ... and a live CSV sink on that node, with every cluster app as
    // a column, keys the migrant's column by name: "-" before it
    // arrived, its variant once it runs there.
    std::ostringstream os;
    std::vector<std::string> service_names;
    for (const auto &svc : dst.services)
        service_names.push_back(svc.name);
    colo::CsvTimelineSink sink(os, cfg.apps, service_names,
                               dst.services[0].qosUs,
                               dst.admissionEnabled, dst.budgetEnabled);
    Cluster cl(cfg);
    cl.setTimelineSink(mig.to, &sink);
    cl.run();

    const auto fields = [](const std::string &line) {
        std::vector<std::string> out;
        std::istringstream is(line);
        std::string field;
        while (std::getline(is, field, ','))
            out.push_back(field);
        return out;
    };
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    const std::vector<std::string> header = fields(line);
    const auto col = std::find(header.begin(), header.end(),
                               mig.app + "_variant");
    ASSERT_NE(col, header.end());
    const std::size_t c = static_cast<std::size_t>(col - header.begin());
    std::vector<std::vector<std::string>> rows;
    while (std::getline(is, line))
        rows.push_back(fields(line));
    const auto &points = rec.nodes[mig.to].points;
    ASSERT_EQ(rows.size(), points.size());
    std::size_t first_after = 0;
    while (first_after < points.size() && points[first_after].t <= mig.t)
        ++first_after;
    ASSERT_GT(first_after, 0u);
    ASSERT_LT(first_after, rows.size());
    EXPECT_EQ(rows.front()[c], "-");
    EXPECT_EQ(rows[first_after - 1][c], "-");
    EXPECT_NE(rows[first_after][c], "-");
}

TEST(ClusterValidationTest, TimelineSinkNeedsAnExistingNode)
{
    Cluster cl(ClusterConfigBuilder()
                   .nodes(2)
                   .serviceOnAll(services::ServiceKind::Memcached,
                                 colo::Scenario::constant(0.5))
                   .apps({"canneal"})
                   .build());
    colo::TimelineRecorder recorder;
    EXPECT_NO_THROW(cl.setTimelineSink(1, &recorder));
    EXPECT_THROW(cl.setTimelineSink(2, &recorder), util::FatalError);
}

TEST(ClusterSeedTest, NodeSeedsArePinned)
{
    // Every node seed feeds every cluster golden: these values must
    // never move.
    EXPECT_EQ(Cluster::nodeSeed(71, 0), 15968808164157232190ULL);
    EXPECT_EQ(Cluster::nodeSeed(71, 2), 17623219195243849542ULL);
    EXPECT_NE(Cluster::nodeSeed(71, 0), Cluster::nodeSeed(71, 1));
    EXPECT_NE(Cluster::nodeSeed(71, 1), Cluster::nodeSeed(72, 1));
}

} // namespace
