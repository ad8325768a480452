/**
 * @file
 * Golden regression pin for the fig_cluster experiment: the 3-node
 * QoS-aware placement run (memcached flash crowd on node 0, six
 * apps, fixed seed 71) under the precise baseline and the Pliant
 * runtime must reproduce the exact QoS/quality rollups captured when
 * the cluster co-optimization layer landed. Placement or engine
 * refactors that silently move these numbers fail here first — the
 * per-figure bench output is downstream of exactly these values.
 */

#include "cluster/cluster.hh"

#include <cmath>
#include <utility>

#include <gtest/gtest.h>

namespace {

using namespace pliant;
using namespace pliant::cluster;

constexpr sim::Time kS = sim::kSecond;

/** Relative tolerance: identical arithmetic, last-ulp libm slack. */
constexpr double kRelTol = 1e-9;

#define EXPECT_PINNED(actual, golden) \
    EXPECT_NEAR(actual, golden, std::abs(golden) * kRelTol)

/** Exactly bench/fig_cluster's quick-mode QoS-aware config. */
ClusterConfig
figClusterConfig(core::RuntimeKind runtime)
{
    ClusterConfig cfg;
    for (int n = 0; n < 3; ++n) {
        colo::Scenario mc = colo::Scenario::constant(0.60);
        if (n == 0)
            mc = colo::Scenario::flashCrowd(0.60, 0.95, 30 * kS, 3 * kS,
                                            25 * kS, 10 * kS);
        NodeSpec node;
        node.services.push_back({services::ServiceKind::Memcached, mc});
        node.services.push_back(
            {services::ServiceKind::Nginx, colo::Scenario::constant(0.65)});
        cfg.nodes.push_back(std::move(node));
    }
    cfg.apps = {"canneal", "bayesian", "snp", "kmeans", "raytrace",
                "streamcluster"};
    cfg.runtime = runtime;
    cfg.placement = PlacementKind::QosAware;
    cfg.epoch = 5 * kS;
    cfg.seed = 71;
    cfg.maxDuration = 90 * kS;
    return cfg;
}

TEST(FigClusterGoldenTest, PreciseQosAwareRollupsArePinned)
{
    const ClusterResult r =
        Cluster(figClusterConfig(core::RuntimeKind::Precise)).run();

    EXPECT_PINNED(r.worstServiceRatio, 5.6025344684540883);
    EXPECT_PINNED(r.meanQosMetFraction, 0.53838383838383841);
    EXPECT_DOUBLE_EQ(r.meanInaccuracy, 0.0); // precise never degrades
    EXPECT_PINNED(r.meanRelativeExecTime, 1.0001719696969695);
    EXPECT_EQ(r.appsFinished, 6);
    EXPECT_EQ(r.appsTotal, 6);
    EXPECT_EQ(r.totalMaxCoresReclaimed, 0);

    // The crowd forces exactly these migrations at these epochs.
    ASSERT_EQ(r.migrations.size(), 3u);
    EXPECT_EQ(r.migrations[0].app, "snp");
    EXPECT_EQ(r.migrations[0].t, 30 * kS);
    EXPECT_EQ(r.migrations[1].app, "bayesian");
    EXPECT_EQ(r.migrations[1].from, 0u);
    EXPECT_EQ(r.migrations[1].to, 2u);
    EXPECT_EQ(r.migrations[1].t, 45 * kS);
    EXPECT_EQ(r.migrations[2].app, "snp");
    EXPECT_EQ(r.migrations[2].t, 50 * kS);

    ASSERT_EQ(r.nodes.size(), 3u);
    EXPECT_PINNED(r.nodes[0].result.services[0].meanIntervalP99Us,
                  1120.5068936908176);
    EXPECT_PINNED(r.nodes[0].result.services[0].qosMetFraction,
                  0.48333333333333334);
    EXPECT_PINNED(r.nodes[1].result.services[0].meanIntervalP99Us,
                  149.05366383347746);
    EXPECT_PINNED(r.nodes[2].result.services[0].meanIntervalP99Us,
                  163.58146629403259);
}

TEST(FigClusterGoldenTest, PliantQosAwareRollupsArePinned)
{
    const ClusterResult r =
        Cluster(figClusterConfig(core::RuntimeKind::Pliant)).run();

    EXPECT_PINNED(r.worstServiceRatio, 0.82466514397885715);
    EXPECT_PINNED(r.meanQosMetFraction, 0.91681547619047621);
    EXPECT_PINNED(r.meanInaccuracy, 0.02285794089285835);
    EXPECT_PINNED(r.meanRelativeExecTime, 0.577855278980279);
    EXPECT_EQ(r.appsFinished, 6);
    EXPECT_EQ(r.appsTotal, 6);
    EXPECT_EQ(r.totalMaxCoresReclaimed, 2);

    ASSERT_EQ(r.migrations.size(), 1u);
    EXPECT_EQ(r.migrations[0].app, "snp");
    EXPECT_EQ(r.migrations[0].from, 1u);
    EXPECT_EQ(r.migrations[0].to, 0u);
    EXPECT_EQ(r.migrations[0].t, 20 * kS);

    ASSERT_EQ(r.nodes.size(), 3u);
    EXPECT_PINNED(r.nodes[0].result.services[0].meanIntervalP99Us,
                  142.04356951675243);
    EXPECT_PINNED(r.nodes[0].result.services[0].qosMetFraction,
                  0.96875);
    EXPECT_PINNED(r.nodes[1].result.services[0].meanIntervalP99Us,
                  127.74229543247353);
    EXPECT_PINNED(r.nodes[2].result.services[0].meanIntervalP99Us,
                  132.08451787594984);
}

} // namespace
