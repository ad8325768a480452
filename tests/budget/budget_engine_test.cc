/**
 * @file
 * Cluster-level budget subsystem tests, pinning two load-bearing
 * claims of the budget layer:
 *
 *  1. Budgets-disabled is byte-identical to the pre-budget cluster:
 *     the 3-node QoS-aware + QosShed-admission experiment (with a
 *     migration) reproduces the exact rollups captured at the commit
 *     before src/budget/ landed.
 *  2. The budget frontier: the Proportional and Learned splits
 *     strictly dominate the independent-nodes baseline at the pinned
 *     bench/fig_budget point — better worst-node QoS met% at an
 *     equal or lower global quality loss.
 *
 * That every split policy is deterministic at any pool thread count
 * is checked over random budgeted clusters by the equivalence
 * harness in tests/colo/builder_property_test.cc, with the
 * budget-cap invariant on every interval close.
 */

#include "approx/profile.hh"
#include "budget/budget.hh"
#include "cluster/cluster.hh"
#include "colo/trace.hh"

#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
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

/**
 * The fig_cluster quick-mode QoS-aware config plus the QosShed
 * admission front-end — exactly the golden_test cluster with
 * admission on, the richest pre-budget configuration (placement
 * migrations AND admission shedding both active). Node 0's memcached
 * takes a flash crowd peaking at `crowd_peak`.
 */
ClusterConfig
admissionClusterConfig(double crowd_peak = 0.95)
{
    ClusterConfig cfg;
    for (int n = 0; n < 3; ++n) {
        colo::Scenario mc = colo::Scenario::constant(0.60);
        if (n == 0)
            mc = colo::Scenario::flashCrowd(0.60, crowd_peak, 30 * kS, 3 * kS,
                                            25 * kS, 10 * kS);
        NodeSpec node;
        node.services.push_back({services::ServiceKind::Memcached, mc});
        node.services.push_back(
            {services::ServiceKind::Nginx, colo::Scenario::constant(0.65)});
        cfg.nodes.push_back(std::move(node));
    }
    cfg.apps = {"canneal", "bayesian", "snp", "kmeans", "raytrace",
                "streamcluster"};
    cfg.runtime = core::RuntimeKind::Pliant;
    cfg.placement = PlacementKind::QosAware;
    cfg.admission.enabled = true;
    cfg.admission.policy = admission::AdmissionKind::QosShed;
    cfg.epoch = 5 * kS;
    cfg.seed = 71;
    cfg.maxDuration = 90 * kS;
    return cfg;
}

/** The bench/fig_budget quick-mode config at the pinned point. */
ClusterConfig
figBudgetConfig(
    const std::optional<budget::BudgetPolicy> &policy,
    double quality_budget, double shed_budget)
{
    ClusterConfig cfg = admissionClusterConfig(1.30);
    if (policy) {
        cfg.budget.enabled = true;
        cfg.budget.policy = *policy;
        cfg.budget.qualityBudget = quality_budget;
        cfg.budget.shedBudget = shed_budget;
    }
    return cfg;
}

/** Min over nodes of the node's mean service QoS met fraction. */
double
worstNodeMet(const ClusterResult &r)
{
    double worst = 1.0;
    for (const auto &node : r.nodes) {
        double met = 0.0;
        for (const auto &svc : node.result.services)
            met += svc.qosMetFraction;
        met /= static_cast<double>(node.result.services.size());
        worst = std::min(worst, met);
    }
    return worst;
}

TEST(BudgetGoldenTest, DisabledBudgetsPinToPreBudgetCluster)
{
    // Captured at the commit immediately before src/budget/ landed:
    // any drift here means the disabled path is no longer inert.
    const ClusterResult r = Cluster(admissionClusterConfig()).run();

    EXPECT_FALSE(r.budgetEnabled);
    EXPECT_PINNED(r.worstServiceRatio, 0.94315106906576962);
    EXPECT_PINNED(r.meanQosMetFraction, 0.90078828828828839);
    EXPECT_PINNED(r.meanInaccuracy, 0.022703064866738582);
    EXPECT_PINNED(r.meanRelativeExecTime, 0.63834330206830214);
    EXPECT_EQ(r.appsFinished, 6);
    EXPECT_EQ(r.appsTotal, 6);
    EXPECT_EQ(r.totalMaxCoresReclaimed, 4);

    ASSERT_EQ(r.migrations.size(), 1u);
    EXPECT_EQ(r.migrations[0].app, "streamcluster");
    EXPECT_EQ(r.migrations[0].from, 2u);
    EXPECT_EQ(r.migrations[0].to, 1u);
    EXPECT_EQ(r.migrations[0].t, 10 * kS);

    ASSERT_EQ(r.nodes.size(), 3u);
    const auto &n0 = r.nodes[0].result;
    EXPECT_PINNED(n0.services[0].meanIntervalP99Us,
                  158.56512335677382);
    EXPECT_PINNED(n0.services[0].qosMetFraction,
                  0.90000000000000002);
    EXPECT_PINNED(n0.services[0].shedFraction,
                  0.054349772826573425);
    EXPECT_PINNED(n0.services[0].meanQueueDelayUs,
                  26.129114066660023);
    EXPECT_PINNED(n0.services[1].meanIntervalP99Us,
                  7782.8834517746718);
    EXPECT_PINNED(n0.services[1].shedFraction,
                  0.0046278587127722365);
    const auto &n1 = r.nodes[1].result;
    EXPECT_PINNED(n1.services[0].meanIntervalP99Us,
                  138.23517933089479);
    EXPECT_PINNED(n1.services[0].qosMetFraction,
                  0.91891891891891897);
    EXPECT_PINNED(n1.services[1].meanIntervalP99Us,
                  9431.5106906576966);
    EXPECT_PINNED(n1.services[1].qosMetFraction,
                  0.81081081081081086);
    const auto &n2 = r.nodes[2].result;
    EXPECT_PINNED(n2.services[0].meanIntervalP99Us,
                  132.10572927141823);
    EXPECT_PINNED(n2.services[0].qosMetFraction,
                  0.92500000000000004);
    EXPECT_PINNED(n2.services[1].meanIntervalP99Us,
                  7493.3410915270069);
    EXPECT_PINNED(n2.services[1].qosMetFraction,
                  0.94999999999999996);
}

TEST(BudgetFrontierTest, AdaptiveSplitsDominateIndependentNodes)
{
    // The pinned bench/fig_budget quick-mode point: quality budget
    // 0.12, shed budget 1.5. Strict domination = better worst-node
    // QoS met% at equal-or-lower global quality loss.
    const ClusterResult base =
        Cluster(figBudgetConfig(std::nullopt, 0.0, 0.0)).run();
    const ClusterResult prop =
        Cluster(figBudgetConfig(budget::BudgetPolicy::Proportional,
                                0.12, 1.5))
            .run();
    const ClusterResult learned =
        Cluster(figBudgetConfig(budget::BudgetPolicy::Learned, 0.12,
                                1.5))
            .run();

    EXPECT_FALSE(base.budgetEnabled);
    EXPECT_TRUE(prop.budgetEnabled);
    EXPECT_EQ(prop.budgetPolicy, "proportional");
    EXPECT_TRUE(learned.budgetEnabled);
    EXPECT_EQ(learned.budgetPolicy, "learned");
    EXPECT_GT(prop.budgetQualityUsed, 0.0);
    EXPECT_GT(learned.budgetShedUsed, 0.0);

    EXPECT_GT(worstNodeMet(prop), worstNodeMet(base));
    EXPECT_LE(prop.meanInaccuracy, base.meanInaccuracy);
    EXPECT_GT(worstNodeMet(learned), worstNodeMet(base));
    EXPECT_LE(learned.meanInaccuracy, base.meanInaccuracy);
}

TEST(BudgetCsvTest, BudgetColumnsAppearOnlyWhenEnabled)
{
    const ClusterResult off =
        Cluster(figBudgetConfig(std::nullopt, 0.0, 0.0)).run();

    // The budgeted cluster streams node 0's timeline through a live
    // sink with the budget columns on.
    const ClusterConfig on_cfg = figBudgetConfig(
        budget::BudgetPolicy::Proportional, 0.12, 1.5);
    std::ostringstream on_timeline;
    colo::CsvTimelineSink sink(
        on_timeline, on_cfg.apps, {"memcached", "nginx"},
        services::defaultConfig(services::ServiceKind::Memcached).qosUs,
        /*admission_enabled=*/true, /*budget_enabled=*/true);
    Cluster on_cluster(on_cfg);
    on_cluster.setTimelineSink(0, &sink);
    const ClusterResult on = on_cluster.run();

    std::ostringstream off_summary, on_summary;
    colo::writeSummaryCsv(off_summary, off.nodes[0].result);
    colo::writeSummaryCsv(on_summary, on.nodes[0].result);

    EXPECT_EQ(off_summary.str().find("budget_quality_used"),
              std::string::npos);
    EXPECT_NE(on_summary.str().find("budget_quality_used"),
              std::string::npos);
    EXPECT_NE(on_summary.str().find("budget_shed_used"),
              std::string::npos);
    EXPECT_NE(on_summary.str().find("node_quality_slice"),
              std::string::npos);

    // The header ends in the four budget columns, and the initial
    // slices are installed before the first tick, so even the first
    // row carries real caps (an uncapped lever prints -1).
    std::istringstream is(on_timeline.str());
    std::string header, first_row;
    ASSERT_TRUE(std::getline(is, header));
    ASSERT_TRUE(std::getline(is, first_row));
    const std::string budget_cols =
        ",budget_quality_used,budget_shed_used,node_quality_slice,"
        "node_shed_slice";
    ASSERT_GE(header.size(), budget_cols.size());
    EXPECT_EQ(header.substr(header.size() - budget_cols.size()),
              budget_cols);
    const std::size_t slices = first_row.find_last_of(
        ',', first_row.find_last_of(',') - 1);
    double quality_slice = 0.0, shed_slice = 0.0;
    ASSERT_EQ(std::sscanf(first_row.c_str() + slices, ",%lf,%lf",
                          &quality_slice, &shed_slice),
              2)
        << first_row;
    EXPECT_GT(quality_slice, 0.0) << first_row;
    EXPECT_GT(shed_slice, 0.0) << first_row;
}

TEST(BudgetMigrationTest, SlicesTrackThePostMoveRosterAtFirstTick)
{
    // Regression for the stale-snapshot bug: budget slices used to be
    // allocated from the status snapshot gathered BEFORE the epoch's
    // migrations, so after a mid-epoch move both nodes ran on caps
    // derived for rosters they no longer had until the next barrier.
    //
    // Setup chosen so the correct caps are computable in closed form:
    // the precise runtime never switches variants, each app is pinned
    // at its most approximate variant (so per-task headroom is zero
    // and a node's quality demand is exactly the sum of its apps'
    // pinned inaccuracies), and the quality budget is oversubscribed,
    // making the proportional split cap_i = Q * demand_i / sum.
    const double inacc_bayesian = [] {
        const approx::AppProfile &p = approx::findProfile("bayesian");
        return p.variant(p.mostApproxIndex()).inaccuracy;
    }();
    const double inacc_snp = [] {
        const approx::AppProfile &p = approx::findProfile("snp");
        return p.variant(p.mostApproxIndex()).inaccuracy;
    }();
    ASSERT_GT(inacc_bayesian, 0.0);
    ASSERT_GT(inacc_snp, 0.0);
    const double quality_budget = 0.02;
    ASSERT_LT(quality_budget, inacc_bayesian + inacc_snp);

    // The crowd hits node 0 early (8 s) so the move lands at the 10
    // or 15 s barrier while both long apps (50+ nominal seconds) are
    // provably still running at the 20 s horizon.
    ClusterConfig cfg;
    for (int n = 0; n < 3; ++n) {
        colo::Scenario mc = colo::Scenario::constant(0.45);
        if (n == 0)
            mc = colo::Scenario::flashCrowd(0.45, 0.97, 8 * kS, 2 * kS,
                                            30 * kS, 5 * kS);
        NodeSpec node;
        node.services.push_back({services::ServiceKind::Memcached, mc});
        cfg.nodes.push_back(std::move(node));
    }
    const int pin_bayesian =
        approx::findProfile("bayesian").mostApproxIndex();
    const int pin_snp = approx::findProfile("snp").mostApproxIndex();
    cfg.apps = {"bayesian", "snp"};
    cfg.initialVariants = {pin_bayesian, pin_snp};
    cfg.runtime = core::RuntimeKind::Precise;
    cfg.placement = PlacementKind::QosAware;
    cfg.budget.enabled = true;
    cfg.budget.policy = budget::BudgetPolicy::Proportional;
    cfg.budget.qualityBudget = quality_budget;
    cfg.budget.shedBudget = 1.5;
    cfg.epoch = 5 * kS;
    cfg.maxDuration = 20 * kS;
    cfg.seed = 71;
    Cluster cl(std::move(cfg));
    const std::vector<std::size_t> initial = cl.initialAssignment();
    std::vector<colo::TimelineRecorder> series(cl.nodeCount());
    for (std::size_t n = 0; n < series.size(); ++n)
        cl.setTimelineSink(n, &series[n]);
    const ClusterResult r = cl.run();
    ASSERT_FALSE(r.migrations.empty());
    const MigrationEvent &mig = r.migrations.front();

    // The closed-form demand model needs every app still running at
    // the move (finished tasks leave quality-in-use); the short
    // horizon guarantees it, asserted so the test cannot silently
    // rot into vacuity.
    for (const auto &node : r.nodes)
        for (const auto &app : node.result.apps)
            ASSERT_FALSE(app.finished) << app.name;

    const auto inacc_of = [&](const std::string &name) {
        return name == "bayesian" ? inacc_bayesian : inacc_snp;
    };
    const std::vector<std::string> app_names = {"bayesian", "snp"};
    // Node demands before the first migration and after it (apply
    // every move recorded at the same barrier time).
    std::vector<double> pre(r.nodes.size(), 0.0);
    for (std::size_t a = 0; a < app_names.size(); ++a)
        pre[initial[a]] += inacc_of(app_names[a]);
    std::vector<double> post = pre;
    for (const auto &m : r.migrations) {
        if (m.t != mig.t)
            break;
        post[m.from] -= inacc_of(m.app);
        post[m.to] += inacc_of(m.app);
    }
    const double sum = inacc_bayesian + inacc_snp;

    // First interval recorded after the move on each node must carry
    // caps derived from the POST-move demands.
    for (std::size_t n = 0; n < r.nodes.size(); ++n) {
        const auto &timeline = series[n].points;
        ASSERT_FALSE(timeline.empty());
        const colo::TimePoint *first_after = nullptr;
        const colo::TimePoint *last_before = nullptr;
        for (const auto &tp : timeline) {
            if (tp.t > mig.t) {
                first_after = &tp;
                break;
            }
            last_before = &tp;
        }
        ASSERT_NE(first_after, nullptr) << "node " << n;
        ASSERT_NE(last_before, nullptr) << "node " << n;
        EXPECT_NEAR(first_after->budgetQualityCap,
                    quality_budget * post[n] / sum, 1e-12)
            << "node " << n;
        EXPECT_NEAR(last_before->budgetQualityCap,
                    quality_budget * pre[n] / sum, 1e-12)
            << "node " << n;
    }
}

} // namespace
