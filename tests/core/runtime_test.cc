/**
 * @file
 * Tests for the Pliant runtime state machine (Fig. 3) against a mock
 * actuator, including the multi-application arbiters.
 */

#include "core/runtime.hh"

#include <string>

#include <gtest/gtest.h>

#include "core/actuator.hh"

namespace {

using namespace pliant::core;

/** In-memory actuator: N tasks, each with V variants and C cores. */
class MockActuator : public Actuator
{
  public:
    struct Task
    {
        int variant = 0;
        int mostApprox = 4;
        int fairCores = 5;
        int cores = 5;
        bool finished = false;
        double relief = 1.0;
        double cost = 1.0;
    };

    explicit MockActuator(int n_tasks, int most_approx = 4)
    {
        tasks.resize(static_cast<std::size_t>(n_tasks));
        for (auto &t : tasks)
            t.mostApprox = most_approx;
    }

    int taskCount() const override
    {
        return static_cast<int>(tasks.size());
    }
    bool taskFinished(int t) const override { return at(t).finished; }
    int variantOf(int t) const override { return at(t).variant; }
    int mostApproxOf(int t) const override { return at(t).mostApprox; }

    void
    switchVariant(int t, int v) override
    {
        at(t).variant = v;
        ++switches;
    }

    bool
    reclaimCore(int t) override
    {
        if (at(t).cores <= 1)
            return false;
        --at(t).cores;
        return true;
    }

    bool
    returnCore(int t) override
    {
        if (at(t).cores >= at(t).fairCores)
            return false;
        ++at(t).cores;
        return true;
    }

    int
    reclaimedFrom(int t) const override
    {
        return at(t).fairCores - at(t).cores;
    }

    double reliefPotential(int t) const override { return at(t).relief; }
    double qualityCost(int t) const override { return at(t).cost; }

    Task &at(int t) { return tasks[static_cast<std::size_t>(t)]; }
    const Task &at(int t) const
    {
        return tasks[static_cast<std::size_t>(t)];
    }

    std::vector<Task> tasks;
    int switches = 0;
};

RuntimeParams
noHysteresis()
{
    RuntimeParams p;
    p.revertHysteresis = 1;
    p.punishWindow = 0; // disable adaptive backoff for determinism
    return p;
}

TEST(PreciseRuntimeTest, NeverActuates)
{
    PreciseRuntime rt;
    EXPECT_EQ(rt.onInterval(1e9, 1.0).kind, Decision::Kind::None);
    EXPECT_EQ(rt.name(), "precise");
}

TEST(PliantRuntimeTest, ViolationSwitchesToMostApprox)
{
    MockActuator act(1);
    PliantRuntime rt(act, noHysteresis(), 1);
    const Decision d = rt.onInterval(300.0, 200.0);
    EXPECT_EQ(d.kind, Decision::Kind::SwitchToMost);
    EXPECT_EQ(act.at(0).variant, 4);
}

TEST(PliantRuntimeTest, IntermediateVariantJumpsStraightToMost)
{
    // Fig. 3: a violation at any degree other than the highest
    // immediately reverts to the most approximate variant.
    MockActuator act(1);
    act.at(0).variant = 2;
    PliantRuntime rt(act, noHysteresis(), 1);
    rt.onInterval(300.0, 200.0);
    EXPECT_EQ(act.at(0).variant, 4);
}

TEST(PliantRuntimeTest, ViolationAtMostApproxReclaimsOneCore)
{
    MockActuator act(1);
    act.at(0).variant = 4;
    PliantRuntime rt(act, noHysteresis(), 1);
    const Decision d = rt.onInterval(300.0, 200.0);
    EXPECT_EQ(d.kind, Decision::Kind::ReclaimCore);
    EXPECT_EQ(act.at(0).cores, 4);
}

TEST(PliantRuntimeTest, OneCorePerInterval)
{
    MockActuator act(1);
    act.at(0).variant = 4;
    PliantRuntime rt(act, noHysteresis(), 1);
    rt.onInterval(300.0, 200.0);
    rt.onInterval(300.0, 200.0);
    EXPECT_EQ(act.at(0).cores, 3); // exactly two intervals, two cores
}

TEST(PliantRuntimeTest, NeverTakesLastCore)
{
    MockActuator act(1);
    act.at(0).variant = 4;
    act.at(0).cores = 1;
    PliantRuntime rt(act, noHysteresis(), 1);
    const Decision d = rt.onInterval(300.0, 200.0);
    EXPECT_EQ(d.kind, Decision::Kind::None);
    EXPECT_EQ(act.at(0).cores, 1);
}

TEST(PliantRuntimeTest, MetWithoutSlackHoldsState)
{
    MockActuator act(1);
    act.at(0).variant = 4;
    PliantRuntime rt(act, noHysteresis(), 1);
    // 195 <= 200, slack 2.5% < 10%: hold.
    const Decision d = rt.onInterval(195.0, 200.0);
    EXPECT_EQ(d.kind, Decision::Kind::None);
    EXPECT_EQ(act.at(0).variant, 4);
}

TEST(PliantRuntimeTest, SlackReturnsCoresBeforeSteppingDown)
{
    MockActuator act(1);
    act.at(0).variant = 4;
    act.at(0).cores = 3; // 2 reclaimed
    PliantRuntime rt(act, noHysteresis(), 1);
    const Decision d1 = rt.onInterval(100.0, 200.0);
    EXPECT_EQ(d1.kind, Decision::Kind::ReturnCore);
    EXPECT_EQ(act.at(0).cores, 4);
    const Decision d2 = rt.onInterval(100.0, 200.0);
    EXPECT_EQ(d2.kind, Decision::Kind::ReturnCore);
    const Decision d3 = rt.onInterval(100.0, 200.0);
    EXPECT_EQ(d3.kind, Decision::Kind::StepDown);
    EXPECT_EQ(act.at(0).variant, 3);
}

TEST(PliantRuntimeTest, StepDownIsIncremental)
{
    MockActuator act(1);
    act.at(0).variant = 4;
    PliantRuntime rt(act, noHysteresis(), 1);
    rt.onInterval(100.0, 200.0);
    EXPECT_EQ(act.at(0).variant, 3);
    rt.onInterval(100.0, 200.0);
    EXPECT_EQ(act.at(0).variant, 2);
}

TEST(PliantRuntimeTest, PreciseWithSlackDoesNothing)
{
    MockActuator act(1);
    PliantRuntime rt(act, noHysteresis(), 1);
    const Decision d = rt.onInterval(100.0, 200.0);
    EXPECT_EQ(d.kind, Decision::Kind::None);
}

TEST(PliantRuntimeTest, SlackExactlyAtThresholdHolds)
{
    MockActuator act(1);
    act.at(0).variant = 4;
    PliantRuntime rt(act, noHysteresis(), 1);
    // Slack exactly 10% is NOT greater than the threshold.
    const Decision d = rt.onInterval(180.0, 200.0);
    EXPECT_EQ(d.kind, Decision::Kind::None);
}

TEST(PliantRuntimeTest, HysteresisDelaysRevert)
{
    MockActuator act(1);
    act.at(0).variant = 4;
    RuntimeParams prm;
    prm.revertHysteresis = 3;
    prm.punishWindow = 0;
    PliantRuntime rt(act, prm, 1);
    EXPECT_EQ(rt.onInterval(100.0, 200.0).kind, Decision::Kind::None);
    EXPECT_EQ(rt.onInterval(100.0, 200.0).kind, Decision::Kind::None);
    EXPECT_EQ(rt.onInterval(100.0, 200.0).kind,
              Decision::Kind::StepDown);
}

TEST(PliantRuntimeTest, ViolationResetsSlackStreak)
{
    MockActuator act(1);
    act.at(0).variant = 4;
    RuntimeParams prm;
    prm.revertHysteresis = 2;
    prm.punishWindow = 0;
    PliantRuntime rt(act, prm, 1);
    rt.onInterval(100.0, 200.0); // slack streak 1/2
    // Violation resets the streak (and reclaims a core, since the
    // task is already at its most approximate variant).
    EXPECT_EQ(rt.onInterval(300.0, 200.0).kind,
              Decision::Kind::ReclaimCore);
    rt.onInterval(100.0, 200.0); // slack streak 1/2 again
    // Streak completes: the revert path returns the reclaimed core
    // first (cores before variants).
    const Decision d = rt.onInterval(100.0, 200.0);
    EXPECT_EQ(d.kind, Decision::Kind::ReturnCore);
    EXPECT_EQ(act.at(0).cores, 5);
}

TEST(PliantRuntimeTest, AdaptiveBackoffAfterPunishedRevert)
{
    MockActuator act(1);
    act.at(0).variant = 4;
    RuntimeParams prm;
    prm.revertHysteresis = 1;
    prm.punishWindow = 3;
    PliantRuntime rt(act, prm, 1);
    // Revert (step down), then get punished by a violation.
    EXPECT_EQ(rt.onInterval(100.0, 200.0).kind,
              Decision::Kind::StepDown);
    EXPECT_EQ(rt.onInterval(300.0, 200.0).kind,
              Decision::Kind::SwitchToMost);
    // Required streak doubled to 2: one slack interval no longer
    // triggers a revert.
    EXPECT_EQ(rt.onInterval(100.0, 200.0).kind, Decision::Kind::None);
    EXPECT_EQ(rt.onInterval(100.0, 200.0).kind,
              Decision::Kind::StepDown);
}

TEST(PliantRuntimeTest, FinishedTasksAreSkipped)
{
    MockActuator act(2);
    act.at(0).finished = true;
    PliantRuntime rt(act, noHysteresis(), 1);
    rt.onInterval(300.0, 200.0);
    EXPECT_EQ(act.at(0).variant, 0); // untouched
    EXPECT_EQ(act.at(1).variant, 4);
}

TEST(PliantRuntimeTest, RoundRobinEscalatesOneAppAtATime)
{
    MockActuator act(3);
    PliantRuntime rt(act, noHysteresis(), 1);
    rt.onInterval(300.0, 200.0);
    int escalated = 0;
    for (int t = 0; t < 3; ++t)
        escalated += act.at(t).variant == 4 ? 1 : 0;
    EXPECT_EQ(escalated, 1);
    rt.onInterval(300.0, 200.0);
    rt.onInterval(300.0, 200.0);
    for (int t = 0; t < 3; ++t)
        EXPECT_EQ(act.at(t).variant, 4);
}

TEST(PliantRuntimeTest, RoundRobinReclaimsFairly)
{
    MockActuator act(2);
    act.at(0).variant = 4;
    act.at(1).variant = 4;
    PliantRuntime rt(act, noHysteresis(), 1);
    rt.onInterval(300.0, 200.0);
    rt.onInterval(300.0, 200.0);
    // One core from each app, not two from one.
    EXPECT_EQ(act.at(0).cores, 4);
    EXPECT_EQ(act.at(1).cores, 4);
}

TEST(PliantRuntimeTest, CoresBeforeVariantsOnRevert)
{
    MockActuator act(2);
    act.at(0).variant = 4;
    act.at(1).variant = 4;
    act.at(0).cores = 4;
    act.at(1).cores = 4;
    PliantRuntime rt(act, noHysteresis(), 1);
    rt.onInterval(100.0, 200.0);
    rt.onInterval(100.0, 200.0);
    EXPECT_EQ(act.at(0).cores, 5);
    EXPECT_EQ(act.at(1).cores, 5);
    EXPECT_EQ(act.at(0).variant, 4); // variants untouched so far
    rt.onInterval(100.0, 200.0);
    EXPECT_EQ(act.at(0).variant + act.at(1).variant, 7); // one stepped
}

TEST(PliantRuntimeTest, ImpactAwarePicksBestReliefPerCost)
{
    MockActuator act(3);
    act.at(0).relief = 1.0;
    act.at(0).cost = 1.0;
    act.at(1).relief = 10.0; // best ratio
    act.at(1).cost = 1.0;
    act.at(2).relief = 10.0;
    act.at(2).cost = 100.0;
    RuntimeParams prm = noHysteresis();
    prm.arbiter = ArbiterKind::ImpactAware;
    PliantRuntime rt(act, prm, 1);
    rt.onInterval(300.0, 200.0);
    EXPECT_EQ(act.at(1).variant, 4);
    EXPECT_EQ(act.at(0).variant, 0);
    EXPECT_EQ(act.at(2).variant, 0);
}

TEST(PliantRuntimeTest, ImpactAwareReclaimsFromLeastRelief)
{
    MockActuator act(2);
    act.at(0).variant = 4;
    act.at(1).variant = 4;
    act.at(0).relief = 0.1; // its approximation helps least
    act.at(1).relief = 5.0;
    RuntimeParams prm = noHysteresis();
    prm.arbiter = ArbiterKind::ImpactAware;
    PliantRuntime rt(act, prm, 1);
    rt.onInterval(300.0, 200.0);
    EXPECT_EQ(act.at(0).cores, 4);
    EXPECT_EQ(act.at(1).cores, 5);
}

TEST(DecisionNameTest, EventNamesArePrefixedDecisionNames)
{
    for (int k = 0; k < 7; ++k) {
        const auto kind = static_cast<Decision::Kind>(k);
        EXPECT_EQ(std::string(decisionEventName(kind)),
                  "decision:" + decisionName(kind));
        EXPECT_NE(decisionName(kind), "unknown") << k;
    }
}

/** Build a per-service report vector from (p99, qos) pairs. */
std::vector<ServiceReport>
reports(std::initializer_list<std::pair<double, double>> svcs)
{
    std::vector<ServiceReport> out;
    for (const auto &[p99, qos] : svcs) {
        ServiceReport r;
        r.interval.p99Us = p99;
        r.qosUs = qos;
        out.push_back(r);
    }
    return out;
}

TEST(MultiServiceRuntimeTest, WorstRatioPicksTheMostViolatedService)
{
    // 150/200 = 0.75 vs 9500/10000 = 0.95: nginx is closer to its
    // (much larger) target, so it dominates the severity signal.
    EXPECT_DOUBLE_EQ(
        worstRatio(reports({{150.0, 200.0}, {9500.0, 10e3}})), 0.95);
    EXPECT_DOUBLE_EQ(worstRatio({}), 0.0);
}

TEST(MultiServiceRuntimeTest, ViolationOnAnyServiceActuates)
{
    MockActuator act(1);
    PliantRuntime rt(act, noHysteresis(), 1);
    // Service 0 comfortably under QoS, service 1 violating: the
    // joint loop must still escalate.
    const Decision d =
        rt.onInterval(reports({{100.0, 200.0}, {12e3, 10e3}}));
    EXPECT_EQ(d.kind, Decision::Kind::SwitchToMost);
    EXPECT_EQ(act.at(0).variant, 4);
}

TEST(MultiServiceRuntimeTest, RevertNeedsSlackOnEveryService)
{
    MockActuator act(1);
    act.at(0).variant = 4;
    PliantRuntime rt(act, noHysteresis(), 1);
    // Service 0 has 50% slack but service 1 sits at 5% slack: the
    // worst ratio (0.95) gates the revert path.
    const Decision hold =
        rt.onInterval(reports({{100.0, 200.0}, {9500.0, 10e3}}));
    EXPECT_EQ(hold.kind, Decision::Kind::None);
    EXPECT_EQ(act.at(0).variant, 4);
    // Once both services have real slack, the revert proceeds.
    const Decision revert =
        rt.onInterval(reports({{100.0, 200.0}, {5000.0, 10e3}}));
    EXPECT_EQ(revert.kind, Decision::Kind::StepDown);
    EXPECT_EQ(act.at(0).variant, 3);
}

TEST(MultiServiceRuntimeTest, ScalarShorthandEqualsOneEntryVector)
{
    MockActuator a1(1), a2(1);
    PliantRuntime r1(a1, noHysteresis(), 1);
    PliantRuntime r2(a2, noHysteresis(), 1);
    const Decision ds = r1.onInterval(300.0, 200.0);
    const Decision dv = r2.onInterval(reports({{300.0, 200.0}}));
    EXPECT_EQ(ds.kind, dv.kind);
    EXPECT_EQ(ds.task, dv.task);
    EXPECT_EQ(a1.at(0).variant, a2.at(0).variant);
}

TEST(DecisionTest, NamesArePrintable)
{
    EXPECT_EQ(decisionName(Decision::Kind::None), "none");
    EXPECT_EQ(decisionName(Decision::Kind::SwitchToMost),
              "switch-to-most");
    EXPECT_EQ(decisionName(Decision::Kind::ReclaimCore),
              "reclaim-core");
    EXPECT_EQ(decisionName(Decision::Kind::ReturnCore), "return-core");
    EXPECT_EQ(decisionName(Decision::Kind::StepDown), "step-down");
}

/**
 * Property sweep: under random latency sequences the runtime never
 * drives the mock out of its invariants.
 */
class RuntimeFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RuntimeFuzzTest, InvariantsHoldUnderRandomLatency)
{
    pliant::util::Rng rng(GetParam());
    MockActuator act(3);
    RuntimeParams prm;
    PliantRuntime rt(act, prm, GetParam());
    for (int i = 0; i < 500; ++i) {
        const double p99 = rng.uniform(50.0, 500.0);
        rt.onInterval(p99, 200.0);
        for (int t = 0; t < 3; ++t) {
            EXPECT_GE(act.at(t).cores, 1);
            EXPECT_LE(act.at(t).cores, act.at(t).fairCores);
            EXPECT_GE(act.at(t).variant, 0);
            EXPECT_LE(act.at(t).variant, act.at(t).mostApprox);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeFuzzTest,
                         ::testing::Values(1, 7, 13, 99, 12345));

} // namespace
