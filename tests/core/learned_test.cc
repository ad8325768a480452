/**
 * @file
 * Tests for the online-learned variant selection runtime.
 */

#include "core/learned.hh"

#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hh"

namespace {

using namespace pliant::core;

/**
 * Synthetic environment: latency is a known decreasing function of
 * the single task's variant, latency(v) = base - step * v (+ noise).
 */
class SyntheticActuator : public Actuator
{
  public:
    explicit SyntheticActuator(int most_approx = 6)
        : mostApprox(most_approx)
    {
    }

    int taskCount() const override { return 1; }
    bool taskFinished(int) const override { return finished; }
    int variantOf(int) const override { return variant; }
    int mostApproxOf(int) const override { return mostApprox; }
    void switchVariant(int, int v) override { variant = v; }

    bool
    reclaimCore(int) override
    {
        if (cores <= 1)
            return false;
        --cores;
        return true;
    }

    bool
    returnCore(int) override
    {
        if (cores >= 8)
            return false;
        ++cores;
        return true;
    }

    int reclaimedFrom(int) const override { return 8 - cores; }

    /** Latency the environment produces at the current state. */
    double
    latency() const
    {
        // Each variant buys `step` us; each reclaimed core buys 20 us.
        return base - step * variant - 20.0 * (8 - cores);
    }

    int variant = 0;
    int cores = 8;
    int mostApprox;
    bool finished = false;
    double base = 330.0;
    double step = 30.0;
};

LearnedParams
fastParams()
{
    LearnedParams p;
    p.revertHysteresis = 1;
    return p;
}

TEST(LearnedRuntimeTest, EscalatesOnViolation)
{
    SyntheticActuator env;
    LearnedRuntime rt(env, fastParams(), 1);
    const Decision d = rt.onInterval(env.latency(), 200.0);
    EXPECT_EQ(d.kind, Decision::Kind::SwitchToMost);
    EXPECT_GT(env.variant, 0);
}

TEST(LearnedRuntimeTest, ConvergesToMinimalAdequateVariant)
{
    // latency(v) = 330 - 30v; QoS 200: v = 4 still violates
    // (210 us), v = 5 gives 180 us <= the 10%-margin target. The
    // learner should settle at v = 5, not the most approximate v = 6.
    SyntheticActuator env;
    LearnedRuntime rt(env, fastParams(), 1);
    for (int i = 0; i < 60; ++i)
        rt.onInterval(env.latency(), 200.0);
    EXPECT_EQ(env.variant, 5);
    EXPECT_EQ(env.cores, 8); // no cores taken
}

TEST(LearnedRuntimeTest, StableAfterConvergence)
{
    SyntheticActuator env;
    LearnedRuntime rt(env, fastParams(), 1);
    for (int i = 0; i < 60; ++i)
        rt.onInterval(env.latency(), 200.0);
    const int settled = env.variant;
    int switches = 0;
    for (int i = 0; i < 40; ++i) {
        const int before = env.variant;
        rt.onInterval(env.latency(), 200.0);
        switches += env.variant != before ? 1 : 0;
    }
    EXPECT_EQ(env.variant, settled);
    EXPECT_LE(switches, 2);
}

TEST(LearnedRuntimeTest, LearnsEstimatesForVisitedVariants)
{
    SyntheticActuator env;
    LearnedRuntime rt(env, fastParams(), 1);
    for (int i = 0; i < 30; ++i)
        rt.onInterval(env.latency(), 200.0);
    EXPECT_TRUE(rt.explored(0, 0));
    // The estimate of a visited variant reflects the environment:
    // the learned value is the p99/QoS ratio under that variant.
    for (int v = 0; v <= env.mostApprox; ++v) {
        if (!rt.explored(0, v))
            continue;
        EXPECT_NEAR(rt.estimate(0, v), (330.0 - 30.0 * v) / 200.0,
                    35.0 / 200.0)
            << "variant " << v;
    }
}

TEST(LearnedRuntimeTest, ReclaimsCoresWhenApproximationExhausted)
{
    // Make every variant insufficient: need cores.
    SyntheticActuator env(3);
    env.base = 400.0;
    env.step = 10.0; // most approx still 370 > 200
    LearnedRuntime rt(env, fastParams(), 1);
    for (int i = 0; i < 30; ++i)
        rt.onInterval(env.latency(), 200.0);
    EXPECT_EQ(env.variant, env.mostApprox);
    EXPECT_LT(env.cores, 8);
}

TEST(LearnedRuntimeTest, ReturnsCoresOnSlackBeforeStepDown)
{
    SyntheticActuator env;
    LearnedRuntime rt(env, fastParams(), 1);
    env.variant = 6;
    env.cores = 6;
    // Big slack: expect a core back first.
    const Decision d = rt.onInterval(env.latency(), 400.0);
    EXPECT_EQ(d.kind, Decision::Kind::ReturnCore);
    EXPECT_EQ(env.cores, 7);
}

TEST(LearnedRuntimeTest, DoesNotStepDownIntoKnownBadVariant)
{
    SyntheticActuator env;
    LearnedRuntime rt(env, fastParams(), 7);
    // Converge first (v=5 known-good, v=4 known-bad at 200 QoS).
    for (int i = 0; i < 60; ++i)
        rt.onInterval(env.latency(), 200.0);
    ASSERT_EQ(env.variant, 5);
    // Offer slack barely above threshold at the same QoS: the learner
    // knows v=4 gives 210 > the 180 target and must hold.
    for (int i = 0; i < 10; ++i)
        rt.onInterval(170.0, 200.0);
    EXPECT_EQ(env.variant, 5);
}

TEST(LearnedRuntimeTest, SkipsFinishedTasks)
{
    SyntheticActuator env;
    env.finished = true;
    LearnedRuntime rt(env, fastParams(), 1);
    const Decision d = rt.onInterval(500.0, 200.0);
    EXPECT_EQ(d.kind, Decision::Kind::None);
    EXPECT_EQ(env.variant, 0);
}

TEST(LearnedRuntimeTest, CountsIntervals)
{
    SyntheticActuator env;
    LearnedRuntime rt(env, fastParams(), 1);
    for (int i = 0; i < 5; ++i)
        rt.onInterval(100.0, 200.0);
    EXPECT_EQ(rt.intervals(), 5);
}

TEST(LearnedRuntimeTest, ViolationOnSecondaryServiceEscalates)
{
    SyntheticActuator env;
    LearnedRuntime rt(env, fastParams(), 1);
    std::vector<ServiceReport> svcs(2);
    svcs[0].interval.p99Us = 100.0; // primary: 50% slack
    svcs[0].qosUs = 200.0;
    svcs[1].interval.p99Us = 12e3; // secondary: violating
    svcs[1].qosUs = 10e3;
    const Decision d = rt.onInterval(svcs);
    EXPECT_EQ(d.kind, Decision::Kind::SwitchToMost);
    EXPECT_GT(env.variant, 0);
}

/** Two named tenants with independently scripted ratios. */
std::vector<ServiceReport>
twoTenants(double ratio_a, double ratio_b)
{
    std::vector<ServiceReport> v(2);
    v[0].name = "svc-a";
    v[0].qosUs = 100.0;
    v[0].interval.p99Us = ratio_a * 100.0;
    v[1].name = "svc-b";
    v[1].qosUs = 100.0;
    v[1].interval.p99Us = ratio_b * 100.0;
    return v;
}

TEST(LearnedVectorTest, PerServiceSlotsTrackEachTenant)
{
    SyntheticActuator env;
    LearnedRuntime rt(env, fastParams(), 1);
    for (int i = 0; i < 8; ++i)
        rt.onInterval(twoTenants(0.8, 0.4));
    EXPECT_TRUE(rt.explored(0, 0, "svc-a"));
    EXPECT_TRUE(rt.explored(0, 0, "svc-b"));
    EXPECT_FALSE(rt.explored(0, 0, "svc-c"));
    EXPECT_NEAR(rt.estimate(0, 0, "svc-a"), 0.8, 1e-9);
    EXPECT_NEAR(rt.estimate(0, 0, "svc-b"), 0.4, 1e-9);
    // The aggregate slot still records the worst-service mixture.
    EXPECT_NEAR(rt.estimate(0, 0), 0.8, 1e-9);
}

TEST(LearnedVectorTest, DistinguishesAlternationFromSustainedPressure)
{
    // Two tenants alternate as the worst (0.95/0.55): the worst-ratio
    // mixture learns ~0.95 for the precise variant while each
    // tenant's own estimate sits near ~0.75. After a mild violation
    // escalates one step and slack returns, only the
    // vector-conditioned model recognizes that EVERY tenant clears
    // the target at precise and steps back; the scalar baseline
    // stays pinned on the inflated mixture.
    for (const bool vector : {false, true}) {
        SyntheticActuator env;
        LearnedParams p = fastParams();
        p.vectorConditioned = vector;
        LearnedRuntime rt(env, p, 1);
        for (int i = 0; i < 10; ++i)
            rt.onInterval(twoTenants(i % 2 ? 0.93 : 0.53,
                                     i % 2 ? 0.53 : 0.93));
        rt.onInterval(twoTenants(1.02, 0.70)); // mild violation
        EXPECT_GT(env.variant, 0);
        for (int i = 0; i < 6; ++i)
            rt.onInterval(twoTenants(0.5, 0.5)); // deep slack
        if (vector)
            EXPECT_EQ(env.variant, 0) << "vector model must step back";
        else
            EXPECT_GT(env.variant, 0) << "scalar mixture stays stuck";
    }
}

TEST(LearnedVectorTest, SingleServicePathIgnoresConditioningFlag)
{
    // With one tenant the vector and scalar controllers must make
    // identical decisions — the single-service fallback guarantee.
    SyntheticActuator a, b;
    LearnedParams scalar = fastParams();
    scalar.vectorConditioned = false;
    LearnedRuntime ra(a, fastParams(), 9), rb(b, scalar, 9);
    for (int i = 0; i < 80; ++i) {
        ra.onInterval(a.latency(), 200.0);
        rb.onInterval(b.latency(), 200.0);
        ASSERT_EQ(a.variant, b.variant) << "interval " << i;
        ASSERT_EQ(a.cores, b.cores) << "interval " << i;
    }
}

TEST(LearnedVectorTest, ModelSurvivesMigrationRoundTrip)
{
    SyntheticActuator src;
    LearnedRuntime source(src, fastParams(), 1);
    for (int i = 0; i < 12; ++i)
        source.onInterval(twoTenants(0.9, 0.3));

    // Engine detach path: serialize, then drop the task.
    pliant::approx::TaskState state;
    state.app = "canneal";
    source.exportModel(0, state);
    ASSERT_FALSE(state.runtimeModel.empty());

    // Engine attach path on another node hosting the same tenant
    // names: the rehydrated model reproduces the learned estimates.
    SyntheticActuator dst;
    LearnedRuntime migrated(dst, fastParams(), 2);
    migrated.onTaskRemoved(0); // the destination had no prior task
    migrated.onTaskAdded(state);
    EXPECT_TRUE(migrated.explored(0, 0));
    EXPECT_NEAR(migrated.estimate(0, 0), source.estimate(0, 0),
                1e-12);
    EXPECT_TRUE(migrated.explored(0, 0, "svc-a"));
    EXPECT_NEAR(migrated.estimate(0, 0, "svc-a"),
                source.estimate(0, 0, "svc-a"), 1e-12);
    EXPECT_NEAR(migrated.estimate(0, 0, "svc-b"),
                source.estimate(0, 0, "svc-b"), 1e-12);
}

TEST(LearnedVectorTest, DormantMigratedSlotsAreNotPublishedAsRelief)
{
    // Train against one tenant pair, then "migrate" the model onto a
    // node hosting differently-named tenants: the carried slots stay
    // usable if those names ever appear, but they must NOT surface
    // as relief predictions — the destination's placement signal
    // would otherwise read the source node's past pressure as this
    // node's floor.
    SyntheticActuator src;
    LearnedRuntime source(src, fastParams(), 1);
    for (int i = 0; i < 8; ++i)
        source.onInterval(twoTenants(0.95, 0.9));
    pliant::approx::TaskState state;
    source.exportModel(0, state);

    SyntheticActuator dst;
    LearnedRuntime migrated(dst, fastParams(), 2);
    migrated.onTaskRemoved(0);
    migrated.onTaskAdded(state);
    std::vector<ServiceReport> other(1);
    other[0].name = "svc-x";
    other[0].qosUs = 100.0;
    other[0].interval.p99Us = 50.0;
    migrated.onInterval(other);
    std::vector<ServiceRelief> reliefs;
    migrated.reliefPredictions(reliefs);
    for (const auto &relief : reliefs) {
        EXPECT_NE(relief.service, "svc-a");
        EXPECT_NE(relief.service, "svc-b");
    }
}

TEST(LearnedVectorTest, ReliefPredictionsReportLearnedFloors)
{
    SyntheticActuator env;
    LearnedRuntime rt(env, fastParams(), 1);
    // One buffer across every call, seeded with stale entries: each
    // call replaces its contents.
    std::vector<ServiceRelief> relief = {
        {"stale-service-with-a-long-name", 0.1}, {"svc-b", 0.2},
        {"x", 0.3}};
    // No data yet: no predictions.
    rt.reliefPredictions(relief);
    EXPECT_TRUE(relief.empty());

    // Train with ratios inside the hold band (no violation, slack
    // below threshold), so the manually stepped variant sticks:
    // tenant a improves as the task approximates deeper, tenant b
    // stays put — the floors must reflect both.
    for (int v = 0; v <= 3; ++v) {
        env.variant = v;
        for (int i = 0; i < 4; ++i)
            rt.onInterval(twoTenants(0.98 - 0.04 * v, 0.92));
    }
    relief.assign({{"stale-service-with-a-long-name", 0.1},
                   {"svc-b", 0.2},
                   {"x", 0.3}});
    rt.reliefPredictions(relief);
    ASSERT_EQ(relief.size(), 2u);
    EXPECT_EQ(relief[0].service, "svc-a");
    // Best learned ratio over variants >= the current one (v=3).
    EXPECT_NEAR(relief[0].predictedRatio, 0.86, 1e-9);
    EXPECT_EQ(relief[1].service, "svc-b");
    EXPECT_NEAR(relief[1].predictedRatio, 0.92, 1e-9);

    // A finished task publishes nothing.
    env.finished = true;
    rt.reliefPredictions(relief);
    EXPECT_TRUE(relief.empty());
}

/** The learner works across different environment difficulty levels. */
class LearnedSweepTest : public ::testing::TestWithParam<int>
{
};

TEST_P(LearnedSweepTest, SettlesAtMinimalAdequateVariant)
{
    // Required variant index = GetParam().
    const int required = GetParam();
    SyntheticActuator env(8);
    env.base = 180.0 / (1.0) + 30.0 * required; // latency(required)=180
    env.step = 30.0;
    LearnedRuntime rt(env, fastParams(), 13);
    for (int i = 0; i < 80; ++i)
        rt.onInterval(env.latency(), 200.0);
    EXPECT_EQ(env.variant, required);
}

INSTANTIATE_TEST_SUITE_P(RequiredVariants, LearnedSweepTest,
                         ::testing::Values(1, 3, 5, 7));

} // namespace
