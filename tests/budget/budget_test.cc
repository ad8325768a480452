/**
 * @file
 * Unit tests for the cluster-wide budget controller: policy name
 * round-trips, config validation, the Uniform / Proportional /
 * Learned splits, water-fill conservation in every regime
 * (zero-demand, surplus, oversubscription), the [0,1] shed-slice
 * clamp, and the EWMA seeding/update of the Learned demand model.
 */

#include "budget/budget.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace {

using namespace pliant;
using namespace pliant::budget;

BudgetConfig
enabledConfig(BudgetPolicy policy, double quality, double shed)
{
    BudgetConfig cfg;
    cfg.enabled = true;
    cfg.policy = policy;
    cfg.qualityBudget = quality;
    cfg.shedBudget = shed;
    return cfg;
}

NodeDemand
demandOf(double worst_ratio, double in_use, double headroom,
         double shed)
{
    NodeDemand d;
    d.worstRatio = worst_ratio;
    d.qualityInUse = in_use;
    d.qualityHeadroom = headroom;
    d.shedFraction = shed;
    return d;
}

TEST(BudgetPolicyTest, NamesRoundTrip)
{
    for (auto policy : {BudgetPolicy::Uniform, BudgetPolicy::Proportional,
                        BudgetPolicy::Learned})
        EXPECT_EQ(parsePolicy(policyName(policy)), policy);
    EXPECT_THROW(parsePolicy("propotional"), util::FatalError);
    EXPECT_THROW(parsePolicy(""), util::FatalError);
    EXPECT_THROW(parsePolicy("Uniform"), util::FatalError);
}

TEST(BudgetConfigTest, DisabledConfigIsInertWhateverItsFields)
{
    BudgetConfig cfg;
    cfg.enabled = false;
    cfg.qualityBudget = -5.0;
    cfg.shedBudget = -1.0;
    EXPECT_NO_THROW(validateBudgetConfig(cfg));
}

TEST(BudgetConfigTest, EnabledConfigRejectsOutOfRangeFields)
{
    BudgetConfig cfg = enabledConfig(BudgetPolicy::Proportional,
                                     0.5, 0.5);
    EXPECT_NO_THROW(validateBudgetConfig(cfg));

    cfg.qualityBudget = -0.001;
    EXPECT_THROW(validateBudgetConfig(cfg), util::FatalError);
    cfg.qualityBudget = 0.5;

    cfg.shedBudget = -2.0;
    EXPECT_THROW(validateBudgetConfig(cfg), util::FatalError);
    cfg.shedBudget = 0.5;
    EXPECT_NO_THROW(validateBudgetConfig(cfg));
}

TEST(BudgetControllerTest, RejectsDisabledConfigAndZeroNodes)
{
    BudgetConfig disabled;
    EXPECT_THROW(Controller(disabled, 3), util::PanicError);
    EXPECT_THROW(
        Controller(enabledConfig(BudgetPolicy::Uniform, 1.0, 1.0), 0),
        util::PanicError);
    EXPECT_THROW(
        Controller(enabledConfig(BudgetPolicy::Uniform, 1.0, 1.0), 3)
            .allocate({NodeDemand{}}),
        util::PanicError);
}

TEST(BudgetControllerTest, UniformSplitsEvenlyRegardlessOfDemand)
{
    Controller ctl(enabledConfig(BudgetPolicy::Uniform, 0.9, 0.6), 3);
    const auto slices = ctl.allocate(
        {demandOf(2.0, 0.3, 0.4, 0.5), demandOf(0.1, 0.0, 0.0, 0.0),
         demandOf(0.5, 0.05, 0.1, 0.0)});
    ASSERT_EQ(slices.size(), 3u);
    for (const auto &slice : slices) {
        EXPECT_DOUBLE_EQ(slice.qualityCap, 0.3);
        EXPECT_DOUBLE_EQ(slice.shedCap, 0.2);
    }
}

TEST(BudgetControllerTest, ZeroDemandFallsBackToUniform)
{
    Controller ctl(
        enabledConfig(BudgetPolicy::Proportional, 0.6, 0.3), 2);
    const auto slices =
        ctl.allocate({NodeDemand{}, NodeDemand{}});
    ASSERT_EQ(slices.size(), 2u);
    EXPECT_DOUBLE_EQ(slices[0].qualityCap, 0.3);
    EXPECT_DOUBLE_EQ(slices[1].qualityCap, 0.3);
    EXPECT_DOUBLE_EQ(slices[0].shedCap, 0.15);
    EXPECT_DOUBLE_EQ(slices[1].shedCap, 0.15);
}

TEST(BudgetControllerTest, SurplusSpreadsEvenlyOnTopOfDemands)
{
    // Quality demands 0.2 (pressured: in-use + headroom) and 0.1
    // (relaxed: in-use only) against a budget of 0.6 → surplus 0.3,
    // 0.15 each on top.
    Controller ctl(
        enabledConfig(BudgetPolicy::Proportional, 0.6, 1.0), 2);
    const auto slices = ctl.allocate(
        {demandOf(1.5, 0.1, 0.1, 0.0), demandOf(0.4, 0.1, 0.9, 0.0)});
    EXPECT_DOUBLE_EQ(slices[0].qualityCap, 0.2 + 0.15);
    EXPECT_DOUBLE_EQ(slices[1].qualityCap, 0.1 + 0.15);
    // Conservation: the full budget is handed out.
    EXPECT_DOUBLE_EQ(slices[0].qualityCap + slices[1].qualityCap, 0.6);
}

TEST(BudgetControllerTest, OversubscriptionScalesProportionally)
{
    // Quality demands 0.6 and 0.2 against a budget of 0.4 → scaled
    // to 0.3 and 0.1; the sum stays exactly at the budget.
    Controller ctl(
        enabledConfig(BudgetPolicy::Proportional, 0.4, 1.0), 2);
    const auto slices = ctl.allocate(
        {demandOf(1.2, 0.2, 0.4, 0.0), demandOf(1.1, 0.1, 0.1, 0.0)});
    EXPECT_DOUBLE_EQ(slices[0].qualityCap, 0.3);
    EXPECT_DOUBLE_EQ(slices[1].qualityCap, 0.1);
    EXPECT_DOUBLE_EQ(slices[0].qualityCap + slices[1].qualityCap, 0.4);
}

TEST(BudgetControllerTest, ShedSlicesClampToOne)
{
    // A huge shed budget with one demanding node: the surplus would
    // push slices past 1.0, but a shed fraction cannot exceed 1.
    Controller ctl(
        enabledConfig(BudgetPolicy::Proportional, 1.0, 5.0), 2);
    const auto slices = ctl.allocate(
        {demandOf(4.0, 0.0, 0.0, 0.5), demandOf(0.2, 0.0, 0.0, 0.0)});
    EXPECT_DOUBLE_EQ(slices[0].shedCap, 1.0);
    EXPECT_DOUBLE_EQ(slices[1].shedCap, 1.0);
    EXPECT_GE(slices[0].shedCap, 0.0);
    EXPECT_LE(slices[0].shedCap, 1.0);
}

TEST(BudgetDemandTest, QualityDemandCountsHeadroomOnlyUnderPressure)
{
    NodeDemand relaxed = demandOf(0.8, 0.1, 0.5, 0.0);
    EXPECT_DOUBLE_EQ(qualityDemandOf(relaxed), 0.1);

    NodeDemand violated = demandOf(1.2, 0.1, 0.5, 0.0);
    EXPECT_DOUBLE_EQ(qualityDemandOf(violated), 0.6);

    // A predicted-floor violation counts as pressure even while the
    // live ratio looks fine (actuation masking).
    NodeDemand predicted = demandOf(0.9, 0.1, 0.5, 0.0);
    predicted.reliefRatio = 1.3;
    EXPECT_DOUBLE_EQ(qualityDemandOf(predicted), 0.6);
}

TEST(BudgetDemandTest, ShedDemandAddsOverloadExcess)
{
    // ratio 2.0 → excess 1 - 1/2 = 0.5 on top of current shedding.
    EXPECT_DOUBLE_EQ(shedDemandOf(demandOf(2.0, 0.0, 0.0, 0.1)), 0.6);
    // No violation → only what the node already sheds.
    EXPECT_DOUBLE_EQ(shedDemandOf(demandOf(0.9, 0.0, 0.0, 0.1)), 0.1);
    // The sum is capped at darkening the whole service.
    EXPECT_DOUBLE_EQ(shedDemandOf(demandOf(100.0, 0.0, 0.0, 0.8)),
                     1.0);
}

TEST(BudgetControllerTest, LearnedSeedsOnFirstObservationThenSmooths)
{
    // The demand model's EWMA smoothing factor is fixed at 0.3.
    Controller ctl(enabledConfig(BudgetPolicy::Learned, 0.4, 1.0), 2);

    // First epoch: the EWMA seeds at the observation, so the split
    // equals what Proportional would produce (demands 0.6 / 0.2,
    // oversubscribed → 0.3 / 0.1).
    const auto first = ctl.allocate(
        {demandOf(1.2, 0.2, 0.4, 0.0), demandOf(1.1, 0.1, 0.1, 0.0)});
    EXPECT_DOUBLE_EQ(first[0].qualityCap, 0.3);
    EXPECT_DOUBLE_EQ(first[1].qualityCap, 0.1);
    EXPECT_DOUBLE_EQ(ctl.model(0).ratio[0], 0.6);
    EXPECT_EQ(ctl.model(0).samples[0], 1);

    // Second epoch: node 0's demand collapses to 0, but the EWMA
    // keeps 0.7 of it (alpha 0.3): prediction 0.3 * 0 + 0.7 * 0.6 =
    // 0.42 vs node 1's steady 0.2. Still oversubscribed (0.62 > 0.4),
    // so the budget splits 0.42 : 0.2 → 0.2710 / 0.1290.
    const auto second = ctl.allocate(
        {demandOf(0.5, 0.0, 0.0, 0.0), demandOf(1.1, 0.1, 0.1, 0.0)});
    EXPECT_DOUBLE_EQ(ctl.model(0).ratio[0], 0.42);
    EXPECT_DOUBLE_EQ(ctl.model(1).ratio[0], 0.2);
    EXPECT_EQ(ctl.model(0).samples[0], 2);
    EXPECT_DOUBLE_EQ(second[0].qualityCap, 0.4 * 0.42 / 0.62);
    EXPECT_DOUBLE_EQ(second[1].qualityCap, 0.4 * 0.2 / 0.62);
}

TEST(BudgetControllerTest, AllocationIsDeterministic)
{
    const auto run_once = [] {
        Controller ctl(
            enabledConfig(BudgetPolicy::Learned, 0.7, 0.8), 3);
        std::vector<NodeSlice> last;
        for (int epoch = 0; epoch < 5; ++epoch)
            last = ctl.allocate({demandOf(1.4, 0.2, 0.3, 0.4),
                                 demandOf(0.7, 0.1, 0.2, 0.0),
                                 demandOf(1.05, 0.15, 0.1, 0.2)});
        return last;
    };
    const auto a = run_once();
    const auto b = run_once();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].qualityCap, b[i].qualityCap);
        EXPECT_DOUBLE_EQ(a[i].shedCap, b[i].shedCap);
    }
}

} // namespace
