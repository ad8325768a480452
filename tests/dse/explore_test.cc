/**
 * @file
 * Tests for the design-space exploration and pareto selection.
 */

#include "dse/explore.hh"

#include <gtest/gtest.h>

#include "approx/variant.hh"
#include "util/logging.hh"

namespace {

using namespace pliant::dse;
using pliant::kernels::Knobs;
using pliant::kernels::Precision;

DsePoint
point(double time, double inacc, int perforation = 2)
{
    DsePoint p;
    p.knobs = Knobs{perforation, Precision::Double, false};
    p.timeNorm = time;
    p.inaccuracy = inacc;
    return p;
}

DsePoint
precisePoint()
{
    DsePoint p;
    p.knobs = Knobs{};
    p.timeNorm = 1.0;
    p.inaccuracy = 0.0;
    return p;
}

TEST(ParetoSelectTest, KeepsNonDominatedUnderBudget)
{
    std::vector<DsePoint> pts{
        precisePoint(),
        point(0.8, 0.01, 2),  // selected
        point(0.6, 0.03, 3),  // selected
        point(0.9, 0.04, 4),  // dominated by both
        point(0.5, 0.10, 5),  // over budget
    };
    const auto sel = paretoSelect(pts, 0.05);
    ASSERT_EQ(sel.size(), 2u);
    EXPECT_EQ(sel[0], 1u);
    EXPECT_EQ(sel[1], 2u);
}

TEST(ParetoSelectTest, PrecisePointNeverSelected)
{
    std::vector<DsePoint> pts{precisePoint(), point(0.7, 0.02)};
    const auto sel = paretoSelect(pts, 0.05);
    for (std::size_t i : sel)
        EXPECT_FALSE(pts[i].knobs.isPrecise());
}

TEST(ParetoSelectTest, SlowerThanPreciseRejected)
{
    std::vector<DsePoint> pts{precisePoint(), point(1.1, 0.01)};
    EXPECT_TRUE(paretoSelect(pts, 0.05).empty());
}

TEST(ParetoSelectTest, BudgetIsInclusive)
{
    std::vector<DsePoint> pts{precisePoint(), point(0.7, 0.05)};
    EXPECT_EQ(paretoSelect(pts, 0.05).size(), 1u);
}

TEST(ParetoSelectTest, OrderedByIncreasingInaccuracy)
{
    std::vector<DsePoint> pts{
        precisePoint(),
        point(0.5, 0.04, 2),
        point(0.9, 0.005, 3),
        point(0.7, 0.02, 4),
    };
    const auto sel = paretoSelect(pts, 0.05);
    ASSERT_EQ(sel.size(), 3u);
    for (std::size_t i = 1; i < sel.size(); ++i)
        EXPECT_LE(pts[sel[i - 1]].inaccuracy, pts[sel[i]].inaccuracy);
}

TEST(ParetoSelectTest, ExactTiesKeepOnePoint)
{
    std::vector<DsePoint> pts{
        precisePoint(),
        point(0.7, 0.02, 2),
        point(0.7, 0.02, 3), // exact tie
    };
    EXPECT_EQ(paretoSelect(pts, 0.05).size(), 1u);
}

TEST(ParetoSelectTest, EmptyInput)
{
    EXPECT_TRUE(paretoSelect({}, 0.05).empty());
}

TEST(ToVariantsTest, ProducesValidOrderedList)
{
    ExploreResult res;
    res.app = "x";
    res.points = {precisePoint(), point(0.8, 0.01), point(0.5, 0.04)};
    res.selectedOrder = {1, 2};
    const auto vars = toVariants(res);
    ASSERT_EQ(vars.size(), 3u);
    EXPECT_EQ(pliant::approx::validateVariants(vars), "");
    EXPECT_EQ(vars[0].index, 0);
    EXPECT_DOUBLE_EQ(vars[1].execTimeNorm, 0.8);
    EXPECT_DOUBLE_EQ(vars[2].inaccuracy, 0.04);
    // More time reduction buys more pressure relief.
    EXPECT_LT(vars[2].llcScale, vars[1].llcScale);
}

TEST(ToVariantsTest, EnforcesMonotoneInaccuracy)
{
    // Noisy measurements can report a later-selected point with
    // slightly lower inaccuracy; toVariants floors it.
    ExploreResult res;
    res.points = {precisePoint(), point(0.8, 0.020), point(0.5, 0.019)};
    res.selectedOrder = {1, 2};
    const auto vars = toVariants(res);
    EXPECT_EQ(pliant::approx::validateVariants(vars), "");
    EXPECT_GE(vars[2].inaccuracy, vars[1].inaccuracy);
}

TEST(ExploreKernelTest, RaytraceYieldsSelectedVariants)
{
    auto kernel = pliant::kernels::makeKernel("raytrace", 17);
    ExploreOptions opts;
    opts.repetitions = 1;
    const ExploreResult res = exploreKernel(*kernel, opts);
    EXPECT_EQ(res.app, "raytrace");
    EXPECT_GT(res.preciseMs, 0.0);
    EXPECT_FALSE(res.points.empty());
    EXPECT_TRUE(res.points.front().knobs.isPrecise());
    EXPECT_FALSE(res.selectedOrder.empty());
    // Every selected point is within the budget and faster than
    // precise.
    for (std::size_t i : res.selectedOrder) {
        EXPECT_LE(res.points[i].inaccuracy, opts.inaccuracyBudget);
        EXPECT_LT(res.points[i].timeNorm, 1.0);
        EXPECT_TRUE(res.points[i].selected);
    }
}

TEST(ExploreKernelTest, RejectsZeroRepetitions)
{
    auto kernel = pliant::kernels::makeKernel("raytrace", 17);
    ExploreOptions opts;
    opts.repetitions = 0;
    EXPECT_THROW(exploreKernel(*kernel, opts),
                 pliant::util::FatalError);
}

} // namespace
