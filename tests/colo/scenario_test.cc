/**
 * @file
 * Unit tests for the deterministic load-scenario traces: one per
 * pattern, plus purity (same (scenario, t) -> same load, the
 * property the sweep determinism guarantee rests on).
 */

#include "colo/scenario.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/logging.hh"
#include "util/rng.hh"

namespace {

using namespace pliant;
using colo::Scenario;
using colo::ScenarioKind;

constexpr sim::Time kS = sim::kSecond;

TEST(ScenarioTest, ConstantIsFlat)
{
    const Scenario s = Scenario::constant(0.78);
    for (sim::Time t = 0; t < 600 * kS; t += 7 * kS)
        EXPECT_DOUBLE_EQ(s.loadAt(t), 0.78);
}

TEST(ScenarioTest, DiurnalOscillatesAroundBaseWithinAmplitude)
{
    const Scenario s = Scenario::diurnal(0.6, 0.25, 120 * kS);
    double lo = 1e9, hi = -1e9;
    for (sim::Time t = 0; t <= 240 * kS; t += kS / 4) {
        const double load = s.loadAt(t);
        EXPECT_GE(load, 0.6 * (1.0 - 0.25) - 1e-12);
        EXPECT_LE(load, 0.6 * (1.0 + 0.25) + 1e-12);
        lo = std::min(lo, load);
        hi = std::max(hi, load);
    }
    // The sinusoid actually reaches both extremes...
    EXPECT_NEAR(lo, 0.6 * 0.75, 1e-6);
    EXPECT_NEAR(hi, 0.6 * 1.25, 1e-6);
    // ... starts at the base, and repeats with the configured period.
    EXPECT_NEAR(s.loadAt(0), 0.6, 1e-12);
    EXPECT_NEAR(s.loadAt(37 * kS), s.loadAt(37 * kS + 120 * kS), 1e-9);
}

TEST(ScenarioTest, FlashCrowdRampHoldDecayEnvelope)
{
    const Scenario s = Scenario::flashCrowd(
        0.6, 0.9, /*at=*/60 * kS, /*ramp=*/10 * kS, /*hold=*/30 * kS,
        /*decay=*/20 * kS);
    // Base before the crowd arrives.
    EXPECT_DOUBLE_EQ(s.loadAt(0), 0.6);
    EXPECT_DOUBLE_EQ(s.loadAt(60 * kS - 1), 0.6);
    // Linear ramp: halfway up at the ramp midpoint.
    EXPECT_NEAR(s.loadAt(65 * kS), 0.75, 1e-9);
    // Peak throughout the hold.
    EXPECT_DOUBLE_EQ(s.loadAt(70 * kS), 0.9);
    EXPECT_DOUBLE_EQ(s.loadAt(99 * kS), 0.9);
    // Linear decay: halfway down at the decay midpoint.
    EXPECT_NEAR(s.loadAt(110 * kS), 0.75, 1e-9);
    // Back to base afterwards.
    EXPECT_DOUBLE_EQ(s.loadAt(120 * kS), 0.6);
    EXPECT_DOUBLE_EQ(s.loadAt(500 * kS), 0.6);
    // Monotone during the ramp.
    for (sim::Time t = 60 * kS; t < 70 * kS - kS; t += kS)
        EXPECT_LT(s.loadAt(t), s.loadAt(t + kS));
}

TEST(ScenarioTest, StepSwitchesOnceAndPersists)
{
    const Scenario s = Scenario::step(0.5, 0.85, 60 * kS);
    EXPECT_DOUBLE_EQ(s.loadAt(0), 0.5);
    EXPECT_DOUBLE_EQ(s.loadAt(60 * kS - 1), 0.5);
    EXPECT_DOUBLE_EQ(s.loadAt(60 * kS), 0.85);
    EXPECT_DOUBLE_EQ(s.loadAt(599 * kS), 0.85);
}

TEST(ScenarioTest, StepTransitionTickIsExact)
{
    // The engine samples loadAt() on the tick grid; the first tick
    // at or after `at` must already see the post-step level, and the
    // last tick before it the base — no off-by-one-tick load jumps.
    const sim::Time tick = 10 * sim::kMillisecond;
    const Scenario s = Scenario::step(0.5, 0.85, 60 * kS);
    EXPECT_DOUBLE_EQ(s.loadAt(60 * kS - tick), 0.5);
    EXPECT_DOUBLE_EQ(s.loadAt(60 * kS - 1), 0.5);
    EXPECT_DOUBLE_EQ(s.loadAt(60 * kS), 0.85);
    EXPECT_DOUBLE_EQ(s.loadAt(60 * kS + tick), 0.85);
}

TEST(ScenarioTest, FlashCrowdBoundariesAreContinuous)
{
    const sim::Time at = 60 * kS, ramp = 10 * kS, hold = 30 * kS,
                    decay = 20 * kS;
    const Scenario s = Scenario::flashCrowd(0.6, 0.9, at, ramp, hold,
                                            decay);
    // Exact values at every phase transition instant: the ramp
    // starts at the base (no jump at `at`), reaches the peak exactly
    // at at+ramp, holds through at+ramp+hold (decay starts at the
    // peak), and lands back on the base exactly at the end.
    EXPECT_DOUBLE_EQ(s.loadAt(at), 0.6);
    EXPECT_DOUBLE_EQ(s.loadAt(at + ramp), 0.9);
    EXPECT_DOUBLE_EQ(s.loadAt(at + ramp + hold), 0.9);
    EXPECT_DOUBLE_EQ(s.loadAt(at + ramp + hold + decay), 0.6);
    EXPECT_DOUBLE_EQ(s.loadAt(at + ramp + hold + decay + 1), 0.6);

    // Across every boundary the per-tick change is bounded by the
    // steepest linear slope — a transition tick never double-steps.
    const sim::Time tick = 10 * sim::kMillisecond;
    const double max_slope_per_tick =
        (0.9 - 0.6) * static_cast<double>(tick) /
        static_cast<double>(std::min(ramp, decay));
    for (sim::Time boundary :
         {at, at + ramp, at + ramp + hold, at + ramp + hold + decay}) {
        for (sim::Time t = boundary - 2 * tick;
             t <= boundary + 2 * tick; t += tick) {
            const double jump =
                std::abs(s.loadAt(t + tick) - s.loadAt(t));
            EXPECT_LE(jump, max_slope_per_tick + 1e-12)
                << "at t=" << sim::toSeconds(t) << " s";
        }
    }
}

TEST(ScenarioTest, DiurnalPeriodBoundaryHasNoJump)
{
    const sim::Time period = 120 * kS;
    const Scenario s = Scenario::diurnal(0.6, 0.25, period);
    // Period boundaries return to the base level (sin(2 pi k) = 0),
    // and the half-period crossing passes through it too.
    for (int k = 0; k <= 4; ++k) {
        EXPECT_NEAR(s.loadAt(k * period), 0.6, 1e-9) << "k=" << k;
        EXPECT_NEAR(s.loadAt(k * period + period / 2), 0.6, 1e-9)
            << "k=" << k;
    }
    // No discontinuity across the boundary: consecutive ticks differ
    // by at most the sinusoid's max slope (2 pi a b / T per second).
    const sim::Time tick = 10 * sim::kMillisecond;
    constexpr double kTwoPi = 6.283185307179586;
    const double max_slope_per_tick =
        kTwoPi * 0.25 * 0.6 * sim::toSeconds(tick) /
        sim::toSeconds(period);
    for (sim::Time t = period - 3 * tick; t <= period + 3 * tick;
         t += tick)
        EXPECT_LE(std::abs(s.loadAt(t + tick) - s.loadAt(t)),
                  max_slope_per_tick + 1e-12);
}

TEST(ScenarioTest, LoadAtIsPure)
{
    // Repeated queries at the same instant are identical (no hidden
    // state), regardless of query order.
    const Scenario s = Scenario::flashCrowd(0.6, 0.9, 60 * kS, 10 * kS,
                                            30 * kS, 20 * kS);
    const double later = s.loadAt(110 * kS);
    const double earlier = s.loadAt(65 * kS);
    EXPECT_DOUBLE_EQ(s.loadAt(65 * kS), earlier);
    EXPECT_DOUBLE_EQ(s.loadAt(110 * kS), later);
}

TEST(ScenarioTest, NamesArePrintable)
{
    EXPECT_EQ(colo::scenarioName(ScenarioKind::Constant), "constant");
    EXPECT_EQ(colo::scenarioName(ScenarioKind::Diurnal), "diurnal");
    EXPECT_EQ(colo::scenarioName(ScenarioKind::FlashCrowd),
              "flash-crowd");
    EXPECT_EQ(colo::scenarioName(ScenarioKind::Step), "step");
    EXPECT_EQ(colo::scenarioName(ScenarioKind::Trace), "trace");
}

TEST(ScenarioTraceTest, InterpolatesBetweenKnotsAndClampsOutside)
{
    const Scenario s = Scenario::trace({
        {10 * kS, 0.40},
        {20 * kS, 0.80},
        {40 * kS, 0.60},
    });
    // Clamped to the first/last knot outside the trace.
    EXPECT_DOUBLE_EQ(s.loadAt(0), 0.40);
    EXPECT_DOUBLE_EQ(s.loadAt(10 * kS), 0.40);
    EXPECT_DOUBLE_EQ(s.loadAt(40 * kS), 0.60);
    EXPECT_DOUBLE_EQ(s.loadAt(500 * kS), 0.60);
    // Linear interpolation between knots.
    EXPECT_NEAR(s.loadAt(15 * kS), 0.60, 1e-12);
    EXPECT_NEAR(s.loadAt(30 * kS), 0.70, 1e-12);
    // Exact at a middle knot.
    EXPECT_DOUBLE_EQ(s.loadAt(20 * kS), 0.80);
}

TEST(ScenarioTraceTest, RejectsEmptyUnsortedAndNegative)
{
    EXPECT_THROW(Scenario::trace({}), util::FatalError);
    EXPECT_THROW(Scenario::trace({{10 * kS, 0.5}, {10 * kS, 0.6}}),
                 util::FatalError);
    EXPECT_THROW(Scenario::trace({{20 * kS, 0.5}, {10 * kS, 0.6}}),
                 util::FatalError);
    EXPECT_THROW(Scenario::trace({{10 * kS, -0.1}}),
                 util::FatalError);
}

TEST(ScenarioTraceTest, LoadsCsvWithHeaderAndComments)
{
    std::istringstream csv(
        "t_s,load\n"
        "# warmup plateau\n"
        "0,0.5\n"
        "30,0.5\n"
        "45.5,0.95\n"
        "\n"
        "60,0.6\n");
    const Scenario s = Scenario::traceFromCsv(csv);
    EXPECT_EQ(s.kind, ScenarioKind::Trace);
    ASSERT_EQ(s.points.size(), 4u);
    EXPECT_DOUBLE_EQ(s.loadAt(0), 0.5);
    EXPECT_EQ(s.points[2].t, sim::fromSeconds(45.5));
    EXPECT_DOUBLE_EQ(s.points[2].load, 0.95);
    EXPECT_DOUBLE_EQ(s.loadAt(120 * kS), 0.6);
}

TEST(ScenarioTraceTest, RejectsMalformedCsv)
{
    std::istringstream no_points("t_s,load\n# nothing\n");
    EXPECT_THROW(Scenario::traceFromCsv(no_points), util::FatalError);

    std::istringstream bad_row("0,0.5\nnot,numeric\n");
    EXPECT_THROW(Scenario::traceFromCsv(bad_row), util::FatalError);

    std::istringstream missing_field("0,0.5\n30\n");
    EXPECT_THROW(Scenario::traceFromCsv(missing_field),
                 util::FatalError);

    // Trailing garbage is malformed, not silently truncated.
    std::istringstream units_suffix("0,0.5\n30sec,0.6\n");
    EXPECT_THROW(Scenario::traceFromCsv(units_suffix),
                 util::FatalError);
    std::istringstream extra_column("0,0.5\n30,0.6;0.9\n");
    EXPECT_THROW(Scenario::traceFromCsv(extra_column),
                 util::FatalError);

    // Only the first non-comment line may be a header: a malformed
    // first data row after it is an error, not a second header.
    std::istringstream bad_first_row("t,load\n0,0.5x\n10,0.7\n");
    EXPECT_THROW(Scenario::traceFromCsv(bad_first_row),
                 util::FatalError);

    // Non-finite loads, and times that are non-finite or outside
    // sim::Time's range, fail before any conversion.
    for (const char *text :
         {"0,nan\n", "0,inf\n", "0,0.5\nnan,0.7\n",
          "0,0.5\n1e300,0.7\n", "-1e300,0.5\n0,0.7\n"}) {
        std::istringstream in(text);
        EXPECT_THROW(Scenario::traceFromCsv(in), util::FatalError)
            << text;
    }

    // The loader's own finiteness check names the CSV line; the knot
    // check behind it in Scenario::trace() names only a point index.
    std::istringstream inf_load("0,0.5\n10,inf\n");
    try {
        Scenario::traceFromCsv(inf_load);
        ADD_FAILURE() << "a non-finite load loaded";
    } catch (const util::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
    }

    EXPECT_THROW(Scenario::traceFromCsvFile("/nonexistent/trace.csv"),
                 util::FatalError);
}

TEST(ScenarioTraceTest, RejectsEmptyCsv)
{
    // A truly empty file (not even a header) is a clear error, not a
    // silent constant-load scenario.
    std::istringstream empty("");
    EXPECT_THROW(Scenario::traceFromCsv(empty), util::FatalError);

    std::istringstream whitespace_only("   \n\t\n  \r\n");
    EXPECT_THROW(Scenario::traceFromCsv(whitespace_only),
                 util::FatalError);
}

TEST(ScenarioTraceTest, SinglePointTraceHoldsItsLoad)
{
    std::istringstream csv("12,0.7\n");
    const Scenario s = Scenario::traceFromCsv(csv);
    ASSERT_EQ(s.points.size(), 1u);
    // One knot means one constant level, before and after it.
    EXPECT_DOUBLE_EQ(s.loadAt(0), 0.7);
    EXPECT_DOUBLE_EQ(s.loadAt(12 * kS), 0.7);
    EXPECT_DOUBLE_EQ(s.loadAt(600 * kS), 0.7);
}

TEST(ScenarioTraceTest, RejectsNonMonotonicCsvTimestamps)
{
    // Out-of-order rows fail loudly (via Scenario::trace), naming the
    // offending point, rather than interpolating garbage.
    std::istringstream decreasing("0,0.5\n30,0.6\n20,0.7\n");
    EXPECT_THROW(Scenario::traceFromCsv(decreasing), util::FatalError);

    std::istringstream duplicate_ts("0,0.5\n30,0.6\n30,0.7\n");
    EXPECT_THROW(Scenario::traceFromCsv(duplicate_ts),
                 util::FatalError);
}

TEST(ScenarioTraceTest, LoadsCrlfLineEndings)
{
    // Windows-exported traces carry \r\n; the loader must strip the
    // \r instead of treating it as trailing garbage.
    std::istringstream csv("t_s,load\r\n0,0.4\r\n30,0.8\r\n60,0.5\r\n");
    const Scenario s = Scenario::traceFromCsv(csv);
    ASSERT_EQ(s.points.size(), 3u);
    EXPECT_DOUBLE_EQ(s.loadAt(0), 0.4);
    EXPECT_NEAR(s.loadAt(15 * kS), 0.6, 1e-12);
    EXPECT_DOUBLE_EQ(s.loadAt(60 * kS), 0.5);
}

TEST(ScenarioTraceTest, MutatedCsvFailsLoudlyOrLoadsAValidTrace)
{
    // Deterministic edits of a valid file (header, comment, CRLF
    // line): byte flips, inserts and deletes, and whole fields
    // replaced by a non-finite value or another row's time. Each
    // mutant must either throw FatalError or load knots whose times
    // strictly increase and whose loads are finite and >= 0.
    const std::string valid =
        "t_s,load\n# ramp\n0,0.4\r\n12.5,0.9\n30,6e-1\n";
    const std::string bytes = "0123456789,.-+eE#\r\n\t ";
    const char *const fragments[] = {"inf", "-inf", "nan", "NAN", "0", "30"};
    util::SplitMix64 sm(0xC5F0AD5u);
    std::size_t rejected = 0, loaded = 0;
    for (int i = 0; i < 2000; ++i) {
        std::string text = valid;
        for (std::uint64_t edits = 1 + sm.next() % 3; edits > 0; --edits) {
            const std::size_t at = sm.next() % text.size();
            const char byte = bytes[sm.next() % bytes.size()];
            switch (sm.next() % 4) {
            case 0: // flip
                text[at] = byte;
                break;
            case 1:
                text.insert(at, 1, byte);
                break;
            case 2:
                text.erase(at, 1);
                break;
            default: {
                const std::size_t from = text.find_last_of(",\r\n", at) + 1;
                const std::size_t to = text.find_first_of(",\r\n", from);
                text.replace(from, to - from, fragments[sm.next() % 6]);
                break;
            }
            }
        }
        const std::string mutant = "mutant " + std::to_string(i) + ": " +
                                   ::testing::PrintToString(text);
        std::istringstream in(text);
        try {
            const Scenario s = Scenario::traceFromCsv(in);
            ++loaded;
            ASSERT_FALSE(s.points.empty()) << mutant;
            for (std::size_t k = 0; k < s.points.size(); ++k) {
                ASSERT_TRUE(std::isfinite(s.points[k].load)) << mutant;
                ASSERT_GE(s.points[k].load, 0.0) << mutant;
                if (k > 0) {
                    ASSERT_GT(s.points[k].t, s.points[k - 1].t) << mutant;
                }
            }
        } catch (const util::FatalError &) {
            ++rejected;
        } catch (const std::exception &e) {
            FAIL() << mutant << " threw " << e.what();
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(loaded, 0u);
}

} // namespace
