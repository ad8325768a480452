/**
 * @file
 * Tests for the dynamic-replacement machinery: variant tables, signal
 * dispatch, and the instrumented-kernel wrapper.
 */

#include <gtest/gtest.h>

#include "dynrec/instrumented.hh"
#include "dynrec/variant_table.hh"
#include "util/logging.hh"

namespace {

using namespace pliant::dynrec;

TEST(VariantTableTest, DispatchesToActiveVariant)
{
    VariantTable<int(int)> table;
    table.registerVariant([](int x) { return x + 1; }, "inc");
    table.registerVariant([](int x) { return x * 2; }, "dbl");
    EXPECT_EQ(table(10), 11);
    table.switchTo(1);
    EXPECT_EQ(table(10), 20);
    table.switchTo(0);
    EXPECT_EQ(table(10), 11);
}

TEST(VariantTableTest, TracksSwitchAndCallCounts)
{
    VariantTable<int()> table;
    table.registerVariant([]() { return 1; }, "a");
    table.registerVariant([]() { return 2; }, "b");
    table();
    table();
    table.switchTo(1);
    table();
    EXPECT_EQ(table.calls(), 3u);
    EXPECT_EQ(table.switches(), 1u);
}

TEST(VariantTableTest, LabelsAndSize)
{
    VariantTable<void()> table;
    table.registerVariant([]() {}, "precise");
    table.registerVariant([]() {}, "p4");
    EXPECT_EQ(table.size(), 2);
    EXPECT_EQ(table.label(0), "precise");
    EXPECT_EQ(table.label(1), "p4");
}

TEST(VariantTableTest, SwitchOutOfRangeIsFatal)
{
    VariantTable<void()> table;
    table.registerVariant([]() {}, "only");
    EXPECT_THROW(table.switchTo(1), pliant::util::FatalError);
    EXPECT_THROW(table.switchTo(-1), pliant::util::FatalError);
}

TEST(VariantTableTest, StartsAtVariantZero)
{
    VariantTable<int()> table;
    table.registerVariant([]() { return 7; }, "a");
    table.registerVariant([]() { return 8; }, "b");
    EXPECT_EQ(table.active(), 0);
    EXPECT_EQ(table(), 7);
}

TEST(SignalDispatcherTest, RaiseRunsMappedAction)
{
    SignalDispatcher d;
    int hits = 0;
    d.mapSignal(34, [&]() { ++hits; });
    d.raise(34);
    d.raise(34);
    EXPECT_EQ(hits, 2);
    EXPECT_EQ(d.delivered(), 2u);
}

TEST(SignalDispatcherTest, DoubleMappingIsFatal)
{
    SignalDispatcher d;
    d.mapSignal(34, []() {});
    EXPECT_THROW(d.mapSignal(34, []() {}), pliant::util::FatalError);
}

TEST(SignalDispatcherTest, UnmappedRaiseIsFatal)
{
    SignalDispatcher d;
    EXPECT_THROW(d.raise(99), pliant::util::FatalError);
}

TEST(SignalDispatcherTest, IsMappedQueries)
{
    SignalDispatcher d;
    d.mapSignal(40, []() {});
    EXPECT_TRUE(d.isMapped(40));
    EXPECT_FALSE(d.isMapped(41));
    EXPECT_EQ(d.mappedCount(), 1u);
}

TEST(SignalDispatcherTest, SignalsSwitchVariantTables)
{
    // The full Pliant actuation path: signal -> table switch.
    VariantTable<int()> table;
    table.registerVariant([]() { return 0; }, "precise");
    table.registerVariant([]() { return 1; }, "approx");
    SignalDispatcher d;
    d.mapSignal(34, [&]() { table.switchTo(0); });
    d.mapSignal(35, [&]() { table.switchTo(1); });
    d.raise(35);
    EXPECT_EQ(table(), 1);
    d.raise(34);
    EXPECT_EQ(table(), 0);
}

TEST(InstrumentedKernelTest, WrapsWholeKnobSpace)
{
    InstrumentedKernel ik(pliant::kernels::makeKernel("raytrace", 3));
    EXPECT_GE(ik.variantCount(), 3);
    EXPECT_EQ(ik.activeVariant(), 0);
    EXPECT_TRUE(ik.knobsOf(0).isPrecise());
}

TEST(InstrumentedKernelTest, SignalSwitchesActiveVariant)
{
    InstrumentedKernel ik(pliant::kernels::makeKernel("raytrace", 3));
    ik.raiseSignal(ik.signalFor(2));
    EXPECT_EQ(ik.activeVariant(), 2);
    EXPECT_EQ(ik.switchCount(), 1u);
    ik.raiseSignal(ik.signalFor(0));
    EXPECT_EQ(ik.activeVariant(), 0);
}

TEST(InstrumentedKernelTest, InvokeRunsActiveKnobs)
{
    InstrumentedKernel ik(pliant::kernels::makeKernel("raytrace", 3));
    const auto precise = ik.invoke();
    EXPECT_EQ(precise.inaccuracy, 0.0);
    ik.raiseSignal(ik.signalFor(ik.variantCount() - 1));
    const auto approx = ik.invoke();
    EXPECT_GE(approx.inaccuracy, 0.0);
}

TEST(InstrumentedKernelTest, SignalsStartAtSigrtmin)
{
    InstrumentedKernel ik(pliant::kernels::makeKernel("kmeans", 3));
    EXPECT_EQ(ik.signalFor(0), InstrumentedKernel::kFirstSignal);
    EXPECT_TRUE(ik.signals().isMapped(InstrumentedKernel::kFirstSignal));
}

} // namespace
