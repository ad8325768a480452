/**
 * @file
 * Tests for the simulation time conversions.
 */

#include "sim/time.hh"

#include <gtest/gtest.h>

namespace {

using namespace pliant::sim;

TEST(TimeTest, Conversions)
{
    EXPECT_EQ(fromSeconds(1.0), kSecond);
    EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
    EXPECT_EQ(fromSeconds(0.01), 10 * kMillisecond);
}

} // namespace
