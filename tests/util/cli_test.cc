/**
 * @file
 * Tests for strict numeric flag parsing.
 */

#include "util/cli.hh"

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace {

using pliant::util::parseFlag;

const std::string kUsage = "usage: tool [--n N]";

TEST(ParseFlagTest, AcceptsWholeNumbersInRange)
{
    EXPECT_EQ(parseFlag("--n", "3", kUsage, 1, 10), 3);
    EXPECT_EQ(parseFlag("--n", "0", kUsage, 0U), 0U);
    EXPECT_EQ(parseFlag<std::uint64_t>("--seed", "18446744073709551615",
                                       kUsage),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseFlag("--load", "0.78", kUsage, 0.0), 0.78);
    EXPECT_EQ(parseFlag("--load", "1e-3", kUsage, 0.0), 1e-3);
    EXPECT_EQ(parseFlag("--n", "10", kUsage, 1, 10), 10);
}

TEST(ParseFlagDeathTest, RejectsMalformedValuesWithUsage)
{
    const auto bad_int = [](const std::string &text) {
        parseFlag("--n", text, kUsage, 1, 10);
    };
    const auto bad_unsigned = [](const std::string &text) {
        parseFlag<unsigned>("--n", text, kUsage);
    };
    const auto bad_double = [](const std::string &text) {
        parseFlag("--load", text, kUsage, 0.0);
    };
    for (const std::string text : {"", "x", "3x", " 3", "+3", "0", "11",
                                   "-1", "99999999999999999999"})
        EXPECT_EXIT(bad_int(text), testing::ExitedWithCode(2),
                    "error: --n: invalid value '.*'[^\n]*\nusage: tool")
            << "'" << text << "'";
    for (const std::string text : {"-1", "4294967296", "1.5"})
        EXPECT_EXIT(bad_unsigned(text), testing::ExitedWithCode(2),
                    "usage: tool")
            << "'" << text << "'";
    for (const std::string text :
         {"0.5x", "-0.5", "inf", "nan", "1e400", ".", "0x10"})
        EXPECT_EXIT(bad_double(text), testing::ExitedWithCode(2),
                    "error: --load: invalid value")
            << "'" << text << "'";
}

} // namespace
