/**
 * @file
 * Tests for the text table, CSV writer, and format helpers.
 */

#include "util/table.hh"

#include <sstream>

#include <gtest/gtest.h>

#include "util/histogram.hh"
#include "util/logging.hh"

namespace {

using pliant::util::CsvWriter;
using pliant::util::LogHistogram;
using pliant::util::TextTable;

TEST(TextTableTest, PrintsHeaderAndRows)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TextTableTest, RejectsArityMismatch)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(TextTableTest, ColumnsAligned)
{
    TextTable t({"x", "y"});
    t.addRow({"longvalue", "1"});
    std::ostringstream os;
    t.print(os);
    // Header line must be padded to at least the row width.
    std::istringstream is(os.str());
    std::string header, rule;
    std::getline(is, header);
    std::getline(is, rule);
    EXPECT_GE(header.size(), std::string("longvalue").size());
}

TEST(CsvWriterTest, PlainFields)
{
    std::ostringstream os;
    CsvWriter csv(os);
    csv.writeRow({"a", "b", "c"});
    EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(CsvWriterTest, QuotesFieldsWithCommasAndQuotes)
{
    std::ostringstream os;
    CsvWriter csv(os);
    csv.writeRow({"a,b", "say \"hi\""});
    EXPECT_EQ(os.str(), "\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(FmtTest, FixedPrecision)
{
    EXPECT_EQ(pliant::util::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(pliant::util::fmt(2.0, 0), "2");
}

TEST(FmtTest, Percentage)
{
    EXPECT_EQ(pliant::util::fmtPct(0.021, 1), "2.1%");
    EXPECT_EQ(pliant::util::fmtPct(0.5, 0), "50%");
}

TEST(SparklineTest, EmptyInput)
{
    EXPECT_EQ(pliant::util::sparkline({}), "");
}

TEST(SparklineTest, ConstantSeriesUsesLowestLevel)
{
    const std::string s = pliant::util::sparkline({1.0, 1.0, 1.0});
    EXPECT_FALSE(s.empty());
}

TEST(SparklineTest, LengthMatchesSeries)
{
    const std::string s = pliant::util::sparkline({1, 2, 3, 4, 5});
    // Each glyph is a 3-byte UTF-8 sequence.
    EXPECT_EQ(s.size(), 5u * 3u);
}

TEST(LogHistogramTest, CountsAndQuantiles)
{
    LogHistogram h(1.0, 2.0, 20);
    for (int i = 0; i < 1000; ++i)
        h.add(100.0);
    EXPECT_EQ(h.count(), 1000u);
    // All mass in one bucket: quantile lands near 100 on a log scale.
    const double q = h.quantile(0.5);
    EXPECT_GT(q, 50.0);
    EXPECT_LT(q, 200.0);
}

TEST(LogHistogramTest, UnderflowAndOverflow)
{
    LogHistogram h(1.0, 2.0, 4); // covers [1, 16)
    h.add(0.5);
    h.add(1000.0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.buckets().front(), 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(LogHistogramTest, BucketLowerEdges)
{
    LogHistogram h(2.0, 4.0, 8);
    EXPECT_DOUBLE_EQ(h.bucketLo(0), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(1), 8.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(2), 32.0);
}

TEST(LoggingTest, FatalThrowsFatalError)
{
    EXPECT_THROW(pliant::util::fatal("bad config: ", 42),
                 pliant::util::FatalError);
}

TEST(LoggingTest, PanicThrowsPanicError)
{
    EXPECT_THROW(pliant::util::panic("bug"), pliant::util::PanicError);
}

TEST(LoggingTest, LevelsGate)
{
    using pliant::util::LogLevel;
    pliant::util::setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(pliant::util::logLevel(), LogLevel::Quiet);
    pliant::util::setLogLevel(LogLevel::Warn);
    EXPECT_EQ(pliant::util::logLevel(), LogLevel::Warn);
}

} // namespace
