/**
 * @file
 * util::logging sink plumbing: records carry a monotonic timestamp
 * and a dense thread id; sinks are pluggable and the default stderr
 * sink is restored by installing null.
 */

#include "util/logging.hh"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pliant {
namespace util {
namespace {

/** Sink capturing every record for inspection. */
class CaptureSink : public LogSink
{
  public:
    void
    write(const LogRecord &record) override
    {
        records.push_back(record);
    }
    std::vector<LogRecord> records;
};

/** RAII: install a sink, restore the previous one on scope exit. */
class ScopedSink
{
  public:
    explicit ScopedSink(LogSink *sink) : prev(setLogSink(sink)) {}
    ~ScopedSink() { setLogSink(prev); }

  private:
    LogSink *prev;
};

TEST(LoggingTest, RecordsCarryLevelTagAndMessage)
{
    CaptureSink sink;
    ScopedSink scoped(&sink);
    warn("disk ", 7, " full");
    ASSERT_EQ(sink.records.size(), 1U);
    EXPECT_EQ(sink.records[0].level, LogLevel::Warn);
    EXPECT_EQ(sink.records[0].tag, "warn");
    EXPECT_EQ(sink.records[0].msg, "disk 7 full");
}

TEST(LoggingTest, TimestampsAreMonotonicAcrossRecords)
{
    CaptureSink sink;
    ScopedSink scoped(&sink);
    for (int i = 0; i < 16; ++i)
        warn("tick ", i);
    ASSERT_EQ(sink.records.size(), 16U);
    EXPECT_GT(sink.records[0].monotonicNs, 0U);
    for (std::size_t i = 1; i < sink.records.size(); ++i)
        EXPECT_GE(sink.records[i].monotonicNs,
                  sink.records[i - 1].monotonicNs);
}

TEST(LoggingTest, ThreadIdsAreDenseAndStablePerThread)
{
    CaptureSink sink;
    ScopedSink scoped(&sink);
    const std::uint32_t mine = logThreadId();
    EXPECT_EQ(logThreadId(), mine) << "id must be stable";
    warn("from main");

    std::uint32_t other = mine;
    std::thread t([&] {
        other = logThreadId();
        warn("from helper");
    });
    t.join();
    EXPECT_NE(other, mine);
    ASSERT_EQ(sink.records.size(), 2U);
    EXPECT_EQ(sink.records[0].threadId, mine);
    EXPECT_EQ(sink.records[1].threadId, other);
}

TEST(LoggingTest, InstallReturnsPreviousSinkAndNullRestoresDefault)
{
    CaptureSink first, second;
    LogSink *prev = setLogSink(&first);
    EXPECT_EQ(setLogSink(&second), &first);
    warn("captured by second");
    EXPECT_TRUE(first.records.empty());
    ASSERT_EQ(second.records.size(), 1U);
    // Null restores the default stderr sink; the previous sink is
    // handed back so scopes can nest.
    EXPECT_EQ(setLogSink(prev), &second);
}

TEST(LoggingTest, LevelFilteringStillApplies)
{
    CaptureSink sink;
    ScopedSink scoped(&sink);
    const LogLevel old = logLevel();
    setLogLevel(LogLevel::Warn);
    inform("suppressed below Info");
    trace("suppressed below Debug");
    warn("passes");
    setLogLevel(old);
    ASSERT_EQ(sink.records.size(), 1U);
    EXPECT_EQ(sink.records[0].msg, "passes");
}

} // namespace
} // namespace util
} // namespace pliant
