#include "util/logging.hh"

#include <atomic>
#include <chrono>
#include <mutex>

namespace pliant {
namespace util {

namespace {
/**
 * Relaxed atomics suffice: the level is a configuration value, and
 * driver::Pool workers only ever read it.
 */
std::atomic<LogLevel> globalLevel{LogLevel::Warn};

/** Installed sink; null means the default stderr sink. */
std::atomic<LogSink *> globalSink{nullptr};

/** Serializes emit() so concurrent worker logs never interleave. */
std::mutex &
emitMutex()
{
    static std::mutex m;
    return m;
}

/** Dense thread ids, assigned on a thread's first log call. */
std::atomic<std::uint32_t> nextThreadId{0};

thread_local std::uint32_t tlsThreadId = 0;
thread_local bool tlsThreadIdAssigned = false;
} // namespace

LogLevel
logLevel()
{
    return globalLevel.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    globalLevel.store(level, std::memory_order_relaxed);
}

LogSink *
setLogSink(LogSink *sink)
{
    return globalSink.exchange(sink, std::memory_order_acq_rel);
}

std::uint32_t
logThreadId()
{
    if (!tlsThreadIdAssigned) {
        tlsThreadId =
            nextThreadId.fetch_add(1, std::memory_order_relaxed);
        tlsThreadIdAssigned = true;
    }
    return tlsThreadId;
}

namespace detail {

void
emit(LogLevel level, const std::string &tag, const std::string &msg)
{
    if (static_cast<int>(level) >
        static_cast<int>(globalLevel.load(std::memory_order_relaxed)))
        return;
    LogRecord record;
    record.level = level;
    record.tag = tag;
    record.msg = msg;
    record.monotonicNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    record.threadId = logThreadId();
    std::lock_guard<std::mutex> lock(emitMutex());
    LogSink *sink = globalSink.load(std::memory_order_acquire);
    if (sink) {
        sink->write(record);
    } else {
        // The default sink: byte-identical to the pre-sink logger.
        std::cerr << "[" << tag << "] " << msg << '\n';
    }
}

} // namespace detail

} // namespace util
} // namespace pliant
