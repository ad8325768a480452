/**
 * @file
 * Tiny leveled logger plus fatal/panic helpers, in the spirit of
 * gem5's logging.hh: panic() for internal invariant violations,
 * fatal() for user/configuration errors.
 */

#ifndef PLIANT_UTIL_LOGGING_HH
#define PLIANT_UTIL_LOGGING_HH

#include <cstdint>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pliant {
namespace util {

/** Log verbosity levels. */
enum class LogLevel { Quiet = 0, Warn = 1, Info = 2, Debug = 3 };

/** Global log level (default Warn; benches may raise it). */
LogLevel logLevel();
void setLogLevel(LogLevel level);

/**
 * One log record as handed to a sink. Timestamps come from
 * std::chrono::steady_clock (monotonic, ns); threadId is a small
 * dense id assigned on a thread's first log.
 */
struct LogRecord
{
    LogLevel level = LogLevel::Info;
    std::string tag;
    std::string msg;
    std::uint64_t monotonicNs = 0;
    std::uint32_t threadId = 0;
};

/**
 * Pluggable log destination. Sinks are called with the emit mutex
 * held, so a sink needs no synchronization of its own — the same
 * no-interleaving guarantee the default stderr sink always had.
 */
class LogSink
{
  public:
    virtual ~LogSink() = default;
    virtual void write(const LogRecord &record) = 0;
};

/**
 * Install a sink (non-owning; must outlive its installation).
 * Passing null restores the default stderr sink, whose output
 * format — `[tag] msg` — is unchanged from the pre-sink logger.
 * @return the previously installed sink (null for the default).
 */
LogSink *setLogSink(LogSink *sink);

/** Dense id of the calling thread (assigned on first use). */
std::uint32_t logThreadId();

namespace detail {
void emit(LogLevel level, const std::string &tag, const std::string &msg);
} // namespace detail

/** Informational message (suppressed below Info). */
template <typename... Args>
void
inform(const Args &...args)
{
    std::ostringstream ss;
    (ss << ... << args);
    detail::emit(LogLevel::Info, "info", ss.str());
}

/** Warning: something works but deserves attention. */
template <typename... Args>
void
warn(const Args &...args)
{
    std::ostringstream ss;
    (ss << ... << args);
    detail::emit(LogLevel::Warn, "warn", ss.str());
}

/** Debug trace (suppressed below Debug). */
template <typename... Args>
void
trace(const Args &...args)
{
    std::ostringstream ss;
    (ss << ... << args);
    detail::emit(LogLevel::Debug, "debug", ss.str());
}

/** Error caused by invalid user input or configuration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/** Internal invariant violation (a bug in this library). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg) {}
};

/** Raise a FatalError with a formatted message. */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    std::ostringstream ss;
    (ss << ... << args);
    throw FatalError(ss.str());
}

/** Raise a PanicError with a formatted message. */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    std::ostringstream ss;
    (ss << ... << args);
    throw PanicError(ss.str());
}

/** Panic unless the condition holds. */
#define PLIANT_ASSERT(cond, msg)                                        \
    do {                                                                \
        if (!(cond))                                                    \
            ::pliant::util::panic("assertion failed: ", #cond, " — ",  \
                                  msg);                                 \
    } while (0)

} // namespace util
} // namespace pliant

#endif // PLIANT_UTIL_LOGGING_HH
