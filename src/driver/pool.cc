#include "driver/pool.hh"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <utility>

#include "util/logging.hh"

namespace pliant {
namespace driver {

namespace {
/**
 * Sanity ceiling on the worker count: far above any useful
 * oversubscription, low enough that a typo'd PLIANT_THREADS cannot
 * exhaust the process thread limit.
 */
constexpr long kMaxThreads = 512;
} // namespace

unsigned
Pool::defaultThreadCount()
{
    if (const char *env = std::getenv("PLIANT_THREADS")) {
        // The whole string must be the integer: "3x", "2.9" or " 5"
        // are junk, not 3, 2 or 5.
        const char *last = env + std::strlen(env);
        long v = 0;
        const auto [end, ec] = std::from_chars(env, last, v);
        if (end == last && ec == std::errc() && v >= 1 && v <= kMaxThreads)
            return static_cast<unsigned>(v);
        util::warn("ignoring PLIANT_THREADS='", env,
                   "' (want an integer in 1..", kMaxThreads, ")");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

Pool::Pool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    if (threads > kMaxThreads)
        util::fatal("pool thread count ", threads, " is above ", kMaxThreads);
    workers.reserve(threads);
    try {
        for (unsigned i = 0; i < threads; ++i)
            workers.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // A failed spawn mid-loop must not leak joinable threads:
        // stop the ones that did start, then surface the error.
        {
            std::lock_guard<std::mutex> lock(mtx);
            stopping = true;
        }
        cvJob.notify_all();
        for (auto &w : workers)
            w.join();
        throw;
    }
}

Pool::~Pool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    cvJob.notify_all();
    for (auto &w : workers)
        w.join();
}

void
Pool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (stopping)
            util::panic("Pool::submit on a stopping pool");
        queue.push_back(std::move(job));
        ++submitted;
        const std::uint64_t depth = queue.size();
        depthSum += depth;
        if (depth > depthMax)
            depthMax = depth;
    }
    cvJob.notify_one();
}

void
Pool::wait()
{
    std::unique_lock<std::mutex> lock(mtx);
    cvIdle.wait(lock,
                [this] { return queue.empty() && inFlight == 0; });
    if (firstError) {
        std::exception_ptr err = firstError;
        firstError = nullptr;
        std::rethrow_exception(err);
    }
}

Pool::Stats
Pool::stats()
{
    std::lock_guard<std::mutex> lock(mtx);
    Stats s;
    s.submitted = submitted;
    s.executed = executed;
    s.maxQueueDepth = depthMax;
    s.meanQueueDepth =
        submitted ? static_cast<double>(depthSum) /
                        static_cast<double>(submitted)
                  : 0.0;
    s.jobWallMeanS =
        executed ? jobWallSumS / static_cast<double>(executed) : 0.0;
    s.jobWallMaxS = jobWallMaxS;
    return s;
}

void
Pool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mtx);
            cvJob.wait(lock,
                       [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            job = std::move(queue.front());
            queue.pop_front();
            ++inFlight;
        }

        std::exception_ptr err;
        const auto jobStart = std::chrono::steady_clock::now();
        try {
            job();
        } catch (...) {
            err = std::current_exception();
        }
        const double jobWallS =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - jobStart)
                .count();
        // Release the capture before reporting idle: a caller may
        // destroy resources the capture references as soon as wait()
        // returns.
        job = nullptr;

        {
            std::lock_guard<std::mutex> lock(mtx);
            // Give up this worker's reference to the exception before
            // unlocking: once wait() rethrows it the caller may be
            // reading it, and a release after the unlock would be an
            // unordered (and, in libstdc++, uninstrumented) refcount
            // drop that can free it under the reader.
            if (!firstError)
                firstError = std::move(err);
            err = nullptr;
            ++executed;
            jobWallSumS += jobWallS;
            if (jobWallS > jobWallMaxS)
                jobWallMaxS = jobWallS;
            --inFlight;
            if (queue.empty() && inFlight == 0)
                cvIdle.notify_all();
        }
    }
}

} // namespace driver
} // namespace pliant
