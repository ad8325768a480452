/**
 * @file
 * The parallel experiment driver: a fixed-size worker pool plus one
 * indexed fan-out built on it.
 *
 * Colocation experiments, cluster runs and DSE measurements are
 * independent, CPU-bound, and deterministic given their
 * configuration, so the driver fans them out across a small pool of
 * workers. The pool is deliberately minimal: submit closures, then
 * wait() for the barrier. Reproducibility comes from runIndexed():
 * each task writes only the slot of its own index, and failures are
 * reported by index, so which worker picks a task up never shows in
 * the results. Each experiment is seeded by its own config, never by
 * the driver.
 */

#ifndef PLIANT_DRIVER_POOL_HH
#define PLIANT_DRIVER_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pliant {
namespace driver {

/**
 * A fixed pool of worker threads draining a FIFO job queue.
 *
 * Exceptions escaping a job are captured; the first one observed is
 * rethrown from the next wait(). (runIndexed() catches per-task
 * exceptions itself to make propagation deterministic by index.)
 */
class Pool
{
  public:
    /**
     * @param threads Worker count, at most 512; 0 picks
     *        defaultThreadCount(). A larger count is a FatalError.
     */
    explicit Pool(unsigned threads = 0);
    ~Pool();

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** Enqueue a job. Never blocks on job execution. */
    void submit(std::function<void()> job);

    /**
     * Queue-depth / job-latency counters, maintained under the pool
     * mutex (one extra integer bump per submit, one clock read per
     * job — negligible at pool-job granularity). Queue depths and
     * wall times depend on scheduling, so the obs layer tags every
     * field wall_time.
     */
    struct Stats
    {
        std::uint64_t submitted = 0; ///< jobs enqueued
        std::uint64_t executed = 0;  ///< jobs completed
        std::uint64_t maxQueueDepth = 0;
        double meanQueueDepth = 0.0; ///< depth seen at submit
        double jobWallMeanS = 0.0;
        double jobWallMaxS = 0.0;
    };

    /** Snapshot the counters (callable any time). */
    Stats stats();

    /**
     * Block until every submitted job has finished. Rethrows the
     * first exception captured from a job since the previous wait().
     * The pool stays usable afterwards.
     */
    void wait();

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /**
     * Worker count used when the caller passes 0: the environment
     * variable PLIANT_THREADS if it is exactly an integer in 1..512,
     * else std::thread::hardware_concurrency(), with a floor of 1.
     * Any other PLIANT_THREADS value warns and is ignored.
     */
    static unsigned defaultThreadCount();

  private:
    void workerLoop();

    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable cvJob;  ///< signals workers: job or stop
    std::condition_variable cvIdle; ///< signals wait(): all drained
    std::deque<std::function<void()>> queue;
    std::size_t inFlight = 0; ///< jobs currently executing
    bool stopping = false;
    std::exception_ptr firstError;

    // --- stats, guarded by mtx ---
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    std::uint64_t depthSum = 0;
    std::uint64_t depthMax = 0;
    double jobWallSumS = 0.0;
    double jobWallMaxS = 0.0;
};

/**
 * Run body(i) for every index in [0, n) on `pool` and wait for all
 * of them. `body` must only write state owned by its index. Each
 * index's exception is captured in its own slot; after the barrier
 * the one with the LOWEST index is rethrown, so failure behavior
 * does not depend on the thread count or on scheduling.
 */
template <typename Body>
void
runIndexed(Pool &pool, std::size_t n, Body &&body)
{
    std::vector<std::exception_ptr> errors(n);
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([i, &errors, &body] {
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    pool.wait();
    for (const std::exception_ptr &err : errors)
        if (err)
            std::rethrow_exception(err);
}

/**
 * fn(item) for every item on a temporary pool of `threads` workers
 * (0 = Pool::defaultThreadCount()), results in item order at any
 * thread count. The result type must be default-constructible and
 * move-assignable; exceptions propagate as in runIndexed().
 */
template <typename T, typename Fn>
auto
parallelMap(const std::vector<T> &items, unsigned threads, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, const T &>>
{
    using R = std::invoke_result_t<Fn &, const T &>;
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> packs bits — concurrent per-slot "
                  "writes would race; return int or a wrapper struct "
                  "instead");
    std::vector<R> results(items.size());
    Pool pool(threads);
    runIndexed(pool, items.size(), [&](std::size_t i) {
        results[i] = fn(items[i]);
    });
    return results;
}

} // namespace driver
} // namespace pliant

#endif // PLIANT_DRIVER_POOL_HH
