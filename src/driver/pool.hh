/**
 * @file
 * Fixed-size worker-thread pool for the parallel experiment driver.
 *
 * Colocation experiments and DSE measurements are independent,
 * CPU-bound, and deterministic given their configuration, so the
 * driver fans them out across a small pool of workers. The pool is
 * deliberately minimal: submit closures, then wait() for the barrier.
 * Ordering guarantees (and therefore reproducibility) are provided
 * one level up by driver::Sweep, which assigns every task a slot and
 * a seed that depend only on the task index — never on which worker
 * picks it up.
 *
 * Jobs are type-erased into PoolJob, a small-buffer closure holder:
 * captures up to kInlineBytes construct in place inside the queue
 * slot (the sweep and cluster submit paths fit comfortably), so the
 * steady state performs no per-job heap allocation — unlike
 * std::function, whose allocation per submit dominated fine-grained
 * fan-outs. Oversized captures fall back to one heap box; behavior
 * is identical either way. The queue itself is a ring over a
 * capacity-doubling slot vector, so steady-state push/pop never
 * allocates either.
 */

#ifndef PLIANT_DRIVER_POOL_HH
#define PLIANT_DRIVER_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace pliant {
namespace driver {

/**
 * Type-erased move-only closure with small-buffer storage. The
 * std::function replacement for the pool's job queue: no allocation
 * when the capture fits kInlineBytes (and is nothrow-movable), one
 * boxed allocation otherwise.
 */
class PoolJob
{
  public:
    /** Captures at most this many bytes live inline in the queue. */
    static constexpr std::size_t kInlineBytes = 64;

    PoolJob() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, PoolJob>>>
    PoolJob(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "pool jobs are nullary void callables");
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            new (buf) Fn(std::forward<F>(fn));
            ops = &inlineOps<Fn>;
        } else {
            // Oversized or throwing-move capture: box it so the
            // job's own move stays noexcept (a pointer copy).
            *reinterpret_cast<Fn **>(buf) =
                new Fn(std::forward<F>(fn));
            ops = &boxedOps<Fn>;
        }
    }

    PoolJob(PoolJob &&other) noexcept : ops(other.ops)
    {
        if (ops)
            ops->relocate(other.buf, buf);
        other.ops = nullptr;
    }

    PoolJob &
    operator=(PoolJob &&other) noexcept
    {
        if (this != &other) {
            if (ops)
                ops->destroy(buf);
            ops = other.ops;
            if (ops)
                ops->relocate(other.buf, buf);
            other.ops = nullptr;
        }
        return *this;
    }

    PoolJob(const PoolJob &) = delete;
    PoolJob &operator=(const PoolJob &) = delete;

    ~PoolJob()
    {
        if (ops)
            ops->destroy(buf);
    }

    explicit operator bool() const { return ops != nullptr; }

    /** Whether the capture lives inline (exposed for the tests). */
    bool inlined() const { return ops != nullptr && ops->inlined; }

    void operator()() { ops->invoke(buf); }

  private:
    /** Per-capture-type vtable (invoke / relocate / destroy). */
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *) noexcept;
        bool inlined;
    };

    template <typename Fn>
    static const Ops inlineOps;
    template <typename Fn>
    static const Ops boxedOps;

    const Ops *ops = nullptr;
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
};

template <typename Fn>
const PoolJob::Ops PoolJob::inlineOps = {
    [](void *p) { (*static_cast<Fn *>(p))(); },
    [](void *src, void *dst) noexcept {
        Fn *s = static_cast<Fn *>(src);
        new (dst) Fn(std::move(*s));
        s->~Fn();
    },
    [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
    true,
};

template <typename Fn>
const PoolJob::Ops PoolJob::boxedOps = {
    [](void *p) { (**static_cast<Fn **>(p))(); },
    [](void *src, void *dst) noexcept {
        *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
    },
    [](void *p) noexcept { delete *static_cast<Fn **>(p); },
    false,
};

/**
 * A fixed pool of worker threads draining a FIFO job queue.
 *
 * Exceptions escaping a job are captured; the first one observed is
 * rethrown from the next wait(). (driver::Sweep catches per-task
 * exceptions itself to make propagation deterministic by task index.)
 */
class Pool
{
  public:
    /**
     * @param threads Worker count; 0 picks defaultThreadCount().
     */
    explicit Pool(unsigned threads = 0);
    ~Pool();

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** Enqueue a job. Never blocks on job execution. */
    template <typename F>
    void
    submit(F &&job)
    {
        PoolJob erased(std::forward<F>(job));
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (stopping)
                panicStopped();
            queue.push(std::move(erased));
            ++submitted;
            const std::uint64_t depth = queue.size();
            depthSum += depth;
            if (depth > depthMax)
                depthMax = depth;
        }
        cvJob.notify_one();
    }

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
     * variable PLIANT_THREADS if set to a positive integer, else
     * std::thread::hardware_concurrency(), with a floor of 1.
     */
    static unsigned defaultThreadCount();

  private:
    /**
     * FIFO ring over a doubling slot vector: steady-state push/pop
     * moves jobs in and out of existing slots without touching the
     * heap. Externally synchronized by the pool mutex.
     */
    class JobRing
    {
      public:
        bool empty() const { return count == 0; }
        std::size_t size() const { return count; }

        void
        push(PoolJob job)
        {
            if (count == slots.size())
                grow();
            slots[(head + count) % slots.size()] = std::move(job);
            ++count;
        }

        PoolJob
        pop()
        {
            PoolJob job = std::move(slots[head]);
            head = (head + 1) % slots.size();
            --count;
            return job;
        }

      private:
        void grow();

        std::vector<PoolJob> slots;
        std::size_t head = 0;
        std::size_t count = 0;
    };

    void workerLoop();
    [[noreturn]] static void panicStopped();

    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable cvJob;  ///< signals workers: job or stop
    std::condition_variable cvIdle; ///< signals wait(): all drained
    JobRing queue;
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

} // namespace driver
} // namespace pliant

#endif // PLIANT_DRIVER_POOL_HH
