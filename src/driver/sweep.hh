/**
 * @file
 * Deterministic parallel sweeps for experiments and design-space
 * exploration.
 *
 * A Sweep maps a task function over N task indices using a
 * driver::Pool, with three reproducibility guarantees that hold at
 * ANY thread count (1 worker and 64 workers give identical output):
 *
 *  - results are collected into slot `index`, so the returned vector
 *    is always in task order, never completion order;
 *  - every task receives a seed derived only from (sweep seed, task
 *    index) via SplitMix64 — which worker runs the task is
 *    irrelevant;
 *  - exceptions are captured per task and the one with the LOWEST
 *    task index is rethrown after the barrier, so failure behavior
 *    does not race either.
 *
 * Progress is reported through util::logging (Info level) and row
 * aggregation lands in util::TextTable via table().
 */

#ifndef PLIANT_DRIVER_SWEEP_HH
#define PLIANT_DRIVER_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "driver/pool.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace pliant {
namespace driver {

/** Options shared by every sweep primitive. */
struct SweepOptions
{
    /** Worker threads; 0 picks Pool::defaultThreadCount(). */
    unsigned threads = 0;

    /** Base seed every per-task seed is derived from. */
    std::uint64_t seed = 1;

    /** Report per-task completion through util::inform. */
    bool progress = false;

    /** Tag used in progress messages. */
    std::string label = "sweep";
};

/** Identity of one task inside a sweep. */
struct TaskContext
{
    std::size_t index = 0;

    /**
     * Deterministic per-task seed: depends only on the sweep seed
     * and the task index (see taskSeed()).
     */
    std::uint64_t seed = 0;
};

/**
 * Per-task seed derivation: a SplitMix64 finalization of the base
 * seed xored with a salted task index. Pure function of its inputs —
 * the scheduling of tasks onto workers can never leak into results.
 */
std::uint64_t taskSeed(std::uint64_t base, std::size_t index);

/**
 * A reusable parallel sweep executor. Construct once (spawning the
 * pool), then run any number of map()/forEach()/table() calls.
 */
class Sweep
{
  public:
    explicit Sweep(SweepOptions options = SweepOptions{})
        : opts(std::move(options)), pool(opts.threads)
    {
    }

    const SweepOptions &options() const { return opts; }
    unsigned threadCount() const { return pool.threadCount(); }

    /**
     * Run fn(TaskContext) for indices [0, n) across the pool and
     * return the results in task order. The result type must be
     * default-constructible and move-assignable. If tasks throw, the
     * exception from the lowest task index is rethrown after every
     * task has finished.
     */
    template <typename Fn>
    auto
    map(std::size_t n, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, TaskContext>>
    {
        using R = std::invoke_result_t<Fn &, TaskContext>;
        static_assert(!std::is_void_v<R>,
                      "use forEach() for void task functions");
        static_assert(!std::is_same_v<R, bool>,
                      "std::vector<bool> packs bits — concurrent "
                      "per-slot writes would race; return int or a "
                      "wrapper struct instead");
        std::vector<R> results(n);
        runIndexed(n, [&](const TaskContext &ctx) {
            results[ctx.index] = fn(ctx);
        });
        return results;
    }

    /**
     * map() over an item list: fn(item, TaskContext) per item, results
     * in item order.
     */
    template <typename T, typename Fn>
    auto
    mapItems(const std::vector<T> &items, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, const T &,
                                            TaskContext>>
    {
        return map(items.size(), [&](const TaskContext &ctx) {
            return fn(items[ctx.index], ctx);
        });
    }

    /** Side-effect-only variant of map(). */
    template <typename Fn>
    void
    forEach(std::size_t n, Fn &&fn)
    {
        runIndexed(n, [&](const TaskContext &ctx) { fn(ctx); });
    }

    /**
     * Aggregate a sweep into a util::TextTable: fn(TaskContext) must
     * return one row (std::vector<std::string>) matching the header
     * arity. Rows land in task order.
     */
    template <typename Fn>
    util::TextTable
    table(std::vector<std::string> header, std::size_t n, Fn &&fn)
    {
        auto rows = map(n, std::forward<Fn>(fn));
        util::TextTable t(std::move(header));
        for (auto &row : rows)
            t.addRow(std::move(row));
        return t;
    }

  private:
    /**
     * Shared driver: submit one job per index, barrier, then rethrow
     * the lowest-index captured exception. `body` must only write to
     * state owned by its task index.
     */
    template <typename Body>
    void
    runIndexed(std::size_t n, Body &&body)
    {
        if (n == 0)
            return;
        std::vector<std::exception_ptr> errors(n);
        std::atomic<std::size_t> completed{0};
        for (std::size_t i = 0; i < n; ++i) {
            pool.submit([this, i, n, &errors, &completed, &body] {
                const TaskContext ctx{i, taskSeed(opts.seed, i)};
                try {
                    body(ctx);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
                const std::size_t done =
                    completed.fetch_add(1, std::memory_order_relaxed) +
                    1;
                if (opts.progress)
                    util::inform(opts.label, ": task ", i, " done (",
                                 done, "/", n, ")");
            });
        }
        pool.wait();
        for (std::size_t i = 0; i < n; ++i)
            if (errors[i])
                std::rethrow_exception(errors[i]);
    }

    SweepOptions opts;
    Pool pool;
};

/**
 * One-shot convenience: run a single map() on a temporary Sweep.
 */
template <typename Fn>
auto
sweepMap(std::size_t n, Fn &&fn,
         const SweepOptions &opts = SweepOptions{})
    -> std::vector<std::invoke_result_t<Fn &, TaskContext>>
{
    Sweep sweep(opts);
    return sweep.map(n, std::forward<Fn>(fn));
}

} // namespace driver
} // namespace pliant

#endif // PLIANT_DRIVER_SWEEP_HH
