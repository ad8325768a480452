/**
 * @file
 * Client-side performance monitor.
 *
 * The monitor continuously samples end-to-end request latencies of
 * the interactive service (adaptive sampling keeps the overhead
 * unmeasurable) and, at every decision interval, reports the tail
 * estimate the Pliant runtime acts on.
 */

#ifndef PLIANT_CORE_MONITOR_HH
#define PLIANT_CORE_MONITOR_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hh"
#include "util/stats.hh"

namespace pliant {
namespace core {

/** Tail estimate for one decision interval. */
struct IntervalReport
{
    double p99Us = 0.0;
};

/**
 * Latency monitor with adaptive sampling: when the offered sample
 * volume exceeds the per-interval budget, it keeps a uniform
 * subsample, bounding monitoring cost independent of load.
 */
class PerformanceMonitor
{
  public:
    /**
     * @param sample_budget max retained samples per decision interval
     *        (at least 16), reserved up front. Past it the window
     *        keeps a uniform reservoir subsample. The engine passes
     *        min(4096, ceil(interval / tick) * kMaxSamplesPerTick),
     *        the most an interval can offer capped at 4096. Below the
     *        cap the reservoir never runs; at it (the paper's 10 ms
     *        tick and 1 s interval) memcached and nginx intervals
     *        offer more and the reservoir subsamples. Either way the
     *        window holds exactly what a 4096 window would, at a
     *        fraction of the memory when the interval is few ticks.
     * @param seed stream for the subsampling decisions.
     */
    explicit PerformanceMonitor(std::size_t sample_budget = 4096,
                                std::uint64_t seed = 11);

    /**
     * Feed a batch of measured latencies (microseconds), in order:
     * each one is offered to the interval window and added to the
     * whole-run longRun sketch and, when @p steady_state is set, to
     * the steady-state sketch as well (a run's post-warmup tail).
     * Exactly the same state as feeding the samples one at a time.
     */
    void observe(std::span<const double> latencies_us,
                 bool steady_state = false);

    /** Feed a single latency measurement (not steady-state). */
    void observe(double latency_us) { observe({&latency_us, 1}); }

    /**
     * Close the current decision interval: report the window's p99
     * (0 for an empty window) and reset the window.
     */
    IntervalReport closeInterval();

    /** Samples retained in the open window. */
    std::size_t windowSize() const { return window.size(); }

    /** The retained samples of the open window, in reservoir order. */
    const std::vector<double> &windowSamples() const { return window; }

    /** Long-run p99 across the whole run (survives interval resets). */
    double longRunP99() const { return longRun.value(); }

    /** Whole-run sketch of the samples fed with steady_state set. */
    const util::P2Quantile &steadySketch() const { return steady; }

  private:
    std::size_t budget;
    util::Rng rng;
    std::vector<double> window;
    std::uint64_t windowOffered = 0;
    util::P2Quantile longRun{0.99};
    util::P2Quantile steady{0.99};
};

} // namespace core
} // namespace pliant

#endif // PLIANT_CORE_MONITOR_HH
