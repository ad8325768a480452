#include "core/monitor.hh"

#include <algorithm>

namespace pliant {
namespace core {

PerformanceMonitor::PerformanceMonitor(std::size_t sample_budget,
                                       std::uint64_t seed)
    : budget(std::max<std::size_t>(sample_budget, 16)), rng(seed)
{
    window.reserve(budget);
}

void
PerformanceMonitor::observe(std::span<const double> latencies_us,
                            bool steady_state)
{
    const std::size_t n = latencies_us.size();
    // The window holds min(windowOffered, budget) samples, so the
    // head of the batch appends into the reserved window and only
    // the tail past the budget draws reservoir indices — the same
    // draws, in the same order, as feeding one sample at a time.
    const std::size_t fill = std::min(n, budget - window.size());
    window.insert(window.end(), latencies_us.begin(),
                  latencies_us.begin() + fill);
    windowOffered += fill;
    for (std::size_t i = fill; i < n; ++i) {
        // Reservoir replacement keeps the window a uniform sample of
        // the interval's traffic.
        const std::uint64_t j = rng.uniformInt(++windowOffered);
        if (j < budget)
            window[static_cast<std::size_t>(j)] = latencies_us[i];
    }
    // The two sketches are independent, so one pass feeds both and
    // their dependency chains overlap.
    if (steady_state) {
        for (double l : latencies_us) {
            longRun.add(l);
            steady.add(l);
        }
    } else {
        for (double l : latencies_us)
            longRun.add(l);
    }
}

IntervalReport
PerformanceMonitor::closeInterval()
{
    // The window dies with the interval, so select p99 in place: a
    // min/max pass, a bucket histogram and one compaction leave
    // nth_element only the bucket that holds the p99 rank. The value
    // is bit-identical to sorting the window and interpolating
    // between closest ranks, and 0 for an empty window.
    static constexpr double kP99[] = {99.0};
    IntervalReport rep;
    util::selectPercentiles(window, kP99, {&rep.p99Us, 1});
    window.clear();
    windowOffered = 0;
    return rep;
}

} // namespace core
} // namespace pliant
