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
PerformanceMonitor::observe(double latency_us)
{
    ++offeredCount;
    ++windowOffered;
    longRun.add(latency_us);
    if (window.size() < budget) {
        window.push_back(latency_us);
        return;
    }
    // Reservoir replacement keeps the window a uniform sample of the
    // interval's traffic.
    const std::uint64_t j = rng.uniformInt(windowOffered);
    if (j < budget)
        window[static_cast<std::size_t>(j)] = latency_us;
}

void
PerformanceMonitor::observe(const std::vector<double> &latencies_us)
{
    for (double l : latencies_us)
        observe(l);
}

IntervalReport
PerformanceMonitor::closeInterval()
{
    IntervalReport rep;
    rep.samples = window.size();
    if (!window.empty()) {
        double sum = 0.0;
        for (double l : window)
            sum += l;
        // The window dies with the interval, so select the two
        // percentiles in place (the sum above is taken before the
        // reorder). Values are bit-identical to sorting the window
        // and reading it with sortedPercentile.
        static constexpr double kPercentiles[] = {50.0, 99.0};
        double q[2];
        util::selectPercentiles(window, kPercentiles, q);
        rep.p50Us = q[0];
        rep.p99Us = q[1];
        rep.meanUs = sum / static_cast<double>(window.size());
    }
    window.clear();
    windowOffered = 0;
    return rep;
}

} // namespace core
} // namespace pliant
