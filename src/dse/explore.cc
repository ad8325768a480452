#include "dse/explore.hh"

#include <algorithm>

#include "driver/pool.hh"
#include "util/logging.hh"

namespace pliant {
namespace dse {

ExploreResult
exploreKernel(kernels::ApproxKernel &kernel, const ExploreOptions &opts)
{
    if (opts.repetitions < 1)
        util::fatal("exploration needs at least one repetition");

    ExploreResult result;
    result.app = kernel.name();

    auto medianRun = [&](const kernels::Knobs &knobs) {
        std::vector<double> times;
        kernels::KernelResult last;
        for (int r = 0; r < opts.repetitions; ++r) {
            last = kernel.run(knobs);
            times.push_back(last.elapsedMs);
        }
        std::sort(times.begin(), times.end());
        last.elapsedMs = times[times.size() / 2];
        return last;
    };

    // Warm the reference and measure the precise baseline.
    const kernels::KernelResult precise = medianRun(kernels::Knobs{});
    result.preciseMs = std::max(precise.elapsedMs, 1e-6);

    for (const kernels::Knobs &knobs : kernel.knobSpace()) {
        DsePoint pt;
        pt.knobs = knobs;
        if (knobs.isPrecise()) {
            pt.timeNorm = 1.0;
            pt.inaccuracy = 0.0;
        } else {
            const kernels::KernelResult r = medianRun(knobs);
            pt.timeNorm = r.elapsedMs / result.preciseMs;
            pt.inaccuracy = r.inaccuracy;
        }
        result.points.push_back(pt);
    }

    result.selectedOrder =
        paretoSelect(result.points, opts.inaccuracyBudget);
    for (std::size_t idx : result.selectedOrder)
        result.points[idx].selected = true;
    return result;
}

std::vector<ExploreResult>
exploreRegistry(const ExploreOptions &opts, unsigned threads)
{
    const auto &registry = kernels::kernelRegistry();
    util::inform("dse: exploring ", registry.size(), " kernels");
    return driver::parallelMap(
        registry, threads, [&](const kernels::KernelEntry &entry) {
            // Every kernel gets the dataset a serial
            // `entry.make(seed)` loop would build, so batching never
            // changes the figures.
            auto kernel = entry.make(opts.seed);
            return exploreKernel(*kernel, opts);
        });
}

std::vector<std::size_t>
paretoSelect(const std::vector<DsePoint> &points, double budget)
{
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].knobs.isPrecise())
            continue;
        if (points[i].inaccuracy <= budget)
            candidates.push_back(i);
    }

    std::vector<std::size_t> selected;
    for (std::size_t i : candidates) {
        bool dominated = false;
        for (std::size_t j : candidates) {
            if (i == j)
                continue;
            const bool le_time = points[j].timeNorm <= points[i].timeNorm;
            const bool le_inacc =
                points[j].inaccuracy <= points[i].inaccuracy;
            const bool strict =
                points[j].timeNorm < points[i].timeNorm ||
                points[j].inaccuracy < points[i].inaccuracy;
            if (le_time && le_inacc && strict) {
                dominated = true;
                break;
            }
            // Exact ties: keep only the first of the tie group.
            if (!strict && le_time && le_inacc && j < i) {
                dominated = true;
                break;
            }
        }
        // A variant that is not faster than precise is never useful.
        if (!dominated && points[i].timeNorm < 1.0)
            selected.push_back(i);
    }

    std::sort(selected.begin(), selected.end(),
              [&](std::size_t a, std::size_t b) {
                  if (points[a].inaccuracy != points[b].inaccuracy)
                      return points[a].inaccuracy < points[b].inaccuracy;
                  return points[a].timeNorm < points[b].timeNorm;
              });
    return selected;
}

std::vector<approx::ApproxVariant>
toVariants(const ExploreResult &result)
{
    std::vector<approx::ApproxVariant> out;
    approx::ApproxVariant precise;
    precise.index = 0;
    precise.label = "precise";
    out.push_back(precise);

    int idx = 1;
    double floor_inacc = 0.0;
    for (std::size_t p : result.selectedOrder) {
        const DsePoint &pt = result.points[p];
        approx::ApproxVariant v;
        v.index = idx++;
        v.label = pt.knobs.describe();
        v.execTimeNorm = std::min(pt.timeNorm, 1.0);
        // Enforce the monotone ordering the runtime relies on.
        floor_inacc = std::max(floor_inacc, pt.inaccuracy);
        v.inaccuracy = floor_inacc;
        // Pressure heuristic: executing a 1-t fraction less work
        // moves proportionally fewer bytes; cap the relief at 70%.
        const double relief = std::min(0.7, 0.8 * (1.0 - pt.timeNorm));
        v.llcScale = 1.0 - relief;
        v.membwScale = 1.0 - relief;
        v.computeScale = 1.0 - 0.3 * (1.0 - pt.timeNorm);
        out.push_back(v);
    }
    return out;
}

} // namespace dse
} // namespace pliant
