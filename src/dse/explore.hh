/**
 * @file
 * Design-space exploration (Section 3 of the paper).
 *
 * Enumerates an application's approximation knob space, measures the
 * execution-time / inaccuracy trade-off of every variant, prunes the
 * space to the pareto-optimal frontier under the tolerable
 * inaccuracy budget (5% by default), and emits the ordered variant
 * list the runtime navigates. Works directly on the real kernels in
 * pliant::kernels; a helper converts the selected points into
 * approx::ApproxVariant records for the colocation testbed.
 */

#ifndef PLIANT_DSE_EXPLORE_HH
#define PLIANT_DSE_EXPLORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "approx/profile.hh"
#include "approx/variant.hh"
#include "kernels/kernel.hh"

namespace pliant {
namespace dse {

/** One measured design-space point. */
struct DsePoint
{
    kernels::Knobs knobs;
    /** Execution time normalized to the precise run. */
    double timeNorm = 1.0;
    double inaccuracy = 0.0;
    bool selected = false; ///< on the pareto frontier & under budget
};

/** Options for the exploration. */
struct ExploreOptions
{
    /** Maximum tolerable output-quality loss (paper: 5%). */
    double inaccuracyBudget = 0.05;

    /** Repetitions per variant; the median time is kept. */
    int repetitions = 3;

    /** Dataset seed every kernel of exploreRegistry() is built from. */
    std::uint64_t seed = 1;
};

/** Full exploration result for one application. */
struct ExploreResult
{
    std::string app;
    double preciseMs = 0.0;
    std::vector<DsePoint> points; ///< includes the precise point first

    /** Indices of selected points, ordered by increasing inaccuracy. */
    std::vector<std::size_t> selectedOrder;
};

/**
 * Run the full exploration for a kernel: execute every knob setting,
 * normalize times, select the pareto frontier under the budget.
 */
ExploreResult exploreKernel(kernels::ApproxKernel &kernel,
                            const ExploreOptions &opts = ExploreOptions{});

/**
 * Explore every kernel in the registry through the parallel
 * experiment driver (driver::parallelMap on `threads` workers, 0 =
 * driver::Pool::defaultThreadCount()): one task per kernel, each
 * constructing its own kernel instance from opts.seed (the same seed
 * a serial loop would use, so a batch equals one-by-one exploration)
 * and running exploreKernel on it. Results come back in registry
 * order at any thread count. Caveat: kernel times are live
 * wall-clock measurements, so concurrent exploration adds contention
 * noise to timeNorm — and Pareto selection depends on it. Inaccuracy
 * values and the knob space are exactly reproducible; for
 * measurement-grade timings and stable selections run with
 * threads = 1 (or PLIANT_THREADS=1).
 */
std::vector<ExploreResult>
exploreRegistry(const ExploreOptions &opts = ExploreOptions{},
                unsigned threads = 0);

/**
 * Pareto selection over measured points: a point is selected iff its
 * inaccuracy is within budget and no other in-budget point has both
 * lower-or-equal time and lower-or-equal inaccuracy (with at least
 * one strict). The precise point is never selected (it is the
 * implicit variant 0). Ties on (time, inaccuracy) keep the first.
 *
 * @return indices into `points`, ordered by increasing inaccuracy.
 */
std::vector<std::size_t> paretoSelect(const std::vector<DsePoint> &points,
                                      double budget);

/**
 * Convert an exploration result into the ordered ApproxVariant list
 * (variant 0 = precise) the colocation testbed and runtime consume.
 * Pressure-relief scales are estimated from the time reduction:
 * running 1/x of the work moves roughly proportionally fewer bytes.
 */
std::vector<approx::ApproxVariant>
toVariants(const ExploreResult &result);

/**
 * Exploration over a catalog profile: regenerates the "blue dot"
 * cloud of raw candidate variants around the profile's pareto curve
 * (for Fig. 1 rendering of apps that have no real kernel here).
 */
std::vector<DsePoint> syntheticCloud(const approx::AppProfile &profile,
                                     std::uint64_t seed,
                                     int extra_points = 24);

} // namespace dse
} // namespace pliant

#endif // PLIANT_DSE_EXPLORE_HH
