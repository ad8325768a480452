/**
 * @file
 * The benchmark's frozen reference kernel: a fixed amount of
 * tick-loop-shaped work (lognormal sampling plus a p99 pick) built
 * only from this file, so its speed tracks the host CPU and nothing
 * else. run.py divides host-time metrics by its measured rate over
 * the rate recorded in reference.json, which cancels CPU-speed drift
 * between runs.
 *
 * Never change this kernel or its build flags: the recorded rate is
 * only meaningful for exactly this code.
 */

#ifndef PERFBENCH_REFKERNEL_HH
#define PERFBENCH_REFKERNEL_HH

#include <cstdint>

namespace perfbench {

/** Samples per kernel repetition. */
constexpr int kRefSamples = 4096;

/**
 * One repetition: fill kRefSamples lognormals with a private
 * xorshift64* stream and Box-Muller, sort them, return the p99.
 */
double refKernelOnce(std::uint64_t &state);

/**
 * Time `reps` repetitions and return repetitions per second. The
 * checksum of the returned p99s lands in `sink` so the work cannot
 * be optimized away.
 */
double refKernelRate(int reps, double &sink);

} // namespace perfbench

#endif // PERFBENCH_REFKERNEL_HH
