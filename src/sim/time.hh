/**
 * @file
 * Simulation time types. All simulated time is integer microseconds,
 * which is fine-grained enough for memcached-scale tail latencies
 * (QoS = 200 us) and coarse enough to avoid overflow over hours.
 */

#ifndef PLIANT_SIM_TIME_HH
#define PLIANT_SIM_TIME_HH

#include <cstdint>

namespace pliant {
namespace sim {

/** Simulated time in microseconds. */
using Time = std::int64_t;

constexpr Time kMicrosecond = 1;
constexpr Time kMillisecond = 1000;
constexpr Time kSecond = 1000 * 1000;

/** Convert seconds (double) to simulated Time. */
constexpr Time
fromSeconds(double s)
{
    return static_cast<Time>(s * static_cast<double>(kSecond));
}

/** Convert simulated Time to seconds. */
constexpr double
toSeconds(Time t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

} // namespace sim
} // namespace pliant

#endif // PLIANT_SIM_TIME_HH
