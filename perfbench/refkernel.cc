#include "refkernel.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace perfbench {

namespace {

/** xorshift64* mapped to a double in (0, 1]. */
double
nextUnit(std::uint64_t &s)
{
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    const std::uint64_t x = s * 0x2545f4914f6cdd1dULL;
    return (static_cast<double>(x >> 11) + 1.0) * 0x1.0p-53;
}

} // namespace

double
refKernelOnce(std::uint64_t &state)
{
    static thread_local std::vector<double> buf(kRefSamples);
    const double mu = 4.6;
    const double sigma = 0.77;
    for (int i = 0; i < kRefSamples; i += 2) {
        const double r = std::sqrt(-2.0 * std::log(nextUnit(state)));
        const double theta = 6.283185307179586 * nextUnit(state);
        buf[i] = std::exp(mu + sigma * r * std::cos(theta));
        buf[i + 1] = std::exp(mu + sigma * r * std::sin(theta));
    }
    std::sort(buf.begin(), buf.end());
    return buf[static_cast<std::size_t>(0.99 * (kRefSamples - 1))];
}

double
refKernelRate(int reps, double &sink)
{
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        sink += refKernelOnce(state);
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return static_cast<double>(reps) / dt;
}

} // namespace perfbench
