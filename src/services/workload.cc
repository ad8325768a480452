#include "services/workload.hh"

#include <algorithm>
#include <cmath>

namespace pliant {
namespace services {

namespace {

/** Mean-reversion rate (1/s) of the load-noise process. */
constexpr double kReversion = 1.5;

} // namespace

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config,
                                     std::uint64_t seed)
    : cfg(config), rng(seed), lastLoad(config.loadFraction)
{
}

double
WorkloadGenerator::tick(sim::Time dt)
{
    const double dt_s = sim::toSeconds(dt);

    // Ornstein-Uhlenbeck step: dX = -theta X dt + sigma dW.
    const double theta = kReversion;
    const double sigma = cfg.noiseSd * std::sqrt(2.0 * theta);
    noise += -theta * noise * dt_s + sigma * std::sqrt(dt_s) * rng.normal();
    noise = std::clamp(noise, -3.0 * cfg.noiseSd, 3.0 * cfg.noiseSd);

    // Burst process.
    if (burstRemaining > 0) {
        burstRemaining -= dt;
    } else if (rng.coin(cfg.burstRatePerSec * dt_s)) {
        burstRemaining = cfg.burstLength;
    }
    const double burst_mul = burstRemaining > 0 ? cfg.burstHeight : 1.0;

    lastLoad = std::max(0.0, (cfg.loadFraction + noise) * burst_mul);
    return lastLoad;
}

} // namespace services
} // namespace pliant
