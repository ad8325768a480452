/**
 * @file
 * Open-loop workload generation for the interactive services.
 *
 * The paper drives each service with open-loop client generators at a
 * configured fraction of its saturation throughput. Real traffic is
 * not perfectly flat, and the intermittent QoS violations in Fig. 4
 * come from short demand bursts on top of the steady offered load.
 * This generator models the offered load as a mean-reverting
 * (Ornstein-Uhlenbeck) process around the configured level plus
 * occasional multiplicative bursts.
 */

#ifndef PLIANT_SERVICES_WORKLOAD_HH
#define PLIANT_SERVICES_WORKLOAD_HH

#include <cstdint>

#include "sim/time.hh"
#include "util/rng.hh"

namespace pliant {
namespace services {

/** Configuration of the load process. */
struct WorkloadConfig
{
    /** Target offered load as a fraction of saturation (e.g. 0.78). */
    double loadFraction = 0.78;

    /** Standard deviation of the mean-reverting load noise. */
    double noiseSd = 0.015;

    /** Probability per second of a demand burst starting. */
    double burstRatePerSec = 0.02;

    /** Multiplicative burst height (e.g. 1.10 = +10% load). */
    double burstHeight = 1.10;

    /** Burst duration. */
    sim::Time burstLength = 2 * sim::kSecond;
};

/**
 * Generates the instantaneous offered-load fraction over time.
 */
class WorkloadGenerator
{
  public:
    WorkloadGenerator(WorkloadConfig cfg, std::uint64_t seed);

    /**
     * Advance by dt and return the current offered load as a
     * fraction of saturation throughput (>= 0).
     */
    double tick(sim::Time dt);

    /** Current load fraction without advancing. */
    double current() const { return lastLoad; }

    /**
     * Re-target the mean offered load. The scenario layer
     * (colo::Scenario) calls this every tick so deterministic macro
     * patterns (diurnal cycles, flash crowds, steps) compose with
     * the stochastic noise/burst texture this generator produces.
     */
    void setBaseLoad(double load) { cfg.loadFraction = load; }

    bool inBurst() const { return burstRemaining > 0; }

    const WorkloadConfig &config() const { return cfg; }

  private:
    WorkloadConfig cfg;
    util::Rng rng;
    double noise = 0.0;
    sim::Time burstRemaining = 0;
    double lastLoad;
};

} // namespace services
} // namespace pliant

#endif // PLIANT_SERVICES_WORKLOAD_HH
