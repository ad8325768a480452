/**
 * @file
 * Interactive latency-critical service models: memcached, NGINX, and
 * MongoDB.
 *
 * Each service is modeled as an M/G/k-style queueing system whose
 * service time inflates under shared-resource contention. Per
 * simulation tick the model produces a batch of sampled request
 * latencies (the adaptive client-side sampling the paper's monitor
 * performs) whose distribution matches the analytic tail estimate:
 *
 *   rho   = load * (fairCores / cores) * inflation
 *   q     = rho^a / (1 - min(rho, 0.98)),  a = sqrt(2 (k + 1))
 *   p99   = (A + B q) * noise + backlog term
 *
 * A is the service's contention-free tail floor and B scales the
 * queueing contribution; overload (rho > 1) accumulates a bounded
 * backlog that produces the transient latency spikes visible in the
 * paper's Fig. 4 timelines.
 *
 * A tick runs in two halves so that a node can draw all of its
 * tenants' normals in one Rng::normalBatches() call: prepareTick()
 * advances the load and backlog and returns the tick's PendingTick,
 * which says how many normals it needs, and finishTick() turns that
 * pending tick and its normals into the noisy tail and the latency
 * samples. Every normal is an exact Box-Muller draw from the
 * service's own stream. tick() is the two halves back to back.
 */

#ifndef PLIANT_SERVICES_INTERACTIVE_HH
#define PLIANT_SERVICES_INTERACTIVE_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "approx/variant.hh"
#include "server/interference.hh"
#include "services/workload.hh"
#include "sim/time.hh"
#include "util/rng.hh"

namespace pliant {
namespace services {

/**
 * Most latency samples one tick emits. The engine sizes each
 * tenant's monitor window from it: an interval of k ticks can offer
 * at most k * kMaxSamplesPerTick samples.
 */
constexpr std::size_t kMaxSamplesPerTick = 60;

/**
 * Most standard normals one tick consumes: the measurement-noise
 * normal plus one per latency sample (PendingTick::normals()).
 */
constexpr std::size_t kMaxNormalsPerTick = kMaxSamplesPerTick + 1;

/** The three interactive services the paper evaluates. */
enum class ServiceKind { Nginx, Memcached, MongoDb };

/** Printable name of a service kind (a view of static storage). */
std::string_view serviceNameView(ServiceKind kind);

/** serviceNameView() as an owned string. */
std::string serviceName(ServiceKind kind);

/** Static configuration of one interactive service. */
struct ServiceConfig
{
    ServiceKind kind = ServiceKind::Memcached;
    std::string name = "memcached";

    /** Tail-latency QoS target in microseconds (99th percentile). */
    double qosUs = 200.0;

    /** Saturation throughput (QPS) at the fair core allocation. */
    double saturationQps = 600e3;

    /** Contention-free p99 floor, microseconds. */
    double baseTailUs = 100.0;

    /** Queueing-contribution scale, microseconds. */
    double queueScaleUs = 15.0;

    /** Tail exponent parameter a = sqrt(2 (k+1)) uses fair cores. */
    int fairCores = 8;

    /** Interference sensitivity vector. */
    server::Sensitivity sensitivity;

    /** Pressure the service itself puts on shared resources. */
    approx::PressureVector ownPressure;

    /** p99 / p50 dispersion of the per-request latency samples. */
    double tailToMedian = 6.0;

    /** Weight converting backlog seconds to extra tail microseconds. */
    double backlogToUs = 4.0e5;

    /** Maximum backlog the open-loop clients sustain, in seconds. */
    double maxBacklogSec = 0.5;
};

/** Default configuration for each of the three services. */
ServiceConfig defaultConfig(ServiceKind kind);

/** Result of one simulation tick of the service. */
struct ServiceTickResult
{
    double offeredLoad = 0.0; ///< load fraction this tick
    double rho = 0.0;         ///< effective utilization
    double inflation = 1.0;   ///< service-time inflation applied
    double p99Us = 0.0;       ///< analytic tail estimate this tick
    std::vector<double> sampleUs; ///< sampled request latencies
};

/**
 * What prepareTick() hands finishTick(): the tick's load, its
 * analytic tail before the measurement noise, and its sample count.
 */
struct PendingTick
{
    double offeredLoad = 0.0;
    double rho = 0.0;
    double inflation = 1.0;
    double p99Us = 0.0; ///< before the measurement noise
    std::size_t samples = 0;

    /** Normals the tick consumes: the noise normal, one per sample. */
    std::size_t normals() const { return 1 + samples; }
};

/**
 * An interactive service instance bound to a workload generator.
 */
class InteractiveService
{
  public:
    InteractiveService(ServiceConfig cfg, WorkloadConfig wl,
                       std::uint64_t seed);

    const ServiceConfig &config() const { return cfg; }
    const std::string &name() const { return cfg.name; }
    double qosUs() const { return cfg.qosUs; }

    int cores() const { return coreCount; }
    void setCores(int cores);

    /**
     * Advance one tick under the given service-time inflation factor
     * (computed by the InterferenceModel from co-runner pressure):
     * prepareTick(), the normals drawn from sampleRng() by
     * normalBatch(), then finishTick().
     */
    ServiceTickResult tick(sim::Time dt, double inflation);

    /**
     * Allocation-free variant for hot loops: fills `out` in place,
     * reusing its sampleUs capacity across ticks.
     */
    void tick(sim::Time dt, double inflation, ServiceTickResult &out);

    /**
     * First half of a tick: advance the offered load and the backlog
     * and fix the tick's analytic tail before noise. The returned
     * tick consumes pending.normals() standard normals from
     * sampleRng() (at most kMaxNormalsPerTick).
     */
    PendingTick prepareTick(sim::Time dt, double inflation);

    /**
     * Second half of a tick: fill `out` from `pending` and the
     * pending.normals() normals drawn for it, in stream order. Reads
     * only those and the service's fixed configuration.
     */
    void finishTick(const PendingTick &pending, const double *normals,
                    ServiceTickResult &out) const;

    /** The stream a tick's normals come from. */
    util::Rng &sampleRng() { return rng; }

    /** Re-target the workload's mean offered-load fraction. */
    void setBaseLoad(double load) { workload.setBaseLoad(load); }

    /** Pressure the service exerts on shared resources right now. */
    approx::PressureVector currentPressure() const;

  private:
    ServiceConfig cfg;
    WorkloadGenerator workload;
    util::Rng rng;
    int coreCount;
    double backlogSec = 0.0;

    /**
     * Per-tick constants hoisted out of the sample loop (computed
     * once in the constructor with the exact expressions the loop
     * used inline, so every sampled value stays bit-identical):
     * the lognormal sigma of the per-request latency samples, and
     * the (mu, sd) pair behind the tick's measurement-noise factor
     * lognormalMeanCv(1.0, 0.03).
     */
    double sampleSigma = 0.0;
    double noiseMu = 0.0;
    double noiseSd = 0.0;
};

} // namespace services
} // namespace pliant

#endif // PLIANT_SERVICES_INTERACTIVE_HH
