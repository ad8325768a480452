/**
 * @file
 * Request-level admission control and asynchronous batching for the
 * interactive services — the front-end lever the Pliant runtime does
 * not have: instead of degrading the *batch apps* (approximation,
 * core reclamation), a datacenter front-end can shape the *request
 * stream itself* by queueing, batching, and shedding load.
 *
 * Each latency-critical tenant gets one AdmissionQueue sitting
 * between its deterministic load scenario and the service model:
 *
 *   scenario load ──jitter──▶ [admission policy] ──▶ queue
 *                                   │ shed              │
 *                                   ▼                   ▼ batching
 *                                dropped          dispatch ≤ capacity
 *                                                       │
 *                                                       ▼
 *                                             InteractiveService
 *
 * Arrivals are fluid (requests per tick) driven by the scenario's
 * mean load with deterministic SplitMix64 inter-arrival jitter, so
 * runs stay byte-identical at any sweep thread count. Dispatch is
 * capped at the service's *current* estimated capacity (cores and
 * interference-inflation aware), which moves overload out of the
 * service's implicit backlog into this explicit queue where the
 * policies can act on it. The queueing delay each dispatched request
 * experienced composes with the interference-inflated service time
 * to produce the end-to-end tail latency the monitors see.
 *
 * Batching policies (how dispatch is grouped):
 *  - None:     every request dispatches individually.
 *  - Fixed:    requests wait to form batches of `batchSize`; the
 *              per-request service demand amortizes with batch size
 *              but formation wait is paid even at low load.
 *  - Adaptive: timeout-bounded batches whose size follows the
 *              arrival rate, trading a bounded formation wait for
 *              most of the amortization.
 *
 * Admission policies (what gets shed):
 *  - AcceptAll: unbounded queue, nothing shed — the baseline that
 *               shows why shedding matters under overload.
 *  - DropTail:  finite queue; arrivals beyond the bound are dropped.
 *  - ProbabilisticShed: above a fill threshold, each arrival is shed
 *               with a probability that grows linearly with the fill
 *               (fluid-limit deterministic fraction).
 *  - QosShed:   consults the node runtime's per-service relief
 *               predictions: shed only the overload that even the
 *               deepest approximation is predicted to leave above
 *               QoS, so shedding and approximation coordinate
 *               instead of double-actuating on the same violation.
 */

#ifndef PLIANT_ADMISSION_ADMISSION_HH
#define PLIANT_ADMISSION_ADMISSION_HH

#include <cstdint>

#include "sim/time.hh"

namespace pliant {
namespace admission {

/** How dispatched requests are grouped. */
enum class BatchingKind { None, Fixed, Adaptive };

/** What gets shed at the front door. */
enum class AdmissionKind { AcceptAll, DropTail, ProbabilisticShed,
                           QosShed };

/**
 * QosShed: cap on the deliberately-shed arrival fraction when no
 * budget slice is installed (see AdmissionQueue::setShedCap).
 */
inline constexpr double kMaxShedFraction = 0.5;

/** Adaptive batching: batch size cap (requests). */
inline constexpr int kMaxBatchSize = 64;

/** Configuration of one tenant's admission front-end. */
struct AdmissionConfig
{
    /**
     * Master switch. When false the engine does not construct any
     * queue and executes exactly the pre-admission code path —
     * disabled runs are byte-identical to an engine without this
     * subsystem (pinned by regression tests).
     */
    bool enabled = false;

    AdmissionKind policy = AdmissionKind::AcceptAll;
    BatchingKind batching = BatchingKind::None;

    /**
     * Queue bound expressed as a multiple of the service's QoS
     * target: the queue may hold up to `queueBoundQos * qosUs` worth
     * of work at saturation throughput. A full queue therefore costs
     * a dispatched request about queueBoundQos times its QoS in
     * added delay — deep enough to ride out a burst, shallow enough
     * that bounded policies act before the tail is hopeless.
     * Ignored by AcceptAll (its queue is unbounded).
     */
    double queueBoundQos = 2.0;

    /** Fixed batching: target batch size (requests). */
    int batchSize = 16;

    /**
     * Adaptive batching: formation wait bound, microseconds. The
     * batch size follows the arrival rate up to kMaxBatchSize.
     */
    double batchTimeoutUs = 500.0;
};

/**
 * Validate an (enabled) AdmissionConfig; throws util::FatalError on
 * the first out-of-range field. Called from colo::checkRunConfig,
 * which both colo::checkConfig and cluster::validateClusterConfig
 * run, so invalid admission configs fail at construction, never
 * inside the tick loop.
 */
void validateAdmissionConfig(const AdmissionConfig &cfg);

/** What the queue did over one closed decision interval. */
struct AdmissionStats
{
    double arrivedRequests = 0.0;
    double shedRequests = 0.0;
    double dispatchedRequests = 0.0;

    /** Dispatch-weighted mean queue+batch delay, microseconds. */
    double meanQueueDelayUs = 0.0;

    /** Dispatch-weighted mean effective batch size (1 = no batching). */
    double meanBatchSize = 1.0;

    /** Queue depth (requests) when the interval closed. */
    double queueDepthRequests = 0.0;

    /** Shed / arrived over the interval (0 when nothing arrived). */
    double
    shedFraction() const
    {
        return arrivedRequests > 0.0 ? shedRequests / arrivedRequests
                                     : 0.0;
    }
};

/** Per-tick outcome handed back to the engine. */
struct AdmissionOutcome
{
    /**
     * Service-time demand dispatched this tick, as a fraction of the
     * service's saturation throughput (batch amortization included).
     * This is the load the InteractiveService is driven with.
     */
    double dispatchedLoad = 0.0;

    /** Queue+batch delay a request dispatched this tick experienced. */
    double queueDelayUs = 0.0;

    /** Fraction of this tick's arrivals that were shed. */
    double shedFraction = 0.0;
};

/**
 * One tenant's admission front-end. Fully deterministic given
 * (config, seed): the only stochastic element is the SplitMix64
 * inter-arrival jitter, hashed from (seed, tick index) so state
 * never depends on evaluation order.
 */
class AdmissionQueue
{
  public:
    /**
     * @param cfg validated admission config (enabled).
     * @param saturation_qps the tenant's saturation throughput.
     * @param qos_us the tenant's QoS target (sizes the queue bound).
     * @param seed jitter stream seed.
     */
    AdmissionQueue(AdmissionConfig cfg, double saturation_qps,
                   double qos_us, std::uint64_t seed);

    /**
     * Advance one tick: generate arrivals from the scenario's mean
     * `offeredLoad` (jittered), apply the admission policy, and
     * dispatch under the batching policy at most
     * `capacityFraction * dispatchHeadroom` of saturation.
     *
     * @param offeredLoad scenario mean load (fraction of saturation).
     * @param capacityFraction the service's current capacity as a
     *        fraction of its fair-allocation, contention-free
     *        capacity: (cores / fairCores) / inflation.
     * @param dt simulation tick length.
     */
    AdmissionOutcome tick(double offeredLoad, double capacityFraction,
                          sim::Time dt);

    /**
     * QoS feedback from the control-loop layer, refreshed at every
     * decision-interval close. QosShed acts on it: `ratio` is the
     * tenant's live p99/QoS ratio and `reliefRatio` the runtime's
     * predicted post-approximation floor for this tenant (negative
     * when the runtime publishes no prediction, e.g. Pliant — the
     * policy then falls back to the live ratio).
     */
    void onQosFeedback(double ratio, double reliefRatio);

    /**
     * Budget hook: cap this tenant's deliberate shed fraction (the
     * node's slice of a cluster-wide shed budget). A non-negative
     * cap *replaces* the kMaxShedFraction clamp — a slice
     * above the local default is a hot node spending entitlement
     * its quiet peers are not using, a slice of 0 disarms deliberate
     * shedding entirely (the drop-tail overflow backstop still
     * applies: a full finite buffer has no choice). Negative (the
     * default) means unlimited, i.e. exactly the pre-budget clamp —
     * byte-identical. Updated at cluster epoch barriers.
     */
    void setShedCap(double cap) { shedCap = cap; }

    /** Close the decision interval: report and reset the window. */
    AdmissionStats closeInterval();

    /** Lifetime totals (for end-of-run summaries). */
    AdmissionStats lifetime() const;

    /** Requests currently waiting. */
    double queueDepthRequests() const { return queueReq; }

    /**
     * Shed-gate observability (the QosShed gate below). The counters
     * are monotone transition counts maintained unconditionally —
     * the obs layer reads them at interval closes to emit gate
     * arm/release trace events and metrics without changing any
     * gate behavior.
     */
    bool gateArmed() const { return qosGate; }
    std::uint64_t gateArms() const { return gateArmCount; }
    std::uint64_t gateReleases() const { return gateReleaseCount; }

    /** Queue bound in requests (infinite for AcceptAll). */
    double queueBoundRequests() const { return boundReq; }

    const AdmissionConfig &config() const { return cfg; }

  private:
    /**
     * Shed fraction of this tick's arrivals under the policy.
     * @param arrivals requests arriving this tick.
     * @param capacity_req requests dispatchable this tick (batch
     *        amortization included).
     * @param dt tick length (advances the QosShed gate's idle time).
     */
    double shedFractionFor(double arrivals, double capacity_req,
                           sim::Time dt);

    AdmissionConfig cfg;
    double satQps;
    double boundReq; ///< queue bound in requests (AcceptAll: inf)
    std::uint64_t seedBase;
    std::uint64_t tickIndex = 0;

    double queueReq = 0.0; ///< requests waiting (fluid)

    // QoS feedback (QosShed), refreshed each decision interval.
    double qosRatio = 0.0;
    double reliefRatio = -1.0;

    /** Budget slice clamp on deliberate shed (< 0: kMaxShedFraction). */
    double shedCap = -1.0;

    /**
     * QosShed gate: armed at a decision-interval close when the
     * tenant is in violation AND the runtime's predicted relief
     * floor says local approximation cannot clear it; disarmed at
     * tick granularity once the queue has been idle (nothing to
     * shed, near-empty buffer) for kGateIdleRelease of simulated
     * time. The gate is sticky because the queue's fill timescale
     * (~0.1 s) is much faster than the feedback interval (~1 s):
     * re-deciding per interval would oscillate between a violated
     * full-queue interval and an over-shed empty one.
     */
    bool qosGate = false;
    sim::Time gateIdle = 0;
    std::uint64_t gateArmCount = 0;     ///< false→true transitions
    std::uint64_t gateReleaseCount = 0; ///< true→false transitions

    /** Weighted-sum accumulator behind AdmissionStats. */
    struct Accum
    {
        double arrived = 0.0;
        double shed = 0.0;
        double dispatched = 0.0;
        double delayWeight = 0.0; ///< sum(delayUs * dispatched)
        double batchWeight = 0.0; ///< sum(batchSize * dispatched)
    };

    AdmissionStats finalizeStats(const Accum &acc) const;

    Accum window;
    Accum total;
};

} // namespace admission
} // namespace pliant

#endif // PLIANT_ADMISSION_ADMISSION_HH
