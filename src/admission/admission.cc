#include "admission/admission.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"
#include "util/rng.hh"

namespace pliant {
namespace admission {

namespace {

/**
 * Deterministic uniform in [0, 1) hashed from (seed, tick): the
 * jitter draw for tick i never depends on how the run was chunked or
 * which worker thread executed it.
 */
double
hashU01(std::uint64_t seed, std::uint64_t tick)
{
    util::SplitMix64 sm(seed ^
                        (tick * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL));
    return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

/** Floor arrival rates so wait formulas never divide by ~0. */
constexpr double kMinRatePerSec = 1.0;

/** ProbabilisticShed: queue fill where shedding starts. */
constexpr double kShedThreshold = 0.3;

/** ProbabilisticShed: slope of the shed fraction over the fill. */
constexpr double kShedAggressiveness = 2.0;

/**
 * Fraction of per-request service demand amortized away in the
 * limit of large batches: a full batch of B requests costs
 * (1 - kBatchEfficiency * (1 - 1/B)) of B individual dispatches.
 */
constexpr double kBatchEfficiency = 0.25;

/**
 * Target service utilization: dispatch at most this fraction of the
 * service's current estimated capacity per tick. Tail latency
 * explodes as rho -> 1, so a front-end that wants the service to
 * *meet* its QoS must hold it just under the knee and absorb the
 * excess in its own queue (where shedding and batching can act)
 * rather than in the service's backlog (where nothing can). 0.85
 * leaves enough latency slack under the QoS knee that the Pliant
 * control loop can actually *revert* approximation while a shed
 * policy carries an overload — the coordination the QosShed policy
 * exists for.
 */
constexpr double kDispatchUtilization = 0.85;

/** Relative amplitude of the deterministic arrival jitter. */
constexpr double kArrivalJitter = 0.05;

} // namespace

void
validateAdmissionConfig(const AdmissionConfig &cfg)
{
    if (!cfg.enabled)
        return;
    if (!(cfg.queueBoundQos > 0.0))
        util::fatal("admission queue bound must be positive (got ",
                    cfg.queueBoundQos, " x QoS)");
    if (cfg.batchSize < 1)
        util::fatal("fixed batch size must be at least 1 (got ",
                    cfg.batchSize, ")");
    if (!(cfg.batchTimeoutUs > 0.0))
        util::fatal("adaptive batch timeout must be positive (got ",
                    cfg.batchTimeoutUs, " us)");
}

AdmissionQueue::AdmissionQueue(AdmissionConfig config,
                               double saturation_qps, double qos_us,
                               std::uint64_t seed)
    : cfg(config), satQps(saturation_qps), seedBase(seed)
{
    validateAdmissionConfig(cfg);
    if (!cfg.enabled)
        util::panic("AdmissionQueue constructed from a disabled "
                    "config");
    if (!(satQps > 0.0) || !(qos_us > 0.0))
        util::panic("AdmissionQueue needs positive saturation "
                    "throughput and QoS target");
    boundReq = cfg.policy == AdmissionKind::AcceptAll
        ? std::numeric_limits<double>::infinity()
        : cfg.queueBoundQos * qos_us * 1e-6 * satQps;
}

void
AdmissionQueue::onQosFeedback(double ratio, double relief_ratio)
{
    qosRatio = ratio;
    reliefRatio = relief_ratio;
    if (cfg.policy != AdmissionKind::QosShed)
        return;
    // Arm the gate only when shedding is the right lever: the
    // tenant is in violation AND the predicted post-approximation
    // floor (the live ratio, when no runtime model is published) is
    // still above QoS — otherwise let approximation do its job.
    const double floor = relief_ratio >= 0.0 ? relief_ratio : ratio;
    if (ratio > 1.0 && floor > 1.0) {
        if (!qosGate)
            ++gateArmCount;
        qosGate = true;
        gateIdle = 0;
    }
}

double
AdmissionQueue::shedFractionFor(double arrivals, double capacity_req,
                                sim::Time dt)
{
    switch (cfg.policy) {
    case AdmissionKind::AcceptAll:
    case AdmissionKind::DropTail:
        // DropTail sheds by overflow, not by fraction (see tick()).
        return 0.0;

    case AdmissionKind::ProbabilisticShed: {
        const double fill = queueReq / boundReq;
        if (fill <= kShedThreshold)
            return 0.0;
        const double over = (fill - kShedThreshold) /
                            (1.0 - kShedThreshold);
        const double shed = std::min(1.0, kShedAggressiveness * over);
        // A budget slice caps deliberate shedding here too.
        return shedCap >= 0.0 ? std::min(shed, shedCap) : shed;
    }

    case AdmissionKind::QosShed: {
        // The gate (armed/disarmed around this call) decides
        // WHETHER to shed — only when shedding is the right lever,
        // i.e. the tenant is violating and the runtime's predicted
        // relief floor says approximation cannot clear it. The
        // queue itself decides HOW MUCH: the instantaneous excess
        // over capacity plus a drain share of the standing backlog,
        // so the queueing delay actually leaves the tail instead of
        // merely not growing.
        if (!qosGate)
            return 0.0;
        // Shed the standing queue over ~20 ticks on top of the
        // excess; capped by kMaxShedFraction (never dark the
        // service).
        const double drain = 0.05 * queueReq;
        const double admit_target =
            std::max(0.0, capacity_req - drain);
        const double raw =
            arrivals > 0.0 ? 1.0 - admit_target / arrivals : 0.0;
        // The budget slice, when set, replaces the local clamp: a
        // cluster-funded entitlement may exceed kMaxShedFraction.
        const double clamp_at =
            shedCap >= 0.0 ? std::min(shedCap, 1.0)
                           : kMaxShedFraction;
        const double shed = std::clamp(raw, 0.0, clamp_at);
        // Gate release: once there has been nothing to shed and no
        // meaningful backlog for half a second of simulated time,
        // the overload is over — disarm until the next violated
        // interval re-arms.
        constexpr sim::Time kGateIdleRelease = sim::kSecond / 2;
        const bool idle =
            shed <= 0.0 && queueReq < 0.02 * boundReq;
        gateIdle = idle ? gateIdle + dt : 0;
        if (gateIdle >= kGateIdleRelease) {
            if (qosGate)
                ++gateReleaseCount;
            qosGate = false;
        }
        return shed;
    }
    }
    return 0.0;
}

AdmissionOutcome
AdmissionQueue::tick(double offered_load, double capacity_fraction,
                     sim::Time dt)
{
    const double dt_s = sim::toSeconds(dt);
    const double u = hashU01(seedBase, tickIndex++);
    const double jitter =
        1.0 + kArrivalJitter * (2.0 * u - 1.0);
    const double arrivals =
        std::max(0.0, offered_load) * jitter * satQps * dt_s;

    // --- batching: effective batch size and formation wait ---
    const double arrival_rate =
        std::max(arrivals / dt_s, kMinRatePerSec);
    double batch = 1.0;
    double form_wait_us = 0.0;
    switch (cfg.batching) {
    case BatchingKind::None:
        break;
    case BatchingKind::Fixed:
        batch = static_cast<double>(cfg.batchSize);
        // Mean residence of a request while its batch fills, capped
        // so an idle service does not wait unboundedly.
        form_wait_us = std::min(
            0.5 * (batch - 1.0) / arrival_rate * 1e6, 50e3);
        break;
    case BatchingKind::Adaptive: {
        const double timeout_s = cfg.batchTimeoutUs * 1e-6;
        batch = std::clamp(arrival_rate * timeout_s, 1.0,
                           static_cast<double>(kMaxBatchSize));
        form_wait_us =
            0.5 * std::min(cfg.batchTimeoutUs,
                           batch / arrival_rate * 1e6);
        break;
    }
    }
    // A full batch of B costs this fraction of B single dispatches.
    const double batch_factor =
        1.0 - kBatchEfficiency * (1.0 - 1.0 / batch);

    // --- dispatch budget: hold the service at the utilization
    //     target (batch amortization stretches the request budget) ---
    const double capacity = satQps * dt_s *
                            std::max(capacity_fraction, 0.0) *
                            kDispatchUtilization;
    const double capacity_req = capacity / batch_factor;

    // --- admission: the policy's deliberate shed ---
    double shed =
        arrivals * shedFractionFor(arrivals, capacity_req, dt);
    const double admitted = arrivals - shed;

    // Arrivals stream in *while* the server drains, so within one
    // tick a request only occupies the buffer when it cannot be
    // served immediately: dispatch sees the old backlog plus this
    // tick's admitted arrivals, and only the residual is queued.
    // The drop-tail backstop then drops whatever residual the
    // finite buffer cannot hold (every bounded policy has it; the
    // deliberate policies above act before it binds).
    const double queue_start = queueReq;
    const double inflow = queueReq + admitted;
    const double dispatched = std::min(inflow, capacity_req);
    double residual = inflow - dispatched;
    if (residual > boundReq) {
        shed += residual - boundReq;
        residual = boundReq;
    }
    queueReq = residual;

    // Delay composition (Little's law over the tick): the mean wait
    // of a dispatched request is the mean backlog ahead of it over
    // the service rate, plus the batch formation wait.
    const double service_rate =
        std::max(capacity_req / dt_s, kMinRatePerSec);
    const double delay_us =
        0.5 * (queue_start + queueReq) / service_rate * 1e6 +
        form_wait_us;

    AdmissionOutcome out;
    out.dispatchedLoad = dispatched * batch_factor / (satQps * dt_s);
    out.queueDelayUs = delay_us;
    out.shedFraction = arrivals > 0.0 ? shed / arrivals : 0.0;

    // Window and lifetime accounting (weighted sums until close).
    for (Accum *acc : {&window, &total}) {
        acc->arrived += arrivals;
        acc->shed += shed;
        acc->dispatched += dispatched;
        acc->delayWeight += delay_us * dispatched;
        acc->batchWeight += batch * dispatched;
    }
    return out;
}

AdmissionStats
AdmissionQueue::finalizeStats(const Accum &acc) const
{
    AdmissionStats out;
    out.arrivedRequests = acc.arrived;
    out.shedRequests = acc.shed;
    out.dispatchedRequests = acc.dispatched;
    if (acc.dispatched > 0.0) {
        out.meanQueueDelayUs = acc.delayWeight / acc.dispatched;
        out.meanBatchSize = acc.batchWeight / acc.dispatched;
    }
    out.queueDepthRequests = queueReq;
    return out;
}

AdmissionStats
AdmissionQueue::closeInterval()
{
    const AdmissionStats out = finalizeStats(window);
    window = Accum{};
    return out;
}

AdmissionStats
AdmissionQueue::lifetime() const
{
    return finalizeStats(total);
}

} // namespace admission
} // namespace pliant
