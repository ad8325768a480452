#include "services/interactive.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/logging.hh"

namespace pliant {
namespace services {

namespace {

/** Phi^-1(0.99): pins p99/p50 dispersion of the sample lognormal. */
constexpr double kZ99 = 2.3263478740408408;

/** Utilization cap for the steady-state queueing term. */
constexpr double kRhoCap = 0.98;

} // namespace

std::string_view
serviceNameView(ServiceKind kind)
{
    switch (kind) {
    case ServiceKind::Nginx:
        return "nginx";
    case ServiceKind::Memcached:
        return "memcached";
    case ServiceKind::MongoDb:
        return "mongodb";
    }
    return "unknown";
}

std::string
serviceName(ServiceKind kind)
{
    return std::string(serviceNameView(kind));
}

ServiceConfig
defaultConfig(ServiceKind kind)
{
    ServiceConfig c;
    c.kind = kind;
    c.name = serviceName(kind);
    switch (kind) {
    case ServiceKind::Nginx:
        // Front-end webserver serving 1KB static HTML; QoS 10 ms.
        c.qosUs = 10e3;
        c.saturationQps = 700e3;
        c.baseTailUs = 5.5e3;
        c.queueScaleUs = 1.2e3;
        c.sensitivity = {0.14, 0.07, 0.05, 0.14};
        c.ownPressure = {0.85, 10.0, 12.0, 8.0};
        c.tailToMedian = 5.0;
        c.backlogToUs = 1.5e5;
        c.maxBacklogSec = 0.08;
        break;
    case ServiceKind::Memcached:
        // In-memory KV store, 5M items; QoS 200 us — the strictest
        // target and the most contention-sensitive service.
        c.qosUs = 200.0;
        c.saturationQps = 600e3;
        c.baseTailUs = 102.0;
        c.queueScaleUs = 14.0;
        c.sensitivity = {0.04, 0.04, 0.04, 0.24};
        c.ownPressure = {0.90, 16.0, 18.0, 6.0};
        c.tailToMedian = 7.0;
        c.backlogToUs = 8.0e4;
        c.maxBacklogSec = 0.015;
        break;
    case ServiceKind::MongoDb:
        // Persistent NoSQL store, 178 GB dataset; QoS 100 ms. The
        // I/O-bound service: large latency floor, and the lowest
        // per-channel sensitivity, but a real base colocation cost
        // (page-cache and kernel sharing with any active co-runner).
        c.qosUs = 100e3;
        c.saturationQps = 400.0;
        c.baseTailUs = 62e3;
        c.queueScaleUs = 9e3;
        c.sensitivity = {0.11, 0.05, 0.03, 0.15};
        c.ownPressure = {0.55, 24.0, 8.0, 60.0};
        c.tailToMedian = 3.0;
        c.backlogToUs = 2.0e5;
        c.maxBacklogSec = 0.10;
        break;
    }
    return c;
}

InteractiveService::InteractiveService(ServiceConfig config,
                                       WorkloadConfig wl,
                                       std::uint64_t seed)
    : cfg(std::move(config)), workload(wl, seed ^ 0x10ad),
      rng(seed ^ 0x5e41), coreCount(cfg.fairCores)
{
    if (cfg.fairCores < 1)
        util::fatal("service needs at least one fair core");

    // Hoisted sample-loop constants. The expressions mirror the old
    // in-loop computations exactly (sampleSigma is the former
    // per-tick `sigma`; noiseMu/noiseSd expand lognormalMeanCv's
    // mean = 1.0, cv = 0.03 parameterization, with log(1.0) = 0), so
    // the emitted latencies are bit-identical to the scalar path.
    sampleSigma = std::log(cfg.tailToMedian) / kZ99;
    const double noise_cv = 0.03;
    const double noise_sigma2 = std::log(1.0 + noise_cv * noise_cv);
    noiseMu = std::log(1.0) - 0.5 * noise_sigma2;
    noiseSd = std::sqrt(noise_sigma2);
}

void
InteractiveService::setCores(int cores)
{
    coreCount = std::max(1, cores);
}

ServiceTickResult
InteractiveService::tick(sim::Time dt, double inflation)
{
    ServiceTickResult res;
    tick(dt, inflation, res);
    return res;
}

void
InteractiveService::tick(sim::Time dt, double inflation,
                         ServiceTickResult &res)
{
    const PendingTick pending = prepareTick(dt, inflation);
    double normals[kMaxNormalsPerTick];
    rng.normalBatch(normals, pending.normals());
    finishTick(pending, normals, res);
}

PendingTick
InteractiveService::prepareTick(sim::Time dt, double inflation)
{
    PendingTick pending;
    pending.inflation = std::max(1.0, inflation);
    pending.offeredLoad = workload.tick(dt);

    // Effective utilization: offered load, scaled by how far the
    // current core allocation is from the fair allocation, and by
    // the contention-driven service-time inflation.
    const double core_ratio = static_cast<double>(cfg.fairCores) /
                              static_cast<double>(coreCount);
    const double rho =
        pending.offeredLoad * core_ratio * pending.inflation;
    pending.rho = rho;

    // Backlog dynamics: overload accumulates unserved work which
    // drains once utilization drops below 1 again.
    const double dt_s = sim::toSeconds(dt);
    if (rho > 1.0) {
        backlogSec += (rho - 1.0) * dt_s;
        backlogSec = std::min(backlogSec, cfg.maxBacklogSec);
    } else {
        backlogSec = std::max(0.0, backlogSec - (1.0 - rho) * dt_s);
    }

    // Steady-state tail from the queueing approximation.
    const double a =
        std::sqrt(2.0 * (static_cast<double>(cfg.fairCores) + 1.0));
    const double rho_q = std::min(rho, kRhoCap);
    const double q = std::pow(rho_q, a) / (1.0 - rho_q);
    double p99 = cfg.baseTailUs + cfg.queueScaleUs * q;

    // Transient spike contribution from the backlog.
    p99 += backlogSec * cfg.backlogToUs;
    pending.p99Us = p99;

    const double offered_qps = pending.offeredLoad * cfg.saturationQps;
    pending.samples = static_cast<std::size_t>(std::min(
        static_cast<double>(kMaxSamplesPerTick),
        std::max(8.0, offered_qps * dt_s * 0.01)));
    return pending;
}

void
InteractiveService::finishTick(const PendingTick &pending,
                               const double *normals,
                               ServiceTickResult &res) const
{
    res.offeredLoad = pending.offeredLoad;
    res.rho = pending.rho;
    res.inflation = pending.inflation;

    // Mild measurement/run-to-run noise (the hoisted parameters of
    // lognormalMeanCv(1.0, 0.03); same draw, same arithmetic).
    const double p99 =
        pending.p99Us * std::exp(noiseMu + noiseSd * normals[0]);
    res.p99Us = p99;

    // Emit sampled request latencies whose distribution has the
    // analytic p99: lognormal with p99/p50 = tailToMedian, in the
    // (engine-owned, tick-reused) sample buffer — the arithmetic of
    // Rng::fillLognormal over normals[1..].
    const double mu = std::log(p99) - kZ99 * sampleSigma;
    const std::size_t n = pending.samples;
    // Full-size on first use, so a later tick with more samples (a
    // load excursion) never grows a reused buffer.
    res.sampleUs.reserve(kMaxSamplesPerTick);
    res.sampleUs.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        res.sampleUs[i] = std::exp(mu + sampleSigma * normals[1 + i]);
}

approx::PressureVector
InteractiveService::currentPressure() const
{
    // Pressure scales with offered load (more requests touch more of
    // the working set and move more bytes).
    const double load = std::min(workload.current(), 1.2);
    approx::PressureVector p = cfg.ownPressure;
    p.compute *= load;
    p.membwGbs *= load;
    p.llcMb *= 0.6 + 0.4 * load;
    return p;
}

} // namespace services
} // namespace pliant
