#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "approx/profile.hh"
#include "cluster/placement.hh"
#include "colo/engine.hh"
#include "core/monitor.hh"
#include "server/interference.hh"
#include "util/rng.hh"

namespace perfbench {

namespace {

using namespace pliant;
using Clock = std::chrono::steady_clock;

/** Defeats dead-code elimination of probed results. */
volatile double g_sink = 0.0;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median over 5 batches of `calls` calls of fn(i), in ns per call. */
template <typename F>
double
nsPerCall(std::size_t calls, F &&fn)
{
    std::vector<double> batches;
    for (int b = 0; b < 5; ++b) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < calls; ++i)
            fn(i);
        batches.push_back(nsSince(t0) / static_cast<double>(calls));
    }
    return median(batches);
}

/** A node's per-tenant fair cores, split the way colo::Engine does. */
int
tenantCores(const Shape &shape)
{
    const int n_apps = static_cast<int>(shape.apps.size());
    const int n_svc = static_cast<int>(shape.tenants.size());
    const int app_fair =
        colo::Engine::fairShare(shape.spec, std::max(n_apps, 1), n_svc);
    return (shape.spec.usableCores() - n_apps * app_fair) / n_svc;
}

std::vector<services::InteractiveService>
makeServices(const Shape &shape)
{
    std::vector<services::InteractiveService> out;
    for (std::size_t i = 0; i < shape.tenants.size(); ++i) {
        services::ServiceConfig scfg =
            services::defaultConfig(shape.tenants[i].kind);
        scfg.fairCores = tenantCores(shape);
        services::WorkloadConfig wl;
        wl.loadFraction = shape.tenants[i].load;
        out.emplace_back(scfg, wl, shape.seed + i);
    }
    return out;
}

/** services.tick_ns, plus the tick's samples for the other probes. */
std::vector<std::vector<double>>
probeServiceTick(const Shape &shape, Layers &out)
{
    std::vector<services::InteractiveService> svcs = makeServices(shape);
    services::InteractiveService &svc = svcs.front();
    services::ServiceTickResult buf;
    out["services.tick_ns"] = nsPerCall(2000, [&](std::size_t) {
        svc.tick(shape.tick, 1.15, buf);
        g_sink = g_sink + buf.p99Us;
    });
    // A rotation of real tick sample batches feeds the monitor probe.
    std::vector<std::vector<double>> ticks;
    for (int i = 0; i < 16; ++i) {
        svc.tick(shape.tick, 1.15, buf);
        ticks.push_back(buf.sampleUs);
    }
    return ticks;
}

void
probeLognormal(const Shape &shape, std::size_t per_tick, Layers &out)
{
    util::Rng rng(shape.seed);
    std::vector<double> buf(std::max<std::size_t>(per_tick, 1));
    const double ns = nsPerCall(4000, [&](std::size_t) {
        rng.fillLognormal(buf.data(), buf.size(), 4.6, 0.77);
        g_sink = g_sink + buf[0];
    });
    out["util.lognormal_ns_per_sample"] =
        ns / static_cast<double>(buf.size());
}

void
probeMonitor(const Shape &shape,
             const std::vector<std::vector<double>> &ticks, Layers &out)
{
    core::PerformanceMonitor mon(4096, shape.seed);
    const std::size_t per_interval = static_cast<std::size_t>(
        std::max<sim::Time>(1, shape.interval / shape.tick));
    const std::size_t intervals =
        std::max<std::size_t>(40, 4000 / per_interval);
    std::vector<double> close_us;
    double observe_ns = 0.0;
    std::size_t k = 0;
    for (std::size_t iv = 0; iv < intervals; ++iv) {
        const auto t0 = Clock::now();
        for (std::size_t t = 0; t < per_interval; ++t)
            mon.observe(ticks[k++ % ticks.size()]);
        observe_ns += nsSince(t0);
        const auto t1 = Clock::now();
        const core::IntervalReport rep = mon.closeInterval();
        close_us.push_back(nsSince(t1) / 1e3);
        g_sink = g_sink + rep.p99Us;
    }
    out["core.observe_ns"] =
        observe_ns / static_cast<double>(intervals * per_interval);
    out["core.close_interval_us"] = median(close_us);
}

void
probeContention(const Shape &shape, Layers &out)
{
    const std::vector<services::InteractiveService> svcs =
        makeServices(shape);
    std::vector<approx::PressureVector> peers;
    for (std::size_t i = 1; i < svcs.size(); ++i)
        peers.push_back(svcs[i].currentPressure());
    std::vector<approx::PressureVector> tasks;
    for (const std::string &app : shape.apps)
        tasks.push_back(approx::findProfile(app).precisePressure);
    const approx::PressureVector self = svcs.front().currentPressure();
    const server::InterferenceModel model(shape.spec);
    const server::CachePartition part(shape.spec, 0);
    out["server.contention_multi_ns"] =
        nsPerCall(20000, [&](std::size_t) {
            const server::ContentionBreakdown c = model.contentionMulti(
                self, peers.data(), peers.size(), tasks.data(),
                tasks.size(), part);
            g_sink = g_sink + c.llc;
        });
}

void
probeAdmission(const Shape &shape, Layers &out)
{
    const services::ServiceConfig scfg =
        services::defaultConfig(shape.tenants.front().kind);
    admission::AdmissionQueue q(shape.admission, scfg.saturationQps,
                                scfg.qosUs, shape.seed);
    const std::size_t per_interval = static_cast<std::size_t>(
        std::max<sim::Time>(1, shape.interval / shape.tick));
    // A load ramp through overload, so the shed paths run too.
    out["admission.tick_ns"] = nsPerCall(4000, [&](std::size_t i) {
        const double load = 0.5 + 0.7 * static_cast<double>(i) / 4000.0;
        const admission::AdmissionOutcome o =
            q.tick(load, 1.0, shape.tick);
        g_sink = g_sink + o.dispatchedLoad;
        if ((i + 1) % per_interval == 0) {
            q.closeInterval();
            q.onQosFeedback(load / 0.9, -1.0);
        }
    });
}

void
probeBudget(const Shape &shape, Layers &out)
{
    budget::Controller ctl(shape.budget, shape.nodes);
    util::Rng rng(shape.seed ^ 0xb0d);
    std::vector<budget::NodeDemand> demands(shape.nodes);
    for (std::size_t i = 0; i < shape.nodes; ++i) {
        demands[i].name = "node" + std::to_string(i);
        demands[i].worstRatio = rng.uniform(0.5, 1.4);
        demands[i].qualityInUse = rng.uniform(0.0, 0.05);
        demands[i].qualityHeadroom = rng.uniform(0.0, 0.1);
        demands[i].shedFraction = rng.uniform(0.0, 0.2);
    }
    const std::size_t calls =
        std::max<std::size_t>(20, 20000 / shape.nodes);
    out["budget.allocate_us"] =
        nsPerCall(calls, [&](std::size_t) {
            const std::vector<budget::NodeSlice> s = ctl.allocate(demands);
            g_sink = g_sink + s.front().qualityCap;
        }) /
        1e3;
}

void
probeRebalance(const Shape &shape, const std::vector<std::string> &apps,
               Layers &out)
{
    util::Rng rng(shape.seed ^ 0x9a5);
    std::vector<cluster::NodeStatus> nodes(shape.nodes);
    for (std::size_t i = 0; i < shape.nodes; ++i) {
        cluster::NodeStatus &st = nodes[i];
        st.node = i;
        st.name = "node" + std::to_string(i);
        for (std::size_t s = 0; s < shape.tenants.size(); ++s) {
            core::ServiceReport rep;
            rep.qosUs = 200.0;
            rep.interval.p99Us = 200.0 * rng.uniform(0.5, 1.4);
            rep.name = "svc" + std::to_string(s);
            st.worstRatio = std::max(st.worstRatio, rep.ratio());
            st.services.push_back(rep);
        }
    }
    for (std::size_t a = 0; a < apps.size(); ++a) {
        cluster::AppStatus app;
        app.name = apps[a];
        app.progress = rng.uniform(0.0, 0.8);
        app.remainingWorkSeconds =
            (1.0 - app.progress) *
            approx::findProfile(app.name).nominalExecSeconds;
        nodes[a % shape.nodes].apps.push_back(app);
    }
    for (cluster::NodeStatus &st : nodes)
        st.done = st.apps.empty();
    const std::size_t calls =
        std::max<std::size_t>(20, 20000 / shape.nodes);
    out["cluster.rebalance_us"] = nsPerCall(calls, [&](std::size_t i) {
        // A fresh policy per call: cooldowns would otherwise silence
        // every later call after the first migration.
        cluster::QosAwarePlacement policy;
        const auto moves = policy.rebalance(
            nodes, static_cast<sim::Time>(i + 1) * shape.interval);
        g_sink = g_sink + static_cast<double>(moves.size());
    }) / 1e3;
}

} // namespace

void
runProbes(const Shape &shape, const std::vector<std::string> &all_apps,
          Layers &out)
{
    const std::vector<std::vector<double>> ticks =
        probeServiceTick(shape, out);
    probeLognormal(shape, ticks.front().size(), out);
    probeMonitor(shape, ticks, out);
    probeContention(shape, out);
    probeAdmission(shape, out);
    probeBudget(shape, out);
    probeRebalance(shape, all_apps, out);
}

} // namespace perfbench
