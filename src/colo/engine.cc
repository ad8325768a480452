#include "colo/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "approx/profile.hh"
#include "core/learned.hh"
#include "driver/pool.hh"
#include "util/dedup.hh"
#include "util/logging.hh"

namespace pliant {
namespace colo {

namespace {

/** Golden-ratio stream salt so tenant i gets independent seeds. */
std::uint64_t
tenantSalt(std::size_t i)
{
    return static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
}

/**
 * Control-loop warmup: rollups that report steady-state behavior
 * (mean interval p99, budget usage means, typical reclaim) skip
 * intervals at or before this time, falling back to the whole run
 * when nothing lies beyond it.
 */
constexpr sim::Time kWarmup = 5 * sim::kSecond;

/** Largest monitor window a tenant keeps per decision interval. */
constexpr std::size_t kMaxWindowSamples = 4096;

/**
 * Tenants whose normals one Rng::normalBatches() call draws: each
 * gets a kMaxNormalsPerTick slot of a group buffer of at most 512
 * normals (4 KiB, on the stack).
 */
constexpr std::size_t kGroupTenants =
    512 / services::kMaxNormalsPerTick;

/**
 * A tenant monitor's window budget: the most samples one decision
 * interval can offer, capped at kMaxWindowSamples. The close
 * schedule (nextDecision += interval, checked after each tick) puts
 * at most ceil(interval / tick) ticks in one interval, and a tick
 * emits at most kMaxSamplesPerTick samples.
 */
std::size_t
monitorBudget(sim::Time tick, sim::Time interval)
{
    const auto ticks = static_cast<std::size_t>(
        interval / tick + (interval % tick != 0 ? 1 : 0));
    // Capping the tick count first keeps the product from overflowing.
    return std::min(std::min(ticks, kMaxWindowSamples) *
                        services::kMaxSamplesPerTick,
                    kMaxWindowSamples);
}

} // namespace

/**
 * Binds the runtime's abstract actuation to the engine's tasks and
 * services: variant switches forward to the task (modeling the
 * signal -> drwrap_replace path), and core moves re-pin one physical
 * core between a task's container and a service's container. With
 * several services, reclaimed cores flow to the *focus* service (the
 * most QoS-pressured one at the last interval close) and are debited
 * back from whichever service holds granted cores when the runtime
 * reverts.
 */
class Engine::ServerActuator : public core::Actuator
{
  public:
    ServerActuator(std::vector<approx::ApproxTask> &tasks_in,
                   std::vector<Tenant> &tenants_in,
                   server::CachePartition &partition_in)
        : tasks(tasks_in), tenants(tenants_in), part(partition_in),
          granted(tenants_in.size(), 0)
    {
    }

    /** Service that receives newly reclaimed cores. */
    void
    setFocusService(std::size_t s)
    {
        focus = s;
    }

    bool growServicePartition() override { return part.grow(); }
    bool shrinkServicePartition() override { return part.shrink(); }
    int servicePartitionWays() const override
    {
        return part.serviceWays();
    }

    int taskCount() const override
    {
        return static_cast<int>(tasks.size());
    }

    bool taskFinished(int t) const override
    {
        return tasks[idx(t)].finished();
    }

    int variantOf(int t) const override
    {
        return tasks[idx(t)].variantIndex();
    }

    int mostApproxOf(int t) const override
    {
        return tasks[idx(t)].profile().mostApproxIndex();
    }

    void switchVariant(int t, int v) override
    {
        tasks[idx(t)].switchVariant(v);
    }

    bool reclaimCore(int t) override
    {
        if (!tasks[idx(t)].yieldCore())
            return false;
        auto &svc = *tenants[focus].service;
        svc.setCores(svc.cores() + 1);
        ++granted[focus];
        return true;
    }

    bool returnCore(int t) override
    {
        if (!tasks[idx(t)].reclaimCore())
            return false;
        // Debit the focus service first; otherwise any service still
        // holding granted cores (core conservation guarantees one
        // exists whenever a task has cores to take back).
        std::size_t donor = focus;
        if (granted[donor] == 0) {
            for (std::size_t s = 0; s < granted.size(); ++s) {
                if (granted[s] > 0) {
                    donor = s;
                    break;
                }
            }
        }
        auto &svc = *tenants[donor].service;
        svc.setCores(svc.cores() - 1);
        --granted[donor];
        return true;
    }

    int reclaimedFrom(int t) const override
    {
        return tasks[idx(t)].fairCores() - tasks[idx(t)].cores();
    }

    double reliefPotential(int t) const override
    {
        const auto &task = tasks[idx(t)];
        const auto &prof = task.profile();
        const auto &most = prof.variant(prof.mostApproxIndex());
        const auto &cur = prof.variant(task.variantIndex());
        const double llc_drop =
            prof.precisePressure.llcMb * (cur.llcScale - most.llcScale);
        const double bw_drop = prof.precisePressure.membwGbs *
                               (cur.membwScale - most.membwScale);
        return std::max(llc_drop + bw_drop, 0.0);
    }

    double qualityCost(int t) const override
    {
        const auto &prof = tasks[idx(t)].profile();
        const auto &most = prof.variant(prof.mostApproxIndex());
        const auto &cur = prof.variant(tasks[idx(t)].variantIndex());
        return std::max(most.inaccuracy - cur.inaccuracy, 0.0);
    }

    double inaccuracyOf(int t) const override
    {
        const auto &task = tasks[idx(t)];
        return task.profile().variant(task.variantIndex()).inaccuracy;
    }

    double inaccuracyAt(int t, int v) const override
    {
        return tasks[idx(t)].profile().variant(v).inaccuracy;
    }

  private:
    static std::size_t
    idx(int t)
    {
        return static_cast<std::size_t>(t);
    }

    std::vector<approx::ApproxTask> &tasks;
    std::vector<Tenant> &tenants;
    server::CachePartition &part;
    std::vector<int> granted;
    std::size_t focus = 0;
};

int
Engine::fairShare(const server::ServerSpec &spec, int n_apps,
                  int n_services)
{
    return std::max(1, spec.usableCores() / (n_apps + n_services));
}

void
validateCoreSplit(const server::ServerSpec &spec, std::size_t n_apps,
                  std::size_t n_services)
{
    const int apps = static_cast<int>(n_apps);
    const int services = static_cast<int>(n_services);
    const int fair = Engine::fairShare(spec, apps, services);
    const int service_cores = spec.usableCores() - apps * fair;
    if (service_cores < services)
        util::fatal("config leaves ", service_cores,
                    " fair cores for ", services,
                    " interactive service(s): reduce the number of "
                    "colocated apps or services (usable cores: ",
                    spec.usableCores(), ")");
}

void
checkRunConfig(const RunConfig &cfg)
{
    const std::vector<std::string> &apps = cfg.apps;
    const std::vector<int> &variants = cfg.initialVariants;
    const std::size_t dup = util::firstDuplicate(apps);
    if (dup < apps.size())
        util::fatal("duplicate app '", apps[dup],
                    "' in colocation config: each approximate "
                    "application may appear once");
    if (!variants.empty() && variants.size() != apps.size())
        util::fatal("initialVariants has ", variants.size(),
                    " entries for ", apps.size(),
                    " apps: the list must be empty or parallel to "
                    "apps");
    for (std::size_t i = 0; i < apps.size(); ++i) {
        // Unknown names throw here, before any tenant is built.
        const approx::AppProfile &prof = approx::findProfile(apps[i]);
        if (variants.empty())
            continue;
        const int v = variants[i];
        if (v < 0 || v >= static_cast<int>(prof.variants.size()))
            util::fatal("initial variant ", v, " for app '", apps[i],
                        "' is out of range: the catalog "
                        "has variants 0..",
                        prof.mostApproxIndex());
    }

    // A zero tick would spin the loop forever and a non-positive
    // interval would never close a monitoring window: both are
    // construction-time errors, not tick-loop surprises.
    if (cfg.tick <= 0)
        util::fatal("simulation tick must be positive");
    if (cfg.decisionInterval <= 0)
        util::fatal("decision interval must be positive");
    if (cfg.decisionInterval < cfg.tick)
        util::fatal("decision interval (",
                    sim::toSeconds(cfg.decisionInterval),
                    " s) must be at least one simulation tick (",
                    sim::toSeconds(cfg.tick), " s)");
    if (cfg.maxDuration <= 0)
        util::fatal("max duration must be positive");

    // Admission fields are validated only when the front-end is
    // enabled: a disabled config is inert whatever its fields hold,
    // which keeps the disabled config space exactly the pre-admission
    // one.
    admission::validateAdmissionConfig(cfg.admission);
}

void
checkConfig(const ColoConfig &cfg)
{
    const std::vector<ServiceSpec> &specs = cfg.services;
    if (specs.empty())
        util::fatal("colocation config needs at least one interactive "
                    "service");
    checkRunConfig(cfg);

    const std::size_t dup =
        util::firstDuplicate(specs, &ServiceSpec::resolvedName);
    if (dup < specs.size())
        util::fatal("duplicate service '", specs[dup].resolvedName(),
                    "' in colocation config: give same-kind "
                    "tenants distinct instance names");
    for (const ServiceSpec &spec : specs)
        validateScenarioLoads(spec.scenario, spec.resolvedName());

    validateCoreSplit(cfg.spec, cfg.apps.size(), specs.size());
}

std::vector<ServiceSpec>
validateConfig(const ColoConfig &cfg)
{
    checkConfig(cfg);
    return cfg.services;
}

Engine::Engine(ColoConfig config)
    : cfg(std::move(config)), interference(cfg.spec),
      partition(cfg.spec, 0)
{
    checkConfig(cfg);
    const std::vector<ServiceSpec> &specs = cfg.services;

    const int n_apps = static_cast<int>(cfg.apps.size());
    const int n_services = static_cast<int>(specs.size());
    // On an app-less node (cluster placement assigned none) the
    // per-app share is what a single app *would* get — it only
    // matters when a migrant attaches, and without the max() that
    // migrant would inherit usableCores/n_services, i.e. the whole
    // app-side machine.
    appFairCores = fairShare(cfg.spec, std::max(n_apps, 1), n_services);
    const int service_cores =
        cfg.spec.usableCores() - n_apps * appFairCores;

    const int base_cores = service_cores / n_services;
    const int extra = service_cores % n_services;
    tenants.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Tenant t;
        t.scenario = &specs[i].scenario;
        t.fairCores = base_cores + (static_cast<int>(i) < extra ? 1 : 0);

        services::ServiceConfig scfg =
            services::defaultConfig(specs[i].kind);
        scfg.name = specs[i].resolvedName();
        scfg.fairCores = t.fairCores;
        services::WorkloadConfig wl;
        wl.loadFraction = t.scenario->loadAt(0);
        t.service = std::make_unique<services::InteractiveService>(
            scfg, wl, cfg.seed ^ 0x51 ^ tenantSalt(i));
        // monitorBudget is the most samples an interval can offer,
        // capped at 4096. Below the cap the window keeps every
        // sample; at it (the paper's 10 ms tick and 1 s interval,
        // where memcached and nginx offer about 4.7k and 5.5k samples
        // an interval) the window's reservoir subsamples. Either way
        // a 4096 window keeps the same samples, so no output byte
        // depends on the budget. What shrinks is the up-front
        // reservation: 32 KiB -> 480 B per tenant at tick = interval.
        t.monitor = std::make_unique<core::PerformanceMonitor>(
            monitorBudget(cfg.tick, cfg.decisionInterval),
            cfg.seed ^ 0x30 ^ tenantSalt(i));
        if (cfg.admission.enabled)
            t.admission = std::make_unique<admission::AdmissionQueue>(
                cfg.admission, scfg.saturationQps, scfg.qosUs,
                cfg.seed ^ 0xAD ^ tenantSalt(i));
        tenants.push_back(std::move(t));
    }

    // The precise baseline runs natively (no recompilation runtime),
    // so it pays no instrumentation overhead. Every other runtime
    // pays exactly the measured dynrec overhead its profile carries
    // (applied by ApproxTask to execution progress); nothing else
    // adds overhead on top of it.
    std::uint64_t task_seed = cfg.seed ^ 0x7a;
    for (const std::string &name : cfg.apps) {
        approx::AppProfile prof = approx::findProfile(name);
        if (cfg.runtime == core::RuntimeKind::Precise)
            prof.dynrecOverhead = 0.0;
        profiles.push_back(
            std::make_unique<approx::AppProfile>(std::move(prof)));
    }
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        tasks.emplace_back(*profiles[i], appFairCores, task_seed++);
        if (!cfg.initialVariants.empty())
            tasks.back().switchVariant(cfg.initialVariants[i]);
    }

    actuator =
        std::make_unique<ServerActuator>(tasks, tenants, partition);
    if (cfg.runtime == core::RuntimeKind::Pliant) {
        core::RuntimeParams rp;
        rp.arbiter = cfg.arbiter;
        rp.enableCachePartitioning = cfg.enableCachePartitioning;
        runtime = std::make_unique<core::PliantRuntime>(
            *actuator, rp, cfg.seed ^ 0x91);
    } else if (cfg.runtime == core::RuntimeKind::Learned) {
        core::LearnedParams lp;
        lp.vectorConditioned = cfg.learnedVector;
        runtime = std::make_unique<core::LearnedRuntime>(
            *actuator, lp, cfg.seed ^ 0x91);
    } else {
        runtime = std::make_unique<core::PreciseRuntime>();
    }

    // Run state: the tick loop lives across advanceUntil() chunks.
    nextDecision = cfg.decisionInterval;
    maxReclaimed.assign(tasks.size(), 0);
    // A task keeps at least one of its fair cores, so a close's
    // reclaimed total stays below tasks x appFairCores.
    reclaimTotalsPost.reserveValues(
        tasks.size() * static_cast<std::size_t>(appFairCores));

    // Hot-loop buffers, allocated once: at 10 ms ticks a 600 s run is
    // 60k iterations, so per-tick vector churn dominated the old
    // harness's profile.
    taskPressure.resize(tasks.size());
    svcPressure.resize(tenants.size());
    inflationBuf.assign(tenants.size(), 1.0);
    reports.resize(tenants.size());
    svcAccum.resize(tenants.size());

    peerPressure.resize(tenants.size() - 1);
    tickBuf.sampleUs.reserve(services::kMaxSamplesPerTick);
    // Tenant names are fixed for the run; the per-interval fields of
    // each report are overwritten at every interval close.
    for (std::size_t s = 0; s < tenants.size(); ++s)
        reports[s].name = tenants[s].service->name();

    partial.runtime = runtime->name();
    partial.admissionEnabled = cfg.admission.enabled;

    // Observability: register the full fixed metric roster whether or
    // not admission/budget are in play, so every enabled run exports
    // the same metric set and tooling can diff exports structurally.
    // Registration happens here (allocating) and the registry is
    // frozen before the first tick, keeping the warmed loop
    // allocation-free.
    if (cfg.observability.metrics) {
        metrics = std::make_unique<obs::MetricsRegistry>();
        mid.ticks = metrics->counter("engine.ticks");
        mid.intervals = metrics->counter("engine.intervals");
        mid.samples = metrics->counter("engine.samples");
        for (int k = 0; k < 7; ++k)
            mid.decisions[k] = metrics->counter(
                "engine.decision." +
                core::decisionName(
                    static_cast<core::Decision::Kind>(k)));
        mid.actuations = metrics->counter("engine.actuations");
        mid.qosMet = metrics->counter("engine.qos_met_intervals");
        mid.qosViolated =
            metrics->counter("engine.qos_violated_intervals");
        mid.intervalP99Hist = metrics->histogram(
            "engine.interval_p99_us_hist", 10.0, 1.25, 48);
        mid.intervalP99Stat = metrics->stat("engine.interval_p99_us");
        mid.shedFraction = metrics->stat("admission.shed_fraction");
        mid.queueDelay = metrics->stat("admission.queue_delay_us");
        mid.gateArms = metrics->gauge("admission.gate_arms");
        mid.gateReleases = metrics->gauge("admission.gate_releases");
        mid.budgetQuality = metrics->stat("budget.quality_used");
        mid.budgetSlices = metrics->counter("budget.slice_installs");
        mid.phasePrelude = metrics->stat("phase.prelude_wall_s",
                                         obs::Stability::WallTime);
        mid.phaseTenants = metrics->stat("phase.tenants_wall_s",
                                         obs::Stability::WallTime);
        mid.phaseTasks = metrics->stat("phase.tasks_wall_s",
                                       obs::Stability::WallTime);
        mid.phaseInterval = metrics->stat("phase.interval_wall_s",
                                          obs::Stability::WallTime);
        metrics->freeze();
        partial.obsEnabled = true;
    }
    gateWasArmed.assign(tenants.size(), false);
}

void
Engine::setTrace(obs::TraceWriter *writer, int pid)
{
    tracer = writer;
    tracePid = pid;
    if (!tracer)
        return;
    tracer->threadName(tracePid, 0, "decision-intervals");
    tracer->threadName(tracePid, 1, "events");
    if (cfg.observability.traceTickPhases)
        tracer->threadName(tracePid, 2, "tick-phases");
}

void
Engine::recordRoster()
{
    if (!sink)
        return;
    RosterEvent ev;
    ev.t = simTime;
    ev.apps.reserve(profiles.size());
    for (const auto &prof : profiles)
        ev.apps.push_back(prof->name);
    sink->onRoster(ev);
}

void
Engine::setTimelineSink(TimelineSink *new_sink)
{
    sink = new_sink;
    recordRoster();
}

Engine::~Engine() = default;

bool
Engine::appsFinished() const
{
    for (const auto &t : tasks)
        if (!t.finished())
            return false;
    return true;
}

bool
Engine::done() const
{
    return appsFinished() || simTime >= cfg.maxDuration;
}

sim::Time
Engine::now() const
{
    return simTime;
}

const std::string &
Engine::appName(std::size_t i) const
{
    return profiles[i]->name;
}

bool
Engine::appFinished(std::size_t i) const
{
    return tasks[i].finished();
}

double
Engine::appProgress(std::size_t i) const
{
    return tasks[i].progressFraction();
}

ColoResult
Engine::run()
{
    advanceUntil(cfg.maxDuration);
    return finalize();
}

bool
Engine::advanceUntil(sim::Time until, bool keep_services_running)
{
    const sim::Time stop = std::min(until, cfg.maxDuration);
    const sim::Time warmup = kWarmup;

    // An idle-at-entry node (no unfinished apps) only advances in
    // keep-services mode; a node whose apps finish mid-call always
    // stops at that tick, so chunked execution can never add ticks a
    // bare run() would not have executed.
    const bool stop_when_apps_finish =
        !keep_services_running || !appsFinished();

    while (simTime < stop) {
        if (stop_when_apps_finish && appsFinished())
            break;
        const sim::Time tick_start = simTime;

        // Phase wall timers: steady_clock is read only when someone
        // consumes the readings (metrics or opt-in phase spans), so
        // the disabled path executes exactly the pre-obs loop.
        const bool time_phases =
            metrics != nullptr ||
            (tracer && cfg.observability.traceTickPhases);
        std::chrono::steady_clock::time_point tw0, tw1, tw2;
        if (time_phases)
            tw0 = std::chrono::steady_clock::now();

        // 0. Scenario layer: re-target every tenant's mean load.
        //    Tenants with an admission front-end defer: their
        //    service sees the *dispatched* load, computed below once
        //    this tick's capacity estimate (inflation) is known.
        for (auto &ten : tenants) {
            ten.rawLoad = ten.scenario->loadAt(tick_start);
            if (!ten.admission)
                ten.service->setBaseLoad(ten.rawLoad);
        }

        // 1. Sequential prelude: freeze every co-runner pressure
        //    vector. The gather must complete before any tenant's
        //    inflation (a service's co-runners are every approximate
        //    task plus every *other* service), and it must see the
        //    base loads phase 0 just set — after it, the buffers are
        //    read-only for the rest of the tick.
        for (std::size_t i = 0; i < tasks.size(); ++i)
            taskPressure[i] = tasks[i].currentPressure();
        for (std::size_t s = 0; s < tenants.size(); ++s)
            svcPressure[s] = tenants[s].service->currentPressure();

        if (time_phases)
            tw1 = std::chrono::steady_clock::now();

        // 2. Per-tenant phase. For each tenant: contention ->
        //    inflation, the admission front-end (dispatched load
        //    capped at the capacity estimate (cores / fair cores) /
        //    inflation, overload piling up in the explicit queue),
        //    the service tick, and the monitoring side (end-to-end
        //    latency = queue+batch wait at the front door plus the
        //    interference-inflated service time). Tenants go in
        //    groups of kGroupTenants: every tenant of a group
        //    prepares its tick, one normalBatches() call draws all
        //    their normals (each from its own stream, so the values
        //    are those of a tenant-by-tenant loop), then each
        //    finishes in order. The peer-pressure buffer is sized
        //    once and the group (pending ticks, requests, normals)
        //    lives on the stack, so after warmup the whole phase is
        //    heap-allocation-free.
        double normals[kGroupTenants * services::kMaxNormalsPerTick];
        services::PendingTick pending[kGroupTenants];
        util::Rng::NormalRequest group[kGroupTenants];
        for (std::size_t first = 0; first < tenants.size();
             first += kGroupTenants) {
            const std::size_t size =
                std::min(kGroupTenants, tenants.size() - first);
            for (std::size_t g = 0; g < size; ++g) {
                const std::size_t s = first + g;
                auto &ten = tenants[s];
                std::size_t k = 0;
                for (std::size_t o = 0; o < tenants.size(); ++o)
                    if (o != s)
                        peerPressure[k++] = svcPressure[o];
                const auto contention = interference.contentionMulti(
                    svcPressure[s], peerPressure, taskPressure,
                    partition);
                inflationBuf[s] = interference.inflation(
                    contention, ten.service->config().sensitivity);

                if (ten.admission) {
                    const double capacity =
                        static_cast<double>(ten.service->cores()) /
                        static_cast<double>(ten.fairCores) /
                        inflationBuf[s];
                    ten.admOut = ten.admission->tick(
                        ten.rawLoad, capacity, cfg.tick);
                    ten.service->setBaseLoad(ten.admOut.dispatchedLoad);
                }

                pending[g] =
                    ten.service->prepareTick(cfg.tick, inflationBuf[s]);
                group[g] = {&ten.service->sampleRng(),
                            normals + g * services::kMaxNormalsPerTick,
                            pending[g].normals()};
            }
            util::Rng::normalBatches(std::span(group, size));
            for (std::size_t g = 0; g < size; ++g) {
                auto &ten = tenants[first + g];
                ten.service->finishTick(pending[g], group[g].dst,
                                        tickBuf);
                if (ten.admission)
                    for (double &sample : tickBuf.sampleUs)
                        sample += ten.admOut.queueDelayUs;
                ten.monitor->observe(tickBuf.sampleUs,
                                     tick_start >= warmup);
                ten.lastLoad = tickBuf.offeredLoad;
                if (metrics)
                    metrics->add(mid.samples, tickBuf.sampleUs.size());
            }
        }

        if (time_phases)
            tw2 = std::chrono::steady_clock::now();

        for (auto &t : tasks)
            t.tick(cfg.tick);

        if (time_phases) {
            const auto tw3 = std::chrono::steady_clock::now();
            const double prelude_s =
                std::chrono::duration<double>(tw1 - tw0).count();
            const double tenants_s =
                std::chrono::duration<double>(tw2 - tw1).count();
            const double tasks_s =
                std::chrono::duration<double>(tw3 - tw2).count();
            if (metrics) {
                metrics->add(mid.ticks);
                metrics->record(mid.phasePrelude, prelude_s);
                metrics->record(mid.phaseTenants, tenants_s);
                metrics->record(mid.phaseTasks, tasks_s);
            }
            // Phase spans carry simulated timestamps (B and E at the
            // tick's simulated time) with the measured wall time in
            // args, so the trace layout stays deterministic.
            if (tracer && cfg.observability.traceTickPhases) {
                tracer->begin(tracePid, 2, "tick.prelude",
                              tick_start, prelude_s * 1e6);
                tracer->end(tracePid, 2, "tick.prelude", tick_start);
                tracer->begin(tracePid, 2, "tick.tenants",
                              tick_start, tenants_s * 1e6);
                tracer->end(tracePid, 2, "tick.tenants", tick_start);
                tracer->begin(tracePid, 2, "tick.tasks", tick_start,
                              tasks_s * 1e6);
                tracer->end(tracePid, 2, "tick.tasks", tick_start);
            }
        }

        simTime += cfg.tick;
        const sim::Time now = simTime;

        // 3. Decision interval boundary: close every monitoring
        //    window and let the runtime act on the joint report.
        if (now >= nextDecision) {
            nextDecision += cfg.decisionInterval;
            ++totalIntervals;
            std::chrono::steady_clock::time_point iw0;
            if (metrics)
                iw0 = std::chrono::steady_clock::now();
            std::size_t focus = 0;
            double worst = -1.0;
            for (std::size_t s = 0; s < tenants.size(); ++s) {
                auto &ten = tenants[s];
                reports[s].interval = ten.monitor->closeInterval();
                reports[s].qosUs = ten.service->qosUs();
                if (ten.admission) {
                    const admission::AdmissionStats stats =
                        ten.admission->closeInterval();
                    reports[s].shedFraction = stats.shedFraction();
                    reports[s].queueDelayUs = stats.meanQueueDelayUs;
                }
                if (reports[s].interval.p99Us <= reports[s].qosUs)
                    ++ten.qosMetIntervals;
                if (reports[s].ratio() > worst) {
                    worst = reports[s].ratio();
                    focus = s;
                }
            }
            actuator->setFocusService(focus);
            const core::Decision decision =
                runtime->onInterval(reports);

            // Feed the QoS picture back to the admission layer so
            // the QoS-guided shed policy can coordinate with the
            // approximation the runtime just (maybe) actuated: shed
            // only what the runtime's predicted relief floor says
            // local approximation cannot absorb.
            if (cfg.admission.enabled) {
                runtime->reliefPredictions(reliefBuf);
                for (std::size_t s = 0; s < tenants.size(); ++s) {
                    double floor = -1.0;
                    for (const auto &r : reliefBuf)
                        if (r.service == reports[s].name) {
                            floor = r.predictedRatio;
                            break;
                        }
                    tenants[s].admission->onQosFeedback(
                        reports[s].ratio(), floor);
                }
            }

            // Budget usage at this close (zero without a slice).
            double quality_used = 0.0;
            double shed_used = 0.0;
            if (budgetActive) {
                quality_used = qualityInUse();
                for (const auto &report : reports)
                    shed_used = std::max(shed_used, report.shedFraction);
            }
            const int ways = partition.serviceWays();
            int total_reclaimed = 0;
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                const int reclaimed =
                    tasks[i].fairCores() - tasks[i].cores();
                maxReclaimed[i] = std::max(maxReclaimed[i], reclaimed);
                total_reclaimed += reclaimed;
            }

            // Online rollups: every summary finalize() reports is
            // accumulated here, in interval order, as plain
            // chronological sums.
            const bool post_warmup = now > kWarmup;
            for (std::size_t s = 0; s < tenants.size(); ++s) {
                SvcAccum &acc = svcAccum[s];
                const double p99 = reports[s].interval.p99Us;
                acc.sumP99All += p99;
                ++acc.nAll;
                if (post_warmup) {
                    acc.sumP99Post += p99;
                    ++acc.nPost;
                }
            }
            maxTotalReclaimed =
                std::max(maxTotalReclaimed, total_reclaimed);
            if (post_warmup)
                reclaimTotalsPost.add(
                    static_cast<std::size_t>(total_reclaimed));
            // Budget usage is zero when no slice is active, exactly
            // as in the sink's TimePoint; the sums run unconditionally.
            budgetQualitySumAll += quality_used;
            budgetShedSumAll += shed_used;
            ++budgetNAll;
            if (post_warmup) {
                budgetQualitySumPost += quality_used;
                budgetShedSumPost += shed_used;
                ++budgetNPost;
            }
            maxWaysSeen = std::max(maxWaysSeen, ways);

            // Observability at the close, in tenant order.
            if (metrics) {
                metrics->add(mid.intervals);
                metrics->add(mid.decisions[static_cast<int>(decision.kind)]);
                if (decision.kind != core::Decision::Kind::None)
                    metrics->add(mid.actuations);
                for (std::size_t s = 0; s < tenants.size(); ++s) {
                    const bool met = reports[s].interval.p99Us <=
                                     reports[s].qosUs;
                    metrics->add(met ? mid.qosMet : mid.qosViolated);
                    if (cfg.admission.enabled) {
                        metrics->record(mid.shedFraction,
                                        reports[s].shedFraction);
                        metrics->record(mid.queueDelay,
                                        reports[s].queueDelayUs);
                    }
                }
                metrics->histAdd(mid.intervalP99Hist,
                                 reports[0].interval.p99Us);
                metrics->record(mid.intervalP99Stat,
                                reports[0].interval.p99Us);
                if (budgetActive)
                    metrics->record(mid.budgetQuality, quality_used);
                metrics->record(
                    mid.phaseInterval,
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - iw0)
                        .count());
            }
            if (tracer) {
                // The interval span is emitted whole at the close:
                // B at the interval's simulated start, E at its end,
                // so track 0's timestamps stay non-decreasing.
                tracer->begin(tracePid, 0, "interval", intervalStart);
                tracer->end(tracePid, 0, "interval", now);
                if (decision.kind != core::Decision::Kind::None)
                    tracer->instant(tracePid, 1,
                                    core::decisionEventName(decision.kind),
                                    now);
                if (cfg.admission.enabled) {
                    for (std::size_t s = 0; s < tenants.size(); ++s) {
                        const bool armed =
                            tenants[s].admission->gateArmed();
                        if (armed != gateWasArmed[s])
                            tracer->instant(tracePid, 1,
                                            armed
                                                ? "shed-gate-arm"
                                                : "shed-gate-release",
                                            now);
                        gateWasArmed[s] = armed;
                    }
                }
            }
            intervalStart = now;

            // The series point exists only for a sink. It is refilled
            // in place, so its vectors keep their capacity and a live
            // sink costs no allocation per close.
            if (sink) {
                TimePoint &tp = closePoint;
                tp.t = now;
                tp.services.resize(tenants.size());
                for (std::size_t s = 0; s < tenants.size(); ++s)
                    tp.services[s] = {reports[s].interval.p99Us,
                                      tenants[s].lastLoad,
                                      reports[s].shedFraction,
                                      reports[s].queueDelayUs};
                tp.partitionWays = ways;
                tp.decision = decision;
                // The slice caps read -1 until a slice is installed.
                tp.budgetQualityUsed = quality_used;
                tp.budgetShedUsed = shed_used;
                tp.budgetQualityCap = qualitySliceCap;
                tp.budgetShedCap = shedSliceCap;
                tp.variantOf.clear();
                tp.reclaimed.clear();
                for (const auto &task : tasks) {
                    tp.variantOf.push_back(task.variantIndex());
                    tp.reclaimed.push_back(task.fairCores() - task.cores());
                }
                sink->onPoint(tp);
            }
        }
    }
    return done();
}

approx::TaskState
Engine::detachApp(std::size_t i)
{
    if (i >= tasks.size())
        util::panic("detachApp(", i, ") with ", tasks.size(),
                    " tasks");
    // Settle the app's reclaimed-core debt: the services hand back
    // every core they took from it, so this node's service/task
    // ledger balances before the app leaves.
    while (tasks[i].cores() < tasks[i].fairCores())
        if (!actuator->returnCore(static_cast<int>(i)))
            util::panic("core conservation violated while detaching '",
                        profiles[i]->name, "'");
    approx::TaskState state = tasks[i].checkpoint();
    // Serialize the runtime's per-task model into the checkpoint
    // before the task (and its model) disappear from this node.
    runtime->exportModel(static_cast<int>(i), state);
    tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(i));
    profiles.erase(profiles.begin() + static_cast<std::ptrdiff_t>(i));
    maxReclaimed.erase(maxReclaimed.begin() +
                       static_cast<std::ptrdiff_t>(i));
    taskPressure.resize(tasks.size());
    runtime->onTaskRemoved(static_cast<int>(i));
    recordRoster();
    return state;
}

void
Engine::attachApp(const approx::TaskState &state)
{
    for (const auto &prof : profiles)
        if (prof->name == state.app)
            util::fatal("app '", state.app,
                        "' is already running on this node");
    approx::AppProfile prof = approx::findProfile(state.app);
    if (cfg.runtime == core::RuntimeKind::Precise)
        prof.dynrecOverhead = 0.0;
    profiles.push_back(
        std::make_unique<approx::AppProfile>(std::move(prof)));
    tasks.emplace_back(*profiles.back(), appFairCores, state);
    maxReclaimed.push_back(0);
    reclaimTotalsPost.reserveValues(
        tasks.size() * static_cast<std::size_t>(appFairCores));
    taskPressure.resize(tasks.size());
    runtime->onTaskAdded(state);
    recordRoster();
}

void
Engine::reliefPredictions(std::vector<core::ServiceRelief> &out) const
{
    runtime->reliefPredictions(out);
}

void
Engine::setBudgetSlice(double quality_cap, double shed_cap)
{
    budgetActive = true;
    partial.budgetEnabled = true;
    qualitySliceCap = quality_cap;
    shedSliceCap = shed_cap;
    runtime->setQualityCap(quality_cap);
    for (auto &ten : tenants)
        if (ten.admission)
            ten.admission->setShedCap(shed_cap);
    if (metrics)
        metrics->add(mid.budgetSlices);
    if (tracer)
        tracer->instant(tracePid, 1, "budget-slice", simTime);
}

double
Engine::qualityInUse() const
{
    double in_use = 0.0;
    for (const auto &task : tasks)
        if (!task.finished())
            in_use +=
                task.profile().variant(task.variantIndex()).inaccuracy;
    return in_use;
}

double
Engine::qualityHeadroom() const
{
    double headroom = 0.0;
    for (const auto &task : tasks) {
        if (task.finished())
            continue;
        const auto &prof = task.profile();
        headroom +=
            prof.variant(prof.mostApproxIndex()).inaccuracy -
            prof.variant(task.variantIndex()).inaccuracy;
    }
    return std::max(headroom, 0.0);
}

ColoResult
Engine::finalize()
{
    if (finalized)
        util::panic("Engine::finalize() called twice");
    finalized = true;
    ColoResult result = std::move(partial);
    const int total_intervals = totalIntervals;
    const std::vector<int> &max_reclaimed = maxReclaimed;

    // Every summary below reads the online accumulators filled at
    // interval close: plain chronological sums over the intervals,
    // with a whole-run fallback when no interval lands past the
    // warmup window.

    result.services.reserve(tenants.size());
    for (std::size_t s = 0; s < tenants.size(); ++s) {
        auto &ten = tenants[s];
        ServiceOutcome out;
        out.name = ten.service->name();
        out.qosUs = ten.service->qosUs();
        out.overallP99Us = ten.monitor->longRunP99();
        out.steadySketch = ten.monitor->steadySketch();
        out.steadyP99Us = out.steadySketch.value();
        if (ten.admission) {
            const admission::AdmissionStats life =
                ten.admission->lifetime();
            out.shedFraction = life.shedFraction();
            out.meanQueueDelayUs = life.meanQueueDelayUs;
            out.meanBatchSize = ten.admission->meanBatchSize();
        }

        const SvcAccum &acc = svcAccum[s];
        const bool any_post = acc.nPost > 0;
        const double sum_p99 = any_post ? acc.sumP99Post : acc.sumP99All;
        const std::size_t n_intervals = any_post ? acc.nPost : acc.nAll;
        out.meanIntervalP99Us = n_intervals == 0
            ? 0.0
            : sum_p99 / static_cast<double>(n_intervals);
        out.qosMetFraction = total_intervals == 0
            ? 0.0
            : static_cast<double>(ten.qosMetIntervals) /
                  static_cast<double>(total_intervals);
        result.services.push_back(std::move(out));
    }

    result.maxCoresReclaimedTotal = maxTotalReclaimed;
    if (result.budgetEnabled) {
        // Budget rollups: post-warmup means of the interval samples
        // (whole-run fallback for very short runs, mirroring the
        // per-service p99 means), plus the caps in force at the end.
        const double q_sum = budgetNPost > 0 ? budgetQualitySumPost
                                             : budgetQualitySumAll;
        const double s_sum =
            budgetNPost > 0 ? budgetShedSumPost : budgetShedSumAll;
        const std::size_t n_budget =
            budgetNPost > 0 ? budgetNPost : budgetNAll;
        if (n_budget > 0) {
            result.budgetQualityUsed =
                q_sum / static_cast<double>(n_budget);
            result.budgetShedUsed =
                s_sum / static_cast<double>(n_budget);
        }
        result.budgetQualityCap = qualitySliceCap;
        result.budgetShedCap = shedSliceCap;
    }
    result.maxPartitionWays =
        std::max(result.maxPartitionWays, maxWaysSeen);
    if (reclaimTotalsPost.count() > 0)
        result.typicalCoresReclaimed = static_cast<int>(
            std::lround(reclaimTotalsPost.percentile(60.0)));

    result.apps.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        AppOutcome out;
        out.name = tasks[i].profile().name;
        out.finished = tasks[i].finished();
        out.relativeExecTime = tasks[i].relativeExecTime();
        out.inaccuracy = tasks[i].inaccuracy();
        out.switches = tasks[i].switchCount();
        out.dynrecOverhead = tasks[i].profile().dynrecOverhead;
        out.maxCoresReclaimed = max_reclaimed[i];
        result.apps.push_back(std::move(out));
    }

    // Snapshot-time gauges, then the snapshot itself.
    if (metrics) {
        double arms = 0.0;
        double releases = 0.0;
        for (const auto &ten : tenants) {
            if (!ten.admission)
                continue;
            arms += static_cast<double>(ten.admission->gateArms());
            releases +=
                static_cast<double>(ten.admission->gateReleases());
        }
        metrics->set(mid.gateArms, arms);
        metrics->set(mid.gateReleases, releases);
        result.metrics = metrics->snapshot();
    }
    return result;
}

ColoResult
runColocation(services::ServiceKind service,
              const std::vector<std::string> &apps,
              core::RuntimeKind runtime, std::uint64_t seed,
              double load_fraction)
{
    Engine engine(
        makeColoConfig(service, apps, runtime, seed, load_fraction));
    return engine.run();
}

ColoConfig
makeColoConfig(services::ServiceKind service,
               const std::vector<std::string> &apps,
               core::RuntimeKind runtime, std::uint64_t seed,
               double load_fraction)
{
    return makeMultiServiceConfig(
        {{service, Scenario::constant(load_fraction)}}, apps, runtime,
        seed);
}

ColoConfig
makeMultiServiceConfig(std::vector<ServiceSpec> services,
                       const std::vector<std::string> &apps,
                       core::RuntimeKind runtime, std::uint64_t seed)
{
    ColoConfig cfg;
    cfg.services = std::move(services);
    cfg.apps = apps;
    cfg.runtime = runtime;
    cfg.seed = seed;
    return cfg;
}

std::vector<ColoResult>
runColocations(const std::vector<ColoConfig> &configs, unsigned threads)
{
    util::inform("colo: running ", configs.size(), " experiments");
    // The config's own seed governs each experiment, so a batch
    // equals the same configs run one by one.
    return driver::parallelMap(configs, threads, [](const ColoConfig &cfg) {
        Engine engine(cfg);
        return engine.run();
    });
}

} // namespace colo
} // namespace pliant
