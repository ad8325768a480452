#include "cluster/cluster.hh"

#include <algorithm>
#include <chrono>

#include "driver/pool.hh"
#include "util/dedup.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace pliant {
namespace cluster {

namespace {

std::string
resolvedNodeName(const NodeSpec &node, std::size_t idx)
{
    return node.name.empty() ? "node" + std::to_string(idx)
                             : node.name;
}

} // namespace

void
validateClusterConfig(const ClusterConfig &cfg)
{
    if (cfg.nodes.empty())
        util::fatal("cluster needs at least one node");
    if (cfg.apps.empty())
        util::fatal("cluster needs at least one app to place");
    colo::checkRunConfig(cfg);
    std::vector<std::string> names;
    names.reserve(cfg.nodes.size());
    for (std::size_t i = 0; i < cfg.nodes.size(); ++i)
        names.push_back(resolvedNodeName(cfg.nodes[i], i));
    const std::size_t dup_node = util::firstDuplicate(names);
    for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
        const auto &specs = cfg.nodes[i].services;
        if (specs.empty())
            util::fatal("cluster node '", names[i],
                        "' hosts no interactive service");
        const std::size_t dup =
            util::firstDuplicate(specs, &colo::ServiceSpec::resolvedName);
        if (dup < specs.size())
            util::fatal("duplicate service '", specs[dup].resolvedName(),
                        "' on node '", names[i],
                        "': give same-kind tenants distinct "
                        "instance names");
        if (i == dup_node)
            util::fatal("duplicate node name '", names[i],
                        "' in cluster config");
        for (const colo::ServiceSpec &spec : specs)
            colo::validateScenarioLoads(spec.scenario, spec.resolvedName());
    }
    if (cfg.epoch <= 0)
        util::fatal("cluster epoch must be positive");
    if (cfg.epoch < cfg.decisionInterval)
        util::fatal("cluster epoch (", sim::toSeconds(cfg.epoch),
                    " s) must be at least the decision interval (",
                    sim::toSeconds(cfg.decisionInterval),
                    " s): placement acts on closed interval reports");
    // Inert when disabled; every field checked when enabled.
    budget::validateBudgetConfig(cfg.budget);
    if (cfg.budget.enabled && cfg.nodes.size() < 2)
        util::fatal("cluster-wide budgets need at least 2 nodes to "
                    "split across (got ", cfg.nodes.size(),
                    "): a single node's slice is the whole budget — "
                    "run without budgets instead");
}

std::uint64_t
Cluster::nodeSeed(std::uint64_t clusterSeed, std::size_t node)
{
    // Salt the index so node 0 of seed s and node s of seed 0 do not
    // collide, then finalize with SplitMix64 for avalanche.
    util::SplitMix64 sm(clusterSeed ^
                        (static_cast<std::uint64_t>(node) *
                         0x9e3779b97f4a7c15ULL) ^
                        0x5eedULL);
    return sm.next();
}

Cluster::Cluster(ClusterConfig config) : cfg(std::move(config))
{
    validateClusterConfig(cfg);
    policy = makePlacement(cfg.placement);

    std::vector<approx::AppProfile> profs;
    profs.reserve(cfg.apps.size());
    for (const auto &name : cfg.apps)
        profs.push_back(approx::findProfile(name));
    assignment = policy->initialPlacement(cfg.nodes.size(), profs);
    if (assignment.size() != cfg.apps.size())
        util::panic("placement policy '", policy->name(),
                    "' returned ", assignment.size(),
                    " assignments for ", cfg.apps.size(), " apps");
    for (std::size_t a = 0; a < assignment.size(); ++a)
        if (assignment[a] >= cfg.nodes.size())
            util::panic("placement policy '", policy->name(),
                        "' assigned app '", cfg.apps[a],
                        "' to node ", assignment[a], " of ",
                        cfg.nodes.size());

    // Every node runs the cluster's settings; only its seed and its
    // placed apps differ. Clear the app lists once here rather than
    // copy the full list into every node.
    colo::RunConfig shared = cfg;
    shared.apps.clear();
    shared.initialVariants.clear();
    nodeNames.reserve(cfg.nodes.size());
    nodeConfigs.reserve(cfg.nodes.size());
    for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
        nodeNames.push_back(resolvedNodeName(cfg.nodes[i], i));

        colo::ColoConfig nc;
        static_cast<colo::RunConfig &>(nc) = shared;
        nc.seed = nodeSeed(cfg.seed, i);
        nc.services = std::move(cfg.nodes[i].services);
        nc.spec = cfg.nodes[i].spec;
        for (std::size_t a = 0; a < cfg.apps.size(); ++a) {
            if (assignment[a] != i)
                continue;
            nc.apps.push_back(cfg.apps[a]);
            if (!cfg.initialVariants.empty())
                nc.initialVariants.push_back(cfg.initialVariants[a]);
        }
        // validateClusterConfig covered every node check but the one
        // placement decides: fair-core starvation on an overloaded
        // node, surfaced here at cluster construction time.
        colo::validateCoreSplit(nc.spec, nc.apps.size(), nc.services.size());
        nodeConfigs.push_back(std::move(nc));
    }

    // Cluster-layer metrics: all updated at epoch barriers on the
    // coordinating thread, so every deterministic value is
    // pool-thread invariant. Pool stats are wall-time by nature
    // (queue depth and job latency depend on OS scheduling).
    if (cfg.observability.metrics) {
        metrics = std::make_unique<obs::MetricsRegistry>();
        mid.epochs = metrics->counter("cluster.epochs");
        mid.migrations = metrics->counter("cluster.migrations");
        mid.budgetAllocs =
            metrics->counter("cluster.budget_allocations");
        mid.epochWall = metrics->stat("cluster.epoch_wall_s",
                                      obs::Stability::WallTime);
        mid.poolSubmitted = metrics->gauge(
            "pool.jobs_submitted", obs::Stability::WallTime);
        mid.poolExecuted = metrics->gauge("pool.jobs_executed",
                                          obs::Stability::WallTime);
        mid.poolDepthMax = metrics->gauge("pool.max_queue_depth",
                                          obs::Stability::WallTime);
        mid.poolDepthMean = metrics->gauge(
            "pool.mean_queue_depth", obs::Stability::WallTime);
        mid.poolJobWallMean = metrics->gauge(
            "pool.job_wall_mean_s", obs::Stability::WallTime);
        mid.poolJobWallMax = metrics->gauge(
            "pool.job_wall_max_s", obs::Stability::WallTime);
        metrics->freeze();
    }
}

void
Cluster::setTraceWriter(obs::TraceWriter *writer)
{
    tracer = writer;
    if (!tracer)
        return;
    tracer->processName(0, "cluster");
    tracer->threadName(0, 0, "epochs");
    tracer->threadName(0, 1, "events");
    for (std::size_t i = 0; i < nodeNames.size(); ++i)
        tracer->processName(static_cast<int>(i) + 1,
                            "node:" + nodeNames[i]);
}

void
Cluster::setTimelineSink(std::size_t node, colo::TimelineSink *sink)
{
    if (node >= nodeCount())
        util::fatal("setTimelineSink: node ", node, " of a ",
                    nodeCount(), "-node cluster");
    nodeSinks.resize(nodeCount(), nullptr);
    nodeSinks[node] = sink;
}

Cluster::~Cluster() = default;

std::vector<NodeStatus>
Cluster::gatherStatuses() const
{
    std::vector<NodeStatus> statuses(engines.size());
    for (std::size_t i = 0; i < engines.size(); ++i) {
        NodeStatus &st = statuses[i];
        st.node = i;
        st.name = nodeNames[i];
        st.done = engines[i]->appsFinished();
        st.services = engines[i]->lastReports();
        st.worstRatio = core::worstRatio(st.services);
        engines[i]->reliefPredictions(st.relief);
        for (const auto &relief : st.relief)
            st.reliefRatio =
                std::max(st.reliefRatio, relief.predictedRatio);
        for (const auto &report : st.services)
            st.admissionShedFraction = std::max(
                st.admissionShedFraction, report.shedFraction);
        st.qualityInUse = engines[i]->qualityInUse();
        st.qualityHeadroom = engines[i]->qualityHeadroom();
        st.apps.reserve(engines[i]->appCount());
        for (std::size_t a = 0; a < engines[i]->appCount(); ++a) {
            AppStatus app;
            app.name = engines[i]->appName(a);
            app.finished = engines[i]->appFinished(a);
            app.progress = engines[i]->appProgress(a);
            app.remainingWorkSeconds =
                (1.0 - app.progress) *
                approx::findProfile(app.name).nominalExecSeconds;
            st.apps.push_back(std::move(app));
        }
    }
    return statuses;
}

void
Cluster::applyMigration(const MigrationDecision &decision,
                        sim::Time now, ClusterResult &out)
{
    if (decision.from >= engines.size() ||
        decision.to >= engines.size() ||
        decision.from == decision.to)
        return;
    colo::Engine &src = *engines[decision.from];
    for (std::size_t a = 0; a < src.appCount(); ++a) {
        if (src.appName(a) != decision.app || src.appFinished(a))
            continue;
        const approx::TaskState state = src.detachApp(a);
        // A destination whose own apps finished mid-epoch stopped
        // its clock there; bring its services up to the barrier
        // first, so the migrant resumes at cluster time `now` rather
        // than re-executing a window it already ran on the source.
        engines[decision.to]->advanceUntil(
            now, /*keep_services_running=*/true);
        engines[decision.to]->attachApp(state);
        // Both clocks now sit on the first tick at or past the
        // barrier, where the detach and attach roster changes are
        // stamped; the migration carries that same time.
        out.migrations.push_back(
            {src.now(), decision.app, decision.from, decision.to});
        if (metrics)
            metrics->add(mid.migrations);
        if (tracer) {
            const std::string ev = "migrate:" + decision.app;
            tracer->instant(0, 1, ev.c_str(), now);
        }
        util::inform("cluster: migrated '", decision.app, "' from ",
                     nodeNames[decision.from], " to ",
                     nodeNames[decision.to], " at t=",
                     sim::toSeconds(now), " s");
        return;
    }
}

void
Cluster::allocateBudget(const std::vector<NodeStatus> &statuses)
{
    std::vector<budget::NodeDemand> demands;
    demands.reserve(statuses.size());
    for (const auto &st : statuses) {
        budget::NodeDemand d;
        d.name = st.name;
        d.worstRatio = st.worstRatio;
        d.reliefRatio = st.reliefRatio;
        d.qualityInUse = st.qualityInUse;
        d.qualityHeadroom = st.qualityHeadroom;
        d.shedFraction = st.admissionShedFraction;
        demands.push_back(std::move(d));
    }
    const std::vector<budget::NodeSlice> slices =
        budgeter->allocate(demands);
    for (std::size_t i = 0; i < engines.size(); ++i)
        engines[i]->setBudgetSlice(slices[i].qualityCap,
                                   slices[i].shedCap);
    if (metrics)
        metrics->add(mid.budgetAllocs);
}

ClusterResult
Cluster::run()
{
    if (ran)
        util::panic("Cluster::run() called twice");
    ran = true;

    engines.reserve(nodeConfigs.size());
    for (const auto &nc : nodeConfigs)
        engines.push_back(std::make_unique<colo::Engine>(nc));
    if (tracer)
        for (std::size_t i = 0; i < engines.size(); ++i)
            engines[i]->setTrace(tracer, static_cast<int>(i) + 1);
    for (std::size_t i = 0; i < nodeSinks.size(); ++i)
        engines[i]->setTimelineSink(nodeSinks[i]);

    ClusterResult out;
    out.placement = policy->name();

    if (cfg.budget.enabled) {
        budgeter = std::make_unique<budget::Controller>(
            cfg.budget, engines.size());
        // Install initial slices before any node runs: with no
        // reports yet every demand is zero, so each policy degrades
        // to a uniform split, and nodes are budget-gated from t=0.
        allocateBudget(gatherStatuses());
        if (tracer)
            tracer->instant(0, 1, "budget-allocate", 0);
    }

    driver::Pool pool(cfg.threads);
    sim::Time t = 0;
    while (true) {
        const sim::Time epoch_start = t;
        t = std::min(t + cfg.epoch, cfg.maxDuration);
        std::chrono::steady_clock::time_point ew0;
        if (metrics)
            ew0 = std::chrono::steady_clock::now();

        // Advance every node to the epoch boundary in parallel — in
        // keep-services mode, so nodes whose apps finished (or that
        // never had any) keep serving, keep reporting QoS, and stay
        // valid migration targets. Each job touches only its own
        // engine; exceptions propagate from the lowest node index so
        // failure behavior cannot race.
        driver::runIndexed(pool, engines.size(), [this, t](std::size_t i) {
            engines[i]->advanceUntil(t, /*keep_services_running=*/true);
        });

        if (metrics) {
            metrics->add(mid.epochs);
            metrics->record(
                mid.epochWall,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - ew0)
                    .count());
        }
        if (tracer) {
            // The epoch span is emitted whole at the barrier, so
            // track (0, 0) timestamps stay non-decreasing.
            tracer->begin(0, 0, "epoch", epoch_start);
            tracer->end(0, 0, "epoch", t);
        }

        // The experiment ends when every app everywhere has finished
        // (services-only nodes are vacuously done) or the horizon is
        // reached.
        const bool all_apps_done = std::all_of(
            engines.begin(), engines.end(),
            [](const auto &engine) { return engine->appsFinished(); });
        if (all_apps_done || t >= cfg.maxDuration)
            break;

        // Placement and budgeting act at the barrier, on one thread.
        // Placement reads the pre-move snapshot; if any migration
        // landed, the budget split must see the post-move rosters —
        // reusing the stale snapshot left both nodes on caps derived
        // for apps they no longer (or newly) host until the next
        // barrier. No migration means the snapshot is still exact,
        // so migration-free runs stay byte-identical.
        const std::vector<NodeStatus> statuses = gatherStatuses();
        const std::size_t moves_before = out.migrations.size();
        for (const auto &decision : policy->rebalance(statuses, t))
            applyMigration(decision, t, out);
        if (budgeter) {
            if (out.migrations.size() > moves_before)
                allocateBudget(gatherStatuses());
            else
                allocateBudget(statuses);
            if (tracer)
                tracer->instant(0, 1, "budget-allocate", t);
        }
    }

    out.nodes.reserve(engines.size());
    for (std::size_t i = 0; i < engines.size(); ++i) {
        NodeResult nr;
        nr.name = nodeNames[i];
        nr.seed = nodeConfigs[i].seed;
        nr.ticks = static_cast<std::uint64_t>(engines[i]->now() / cfg.tick);
        nr.result = engines[i]->finalize();
        // Nothing reads a finalized engine, so free it before the
        // next node's result is built: the engines and the results
        // never stack up in memory.
        engines[i].reset();
        out.nodes.push_back(std::move(nr));
    }

    double worst_ratio = 0.0;
    double met_sum = 0.0;
    std::size_t met_n = 0;
    double inacc = 0.0, rel = 0.0;
    int finished = 0, total = 0, cores = 0;
    // Cluster-wide steady-state p99: fold every tenant's P² sketch
    // in (node, service) order on this thread. The fixed fold order
    // is the determinism contract of P2Quantile::merge — the result
    // is byte-identical at any pool thread count.
    util::P2Quantile steady_all{0.99};
    for (const auto &nr : out.nodes) {
        for (const auto &svc : nr.result.services) {
            const double ratio = svc.qosUs > 0.0
                ? svc.meanIntervalP99Us / svc.qosUs
                : 0.0;
            worst_ratio = std::max(worst_ratio, ratio);
            met_sum += svc.qosMetFraction;
            ++met_n;
            steady_all.merge(svc.steadySketch);
        }
        for (const auto &app : nr.result.apps) {
            inacc += app.inaccuracy;
            rel += app.relativeExecTime;
            if (app.finished)
                ++finished;
            ++total;
        }
        cores += nr.result.maxCoresReclaimedTotal;
    }
    out.runtime = out.nodes[0].result.runtime;
    out.worstServiceRatio = worst_ratio;
    out.steadyP99Us = steady_all.value();
    out.meanQosMetFraction =
        met_n ? met_sum / static_cast<double>(met_n) : 0.0;
    out.meanInaccuracy =
        total ? inacc / static_cast<double>(total) : 0.0;
    out.meanRelativeExecTime =
        total ? rel / static_cast<double>(total) : 0.0;
    out.appsFinished = finished;
    out.appsTotal = total;
    out.totalMaxCoresReclaimed = cores;
    if (cfg.budget.enabled) {
        out.budgetEnabled = true;
        out.budgetPolicy = budget::policyName(cfg.budget.policy);
        for (const auto &nr : out.nodes) {
            out.budgetQualityUsed += nr.result.budgetQualityUsed;
            out.budgetShedUsed += nr.result.budgetShedUsed;
        }
    }
    if (metrics) {
        const driver::Pool::Stats ps = pool.stats();
        metrics->set(mid.poolSubmitted,
                     static_cast<double>(ps.submitted));
        metrics->set(mid.poolExecuted,
                     static_cast<double>(ps.executed));
        metrics->set(mid.poolDepthMax,
                     static_cast<double>(ps.maxQueueDepth));
        metrics->set(mid.poolDepthMean, ps.meanQueueDepth);
        metrics->set(mid.poolJobWallMean, ps.jobWallMeanS);
        metrics->set(mid.poolJobWallMax, ps.jobWallMaxS);
        out.obsEnabled = true;
        // Fold node snapshots in ascending node order — the fixed
        // order that keeps merged stats pool-thread invariant — then
        // append the cluster layer's own metrics.
        for (const auto &nr : out.nodes)
            if (nr.result.obsEnabled)
                out.metrics.merge(nr.result.metrics);
        out.metrics.merge(metrics->snapshot());
    }
    return out;
}

std::vector<ClusterResult>
runClusters(const std::vector<ClusterConfig> &configs, unsigned threads)
{
    util::inform("cluster: running ", configs.size(), " experiments");
    return driver::parallelMap(configs, threads, [](const ClusterConfig &cfg) {
        // One cluster per batch worker: run its nodes serially so the
        // batch's parallelism is not multiplied. The config's own seed
        // governs the experiment, so a batch equals the same configs
        // run one by one.
        ClusterConfig serial = cfg;
        serial.threads = 1;
        Cluster cluster(std::move(serial));
        return cluster.run();
    });
}

util::TextTable
clusterTable(const std::vector<std::string> &labels,
             const std::vector<ClusterResult> &results)
{
    if (labels.size() != results.size())
        util::panic("clusterTable: ", labels.size(), " labels for ",
                    results.size(), " results");
    util::TextTable table({"experiment", "runtime", "placement",
                           "worst p99/QoS", "met%", "inaccuracy",
                           "migrations", "apps done", "cores"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ClusterResult &r = results[i];
        table.addRow({labels[i], r.runtime, r.placement,
                      util::fmt(r.worstServiceRatio, 2) + "x",
                      util::fmtPct(r.meanQosMetFraction, 0),
                      util::fmtPct(r.meanInaccuracy, 2),
                      std::to_string(r.migrations.size()),
                      std::to_string(r.appsFinished) + "/" +
                          std::to_string(r.appsTotal),
                      std::to_string(r.totalMaxCoresReclaimed)});
    }
    return table;
}

ClusterConfigBuilder &
ClusterConfigBuilder::nodes(std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        cfg.nodes.push_back(NodeSpec{});
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::node(std::string name)
{
    NodeSpec spec;
    spec.name = std::move(name);
    cfg.nodes.push_back(std::move(spec));
    return *this;
}

NodeSpec &
ClusterConfigBuilder::lastNode()
{
    if (cfg.nodes.empty())
        util::fatal("declare a node (node()/nodes()) before "
                    "configuring node-scoped properties");
    return cfg.nodes.back();
}

ClusterConfigBuilder &
ClusterConfigBuilder::service(services::ServiceKind kind,
                              colo::Scenario scenario)
{
    return service("", kind, std::move(scenario));
}

ClusterConfigBuilder &
ClusterConfigBuilder::service(std::string name,
                              services::ServiceKind kind,
                              colo::Scenario scenario)
{
    colo::ServiceSpec spec;
    spec.kind = kind;
    spec.scenario = std::move(scenario);
    spec.name = std::move(name);
    lastNode().services.push_back(std::move(spec));
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::serviceOnAll(services::ServiceKind kind,
                                   colo::Scenario scenario)
{
    if (cfg.nodes.empty())
        util::fatal("declare nodes before serviceOnAll()");
    for (auto &node : cfg.nodes) {
        colo::ServiceSpec spec;
        spec.kind = kind;
        spec.scenario = scenario;
        node.services.push_back(std::move(spec));
    }
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::app(const std::string &name)
{
    cfg.apps.push_back(name);
    cfg.initialVariants.push_back(0);
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::app(const std::string &name, int initialVariant)
{
    cfg.apps.push_back(name);
    cfg.initialVariants.push_back(initialVariant);
    anyVariantPinned = true;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::apps(const std::vector<std::string> &names)
{
    for (const auto &name : names)
        app(name);
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::runtime(core::RuntimeKind kind)
{
    cfg.runtime = kind;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::learnedVector(bool enable)
{
    cfg.learnedVector = enable;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::placement(PlacementKind kind)
{
    cfg.placement = kind;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::admission(
    pliant::admission::AdmissionConfig admission_cfg)
{
    cfg.admission = std::move(admission_cfg);
    cfg.admission.enabled = true;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::admission(
    pliant::admission::AdmissionKind policy,
    pliant::admission::BatchingKind batching)
{
    cfg.admission.enabled = true;
    cfg.admission.policy = policy;
    cfg.admission.batching = batching;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::budget(pliant::budget::BudgetConfig budget_cfg)
{
    cfg.budget = std::move(budget_cfg);
    cfg.budget.enabled = true;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::budget(pliant::budget::BudgetPolicy policy,
                             double quality_budget,
                             double shed_budget)
{
    cfg.budget.enabled = true;
    cfg.budget.policy = policy;
    cfg.budget.qualityBudget = quality_budget;
    cfg.budget.shedBudget = shed_budget;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::epoch(sim::Time epoch)
{
    cfg.epoch = epoch;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::decisionInterval(sim::Time interval)
{
    cfg.decisionInterval = interval;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::tick(sim::Time tick)
{
    cfg.tick = tick;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::maxDuration(sim::Time duration)
{
    cfg.maxDuration = duration;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::cachePartitioning(bool enable)
{
    cfg.enableCachePartitioning = enable;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::seed(std::uint64_t seed)
{
    cfg.seed = seed;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::threads(unsigned threads)
{
    cfg.threads = threads;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::observability(obs::ObsConfig obs_cfg)
{
    cfg.observability = obs_cfg;
    return *this;
}

ClusterConfigBuilder &
ClusterConfigBuilder::observability(bool metrics)
{
    cfg.observability.metrics = metrics;
    return *this;
}

ClusterConfig
ClusterConfigBuilder::build() const
{
    ClusterConfig built = cfg;
    if (!anyVariantPinned)
        built.initialVariants.clear();
    validateClusterConfig(built);
    return built;
}

} // namespace cluster
} // namespace pliant
