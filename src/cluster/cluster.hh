/**
 * @file
 * The cluster layer: N simulated nodes, each running its own
 * colo::Engine (local control loop), under one global placement /
 * arbitration layer — the ROADMAP's multi-node sharding step.
 *
 * A Cluster owns one Engine per NodeSpec. Execution proceeds in
 * *cluster decision epochs*: every live node advances to the next
 * epoch boundary in parallel through a driver::Pool, then the
 * PlacementPolicy inspects each node's per-service ServiceReport
 * vector and may migrate an approximate app between nodes
 * (checkpoint/restore of its execution state). Three properties
 * make cluster experiments reproducible and regression-testable:
 *
 *  - per-node seeds derive from (cluster seed, node index) via
 *    SplitMix64 (Cluster::nodeSeed), so results are byte-identical at
 *    any worker thread count;
 *  - each engine is only ever touched by one job per epoch, and all
 *    placement decisions happen at the epoch barrier on one thread;
 *  - a single-node Cluster is byte-identical to a bare colo::Engine
 *    run of nodeConfig(0) — the epoch chunking is invisible.
 */

#ifndef PLIANT_CLUSTER_CLUSTER_HH
#define PLIANT_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "budget/budget.hh"
#include "cluster/placement.hh"
#include "colo/engine.hh"
#include "util/table.hh"

namespace pliant {
namespace cluster {

/** One simulated node of the cluster. */
struct NodeSpec
{
    /** Node name for reports; empty defaults to "node<i>". */
    std::string name;

    /** Hardware platform of this node. */
    server::ServerSpec spec;

    /** Interactive tenants pinned to this node. */
    std::vector<colo::ServiceSpec> services;
};

/** Cluster-wide experiment configuration. */
struct ClusterConfig
{
    std::vector<NodeSpec> nodes;

    /** Catalog names of the approximate apps to place. */
    std::vector<std::string> apps;

    /** Optional per-app starting variants (parallel to `apps`). */
    std::vector<int> initialVariants;

    core::RuntimeKind runtime = core::RuntimeKind::Pliant;
    core::ArbiterKind arbiter = core::ArbiterKind::RoundRobin;

    /**
     * Learned runtime: vector-conditioned per-service models
     * (default) vs the collapsed worst-ratio baseline; see
     * colo::ColoConfig::learnedVector.
     */
    bool learnedVector = true;

    sim::Time decisionInterval = sim::kSecond;
    sim::Time tick = 10 * sim::kMillisecond;
    sim::Time maxDuration = 600 * sim::kSecond;
    bool enableCachePartitioning = false;

    /**
     * Request-level admission control & batching front-end, applied
     * to every interactive tenant on every node (see
     * colo::ColoConfig::admission). Disabled by default; disabled
     * clusters are byte-identical to pre-admission ones.
     */
    admission::AdmissionConfig admission;

    /**
     * Cluster-wide quality/shed budgets, allocated per epoch by a
     * budget::Controller alongside placement (see src/budget/).
     * Disabled by default; disabled clusters are byte-identical to
     * pre-budget ones.
     */
    budget::BudgetConfig budget;

    /**
     * Observability knobs, applied to the cluster layer AND copied
     * to every node engine (see colo::ColoConfig::observability).
     * Disabled by default; disabled clusters are byte-identical to
     * pre-observability ones.
     */
    obs::ObsConfig observability;

    /** How apps land on nodes, and whether they move. */
    PlacementKind placement = PlacementKind::Static;

    /**
     * Cluster decision epoch: the placement layer acts at this
     * period. Must be at least the per-node decision interval.
     */
    sim::Time epoch = 5 * sim::kSecond;

    std::uint64_t seed = 1;

    /** Worker threads for node execution; 0 = Pool default. */
    unsigned threads = 0;

    /**
     * Table-driven samplers on every node (see
     * colo::ColoConfig::fastSampling). NOT byte-identical; keep off
     * for golden-pinned runs.
     */
    bool fastSampling = false;
};

/**
 * Validate a ClusterConfig (throws util::FatalError at the first
 * error). Linear in nodes + tenants + apps: duplicates are found by
 * util::firstDuplicate, which hashes names instead of comparing
 * pairs. In order: at least one
 * node; at least one app; the app list's catalog/variant checks
 * shared with the single-node layer (the first app that recurs is
 * named); then per node in index order —
 * the node hosts a service, its tenants' resolved names are
 * distinct (the first that recurs is named, with the node), its
 * resolved name does not recur at a later node, and its scenario
 * loads are finite and non-negative; then timing, epoch, admission
 * and budget fields. A reported duplicate is always the lowest index
 * whose name recurs later.
 *
 * Runs once per object: ClusterConfigBuilder::build() validates the
 * config it returns, and Cluster's constructor validates the config
 * it receives, then checks per node only what placement decides
 * (fair-core starvation) instead of re-validating node configs.
 */
void validateClusterConfig(const ClusterConfig &cfg);

/** One recorded migration. */
struct MigrationEvent
{
    sim::Time t = 0;
    std::string app;
    std::size_t from = 0;
    std::size_t to = 0;
};

/** One node's slice of a cluster outcome. */
struct NodeResult
{
    std::string name;
    std::uint64_t seed = 0;
    /** Apps this node hosted at the end of the run. */
    colo::ColoResult result;
};

/** Full cluster outcome: per-node results plus cluster rollups. */
struct ClusterResult
{
    std::string runtime;
    std::string placement;
    std::vector<NodeResult> nodes;
    std::vector<MigrationEvent> migrations;

    /** Worst mean-interval p99/QoS ratio over every service. */
    double worstServiceRatio = 0.0;

    /**
     * Cluster-wide steady-state p99 (µs): every tenant's post-warmup
     * P² sketch merged in (node, service) order — the fixed fold
     * order that keeps the estimate byte-identical at any pool
     * thread count (see util::P2Quantile::merge).
     */
    double steadyP99Us = 0.0;

    /** Mean of qosMetFraction over every service on every node. */
    double meanQosMetFraction = 0.0;

    /** Mean final inaccuracy over all apps (each counted once). */
    double meanInaccuracy = 0.0;

    /** Mean relative execution time over all apps. */
    double meanRelativeExecTime = 0.0;

    int appsFinished = 0;
    int appsTotal = 0;

    /** Sum over nodes of the max cores simultaneously reclaimed. */
    int totalMaxCoresReclaimed = 0;

    /**
     * Budget rollups (neutral when budgets are disabled): the split
     * policy's name, and the cluster-wide usage — sums over nodes of
     * the per-node post-warmup means of quality-in-use and
     * worst-tenant shed fraction, comparable against the global
     * budgets.
     */
    bool budgetEnabled = false;
    std::string budgetPolicy;
    double budgetQualityUsed = 0.0;
    double budgetShedUsed = 0.0;

    /**
     * Observability rollup (empty when disabled): every node's
     * snapshot folded in ascending node order — the fixed order that
     * keeps merged doubles pool-thread invariant — plus the cluster
     * layer's own metrics (epochs, migrations, pool stats).
     */
    bool obsEnabled = false;
    obs::MetricsSnapshot metrics;
};

/**
 * Fluent builder for ClusterConfig. node() starts a node; service()
 * attaches a tenant to the most recently started node. Example:
 *
 *   ClusterConfig cfg =
 *       ClusterConfigBuilder()
 *           .nodes(3)
 *           .serviceOnAll(services::ServiceKind::Memcached,
 *                         Scenario::constant(0.70))
 *           .apps({"canneal", "bayesian", "snp"})
 *           .placement(PlacementKind::QosAware)
 *           .runtime(core::RuntimeKind::Pliant)
 *           .seed(71)
 *           .build();
 */
class ClusterConfigBuilder
{
  public:
    ClusterConfigBuilder() = default;

    /** Append `count` nodes with default server specs. */
    ClusterConfigBuilder &nodes(std::size_t count);

    /** Start a new node (service() calls attach to it). */
    ClusterConfigBuilder &node(std::string name = "");

    /** Attach a tenant to the most recent node. */
    ClusterConfigBuilder &service(services::ServiceKind kind,
                                  colo::Scenario scenario);

    /** Attach a named tenant to the most recent node. */
    ClusterConfigBuilder &service(std::string name,
                                  services::ServiceKind kind,
                                  colo::Scenario scenario);

    /** Attach the same tenant to every node declared so far. */
    ClusterConfigBuilder &serviceOnAll(services::ServiceKind kind,
                                       colo::Scenario scenario);

    ClusterConfigBuilder &app(const std::string &name);
    ClusterConfigBuilder &app(const std::string &name,
                              int initialVariant);
    ClusterConfigBuilder &apps(const std::vector<std::string> &names);

    ClusterConfigBuilder &runtime(core::RuntimeKind kind);
    ClusterConfigBuilder &arbiter(core::ArbiterKind kind);

    /** Learned runtime: vector-conditioned (default) vs worst-ratio. */
    ClusterConfigBuilder &learnedVector(bool enable = true);
    ClusterConfigBuilder &placement(PlacementKind kind);

    /**
     * Enable the admission front-end cluster-wide (see
     * colo::ConfigBuilder::admission; types spelled via pliant::
     * because the method name hides the namespace in class scope).
     */
    ClusterConfigBuilder &
    admission(pliant::admission::AdmissionConfig cfg);
    ClusterConfigBuilder &
    admission(pliant::admission::AdmissionKind policy,
              pliant::admission::BatchingKind batching =
                  pliant::admission::BatchingKind::None);

    /**
     * Enable cluster-wide budgets (see budget::BudgetConfig; types
     * spelled via pliant:: because the method name hides the
     * namespace in class scope, the admission() pattern).
     */
    ClusterConfigBuilder &budget(pliant::budget::BudgetConfig cfg);
    ClusterConfigBuilder &budget(pliant::budget::BudgetPolicy policy,
                                 double quality_budget,
                                 double shed_budget);

    ClusterConfigBuilder &epoch(sim::Time epoch);
    ClusterConfigBuilder &decisionInterval(sim::Time interval);
    ClusterConfigBuilder &tick(sim::Time tick);
    ClusterConfigBuilder &maxDuration(sim::Time duration);
    ClusterConfigBuilder &cachePartitioning(bool enable = true);
    ClusterConfigBuilder &seed(std::uint64_t seed);
    ClusterConfigBuilder &threads(unsigned threads);

    /** Table-driven samplers on every node (NOT byte-identical). */
    ClusterConfigBuilder &fastSampling(bool enable = true);

    /** Observability knobs, cluster layer + every node (default off). */
    ClusterConfigBuilder &observability(obs::ObsConfig cfg);

    /** Enable the metrics registry with default knobs. */
    ClusterConfigBuilder &observability(bool metrics = true);

    /** Validate and return the config (throws util::FatalError). */
    ClusterConfig build() const;

  private:
    NodeSpec &lastNode();

    ClusterConfig cfg;
    bool anyVariantPinned = false;
};

/**
 * The cluster facade: construct from a validated config, run() once.
 * Deterministic given the config; thread-count invariant.
 */
class Cluster
{
  public:
    explicit Cluster(ClusterConfig cfg);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Execute the cluster experiment to completion. */
    ClusterResult run();

    std::size_t nodeCount() const { return nodeConfigs.size(); }

    /**
     * The exact ColoConfig node i runs (placement-assigned apps and
     * derived seed included). Engine(nodeConfig(i)).run() on a
     * single-node cluster reproduces run().nodes[0].result
     * byte-for-byte — the regression contract.
     */
    const colo::ColoConfig &nodeConfig(std::size_t i) const
    {
        return nodeConfigs[i];
    }

    /** Apps assigned to each node by the initial placement. */
    const std::vector<std::size_t> &initialAssignment() const
    {
        return assignment;
    }

    /** Per-node seed derivation (SplitMix64 of seed and index). */
    static std::uint64_t nodeSeed(std::uint64_t clusterSeed,
                                  std::size_t node);

    /**
     * Attach a span-trace writer (non-owning; null detaches). Call
     * before run(): the cluster emits epoch spans, migration and
     * budget-allocation instants on pid 0, and every node engine
     * traces on pid 1+i. Independent of cfg.observability.metrics.
     */
    void setTraceWriter(obs::TraceWriter *writer);

    /**
     * Attach a consumer of node `node`'s per-interval series
     * (non-owning; null detaches). Call before run(), which attaches
     * it when it builds the node's engine, before the initial budget
     * slices are installed: the sink sees the node's whole run and
     * every budget cap in force from t=0. Migrants arrive as roster
     * events, so a colo::CsvTimelineSink here should list every
     * cluster app as a column.
     */
    void setTimelineSink(std::size_t node, colo::TimelineSink *sink);

  private:
    std::vector<NodeStatus> gatherStatuses() const;
    void applyMigration(const MigrationDecision &decision,
                        sim::Time now, ClusterResult &out);

    /**
     * Budget step at an epoch barrier (no-op when disabled): derive
     * each node's demand from its status, let the controller split
     * the global budgets, and install the slices on the engines.
     */
    void allocateBudget(const std::vector<NodeStatus> &statuses);

    ClusterConfig cfg;
    std::unique_ptr<PlacementPolicy> policy;
    std::unique_ptr<budget::Controller> budgeter; ///< null: disabled
    std::vector<std::size_t> assignment; ///< app index -> node index
    std::vector<colo::ColoConfig> nodeConfigs;
    std::vector<std::string> nodeNames;
    std::vector<std::unique_ptr<colo::Engine>> engines;
    /** Per-node timeline sinks (non-owning; empty = none attached). */
    std::vector<colo::TimelineSink *> nodeSinks;
    bool ran = false;

    /** Cluster-layer metric handles (registered at construction). */
    struct MetricIds
    {
        obs::MetricId epochs = 0;
        obs::MetricId migrations = 0;
        obs::MetricId budgetAllocs = 0;
        obs::MetricId epochWall = 0;
        obs::MetricId poolSubmitted = 0;
        obs::MetricId poolExecuted = 0;
        obs::MetricId poolDepthMax = 0;
        obs::MetricId poolDepthMean = 0;
        obs::MetricId poolJobWallMean = 0;
        obs::MetricId poolJobWallMax = 0;
    };

    /** Cluster-layer registry (null = obs off). */
    std::unique_ptr<obs::MetricsRegistry> metrics;
    MetricIds mid;
    /** Span-trace writer (non-owning; null = no tracing). */
    obs::TraceWriter *tracer = nullptr;
};

/**
 * Run a batch of cluster experiments through driver::parallelMap on
 * `threads` workers (0 = driver::Pool::defaultThreadCount()), results
 * in config order, byte-identical at any thread count. Inside a
 * batch each cluster runs its nodes serially (threads = 1): the
 * batch already saturates the machine one cluster per worker.
 */
std::vector<ClusterResult>
runClusters(const std::vector<ClusterConfig> &configs, unsigned threads = 0);

/**
 * Aggregate cluster results into a util::TextTable, one row per
 * result, labeled by the caller-provided row names.
 */
util::TextTable
clusterTable(const std::vector<std::string> &labels,
             const std::vector<ClusterResult> &results);

} // namespace cluster
} // namespace pliant

#endif // PLIANT_CLUSTER_CLUSTER_HH
