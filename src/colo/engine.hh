/**
 * @file
 * The colocation engine: a composable simulate-measure-decide loop
 * over a generic set of tenants — N latency-critical interactive
 * services (each with its own QoS target, performance monitor, and
 * deterministic load scenario) colocated with M approximate
 * applications on one simulated server, under a runtime (Precise
 * baseline, Pliant, or Learned) that actuates approximation, core
 * reclamation, and optional LLC way partitioning.
 *
 * The engine owns the tick loop the original single-service
 * experiment harness hard-wired; every evaluation figure, the
 * examples, and the multi-service scenario sweeps now run through
 * it. A node's tenants are its ColoConfig's `services` list, and
 * each tenant's outcome is the matching entry of the result's
 * `services`; the paper's setup (one service at a constant offered
 * load) is the one-entry list makeColoConfig() builds.
 */

#ifndef PLIANT_COLO_ENGINE_HH
#define PLIANT_COLO_ENGINE_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "admission/admission.hh"
#include "approx/task.hh"
#include "colo/scenario.hh"
#include "core/actuator.hh"
#include "core/monitor.hh"
#include "core/runtime.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "server/interference.hh"
#include "server/partition.hh"
#include "server/spec.hh"
#include "services/interactive.hh"
#include "sim/time.hh"
#include "util/stats.hh"

namespace pliant {
namespace colo {

/** One latency-critical tenant of a colocation. */
struct ServiceSpec
{
    services::ServiceKind kind = services::ServiceKind::Memcached;

    /** Deterministic load trace driving this service. */
    Scenario scenario;

    /**
     * Instance name; empty defaults to the kind name. Reports,
     * traces, and tables key on this, so two shards of the same
     * service kind ("mc-a", "mc-b") are expressible as long as their
     * names differ. (Its default initializer lets brace-initialized
     * specs leave the name out.)
     */
    std::string name = {};

    /**
     * The name reports and validation key on: a view of `name`, or
     * of the kind's static name when `name` is empty. Valid while
     * this spec is alive and its name unchanged.
     */
    std::string_view resolvedName() const
    {
        return name.empty() ? services::serviceNameView(kind)
                            : std::string_view(name);
    }
};

/**
 * The settings every node of a run takes from the run itself: the
 * whole of a single colocation's control setup, and what a cluster
 * gives each of its nodes (Pliant runs one runtime per server). A
 * ColoConfig adds one node's tenants and server; a
 * cluster::ClusterConfig adds the nodes, placement and budgets, and
 * hands every node these settings, its own derived seed and its
 * placed subset of `apps`. checkRunConfig() validates them for both.
 */
struct RunConfig
{
    /**
     * Catalog names of the colocated approximate applications. A
     * ColoConfig's list may be empty: a cluster node whose placement
     * assigned it no apps still hosts its services (the cluster
     * drives such nodes with advanceUntil(keep_services_running); a
     * bare run() of an app-less config ends immediately, as there is
     * no work to wait for). A cluster places every app of its list
     * on one node.
     */
    std::vector<std::string> apps;

    /**
     * Optional per-app starting variants (parallel to `apps`). Used
     * by the Fig. 1 static exploration, where each selected variant
     * runs for the whole colocation; empty means all start precise.
     * Validated up front: the list must match `apps` in size and
     * every index must exist in the app's catalog variant list.
     */
    std::vector<int> initialVariants;

    core::RuntimeKind runtime = core::RuntimeKind::Pliant;
    core::ArbiterKind arbiter = core::ArbiterKind::RoundRobin;

    /**
     * Learned runtime only: condition the model on the full
     * per-service ratio vector (one slot per tenant) instead of the
     * collapsed worst ratio. Single-service runs are unaffected
     * either way; false is the ablation baseline.
     */
    bool learnedVector = true;

    /**
     * Pliant decision interval (paper default: 1 s). The revert
     * slack is not configurable: every runtime uses the paper's
     * 10% (core::kSlackThreshold).
     */
    sim::Time decisionInterval = sim::kSecond;

    /** Simulation tick. */
    sim::Time tick = 10 * sim::kMillisecond;

    /** Safety cap on the experiment duration. */
    sim::Time maxDuration = 600 * sim::kSecond;

    std::uint64_t seed = 1;

    /**
     * Section 6.5 extension: let the runtime isolate LLC ways for
     * the interactive services before reclaiming cores.
     */
    bool enableCachePartitioning = false;

    /**
     * Request-level admission control & async batching front-end,
     * applied to every interactive tenant. Disabled by default —
     * and a disabled front-end is byte-identical to an engine
     * without the subsystem (no queue is constructed, no RNG stream
     * is touched; pinned by regression tests).
     */
    admission::AdmissionConfig admission;

    /**
     * Observability knobs (src/obs/): a metrics registry recording
     * deterministic simulation counters plus wall-time profiling,
     * and span tracing via Engine::setTrace(). Default-off, and off
     * is byte-identical to an engine without the subsystem: no
     * registry is constructed, no instrumentation branch taken, no
     * RNG stream touched (pinned by regression tests). With metrics
     * on, every metric not tagged wall_time is exactly equal at any
     * pool-thread count. A cluster also applies them to its own
     * layer.
     */
    obs::ObsConfig observability;
};

/**
 * One colocation experiment: the run's settings (RunConfig) plus the
 * node's interactive tenants and server.
 */
struct ColoConfig : RunConfig
{
    /**
     * The paper's offered load, 78% of saturation: the constant load
     * makeColoConfig() gives its tenant by default. A constant, not
     * a setting, whatever tenants a config holds — each tenant's load
     * is its own scenario. (perfbench's inputs digest reads it.)
     */
    static constexpr double loadFraction = 0.78;

    /**
     * The tenant list: at least one service, each driven by its own
     * scenario (makeColoConfig() builds the paper's one constant-load
     * tenant). Duplicate *resolved names* are rejected (their
     * monitors and QoS targets would be indistinguishable in reports
     * and traces), but several tenants of the same kind are fine
     * once given distinct names.
     */
    std::vector<ServiceSpec> services;

    server::ServerSpec spec;
};

/** One service's slice of a sampled timeline point. */
struct ServicePoint
{
    double p99Us = 0.0;
    double loadFraction = 0.0;

    /** Admission front-end, this interval (neutral when disabled). */
    double shedFraction = 0.0;
    double queueDelayUs = 0.0;
};

/**
 * One sampled point of the experiment time series. Each tenant's
 * interval tail and offered load are its entry of `services`, in
 * config order.
 */
struct TimePoint
{
    sim::Time t = 0;
    std::vector<ServicePoint> services; ///< per-service series
    std::vector<int> variantOf;  ///< per-app active variant
    std::vector<int> reclaimed;  ///< per-app cores reclaimed
    int partitionWays = 0;       ///< LLC ways isolated for services
    core::Decision decision;     ///< what the runtime did

    /**
     * Budget accounting at this interval close, sampled only when
     * the node holds a budget slice (neutral otherwise): summed
     * current-variant inaccuracy of unfinished apps, the worst
     * per-service shed fraction, and the caps in force. The shed
     * fraction counts every shed request, drop-tail overflow
     * included, so it can exceed the shed cap: the cap binds
     * deliberate shedding only.
     */
    double budgetQualityUsed = 0.0;
    double budgetShedUsed = 0.0;
    double budgetQualityCap = -1.0;
    double budgetShedCap = -1.0;
};

/** Per-application outcome. */
struct AppOutcome
{
    std::string name;
    bool finished = false;
    double relativeExecTime = 0.0; ///< vs nominal precise execution
    double inaccuracy = 0.0;
    int switches = 0;
    double dynrecOverhead = 0.0;
    int maxCoresReclaimed = 0;
};

/**
 * Per-service outcome: the only place a tenant's QoS target, tail
 * latency and QoS-met fraction are reported.
 */
struct ServiceOutcome
{
    std::string name;
    double qosUs = 0.0; ///< QoS target (p99 bound)

    /** Overall p99 across every request sample of the run. */
    double overallP99Us = 0.0;

    /**
     * p99 across samples after the control loop's warmup (the first
     * 5 seconds), i.e. the steady-state tail latency the paper's
     * Fig. 5 bars report.
     */
    double steadyP99Us = 0.0;

    /** Mean of the per-interval p99 estimates. */
    double meanIntervalP99Us = 0.0;

    /** Fraction of decision intervals that met QoS. */
    double qosMetFraction = 0.0;

    /**
     * The service's whole-run steady-state P² sketch, carried for
     * cross-node aggregation (the CSV writers ignore it): mergeable
     * across nodes/shards via P2Quantile::merge() in a fixed
     * node-order fold (steadyP99Us is this sketch's value()).
     */
    util::P2Quantile steadySketch{0.99};

    /**
     * Whole-run admission rollups (neutral when the front-end is
     * disabled): fraction of all arrivals shed, dispatch-weighted
     * mean queue+batch delay, and mean effective batch size.
     */
    double shedFraction = 0.0;
    double meanQueueDelayUs = 0.0;
    double meanBatchSize = 1.0;
};

/**
 * One snapshot of the node's live app list. The timeline's per-app
 * vectors (`TimePoint::variantOf`, `reclaimed`) are positional over
 * the apps live at that instant; with migrations the list changes
 * mid-run, and these events let consumers (e.g. the CSV writer)
 * attribute every slot to the right application.
 */
struct RosterEvent
{
    sim::Time t = 0;
    std::vector<std::string> apps;
};

/**
 * Full experiment outcome. Per-tenant outcomes live in `services`,
 * one per config tenant in config order; the paper's single-service
 * setup reads `services[0]`.
 */
struct ColoResult
{
    std::string runtime;

    /**
     * Whether the admission front-end ran. Output writers key new
     * columns on this so disabled runs stay byte-identical.
     */
    bool admissionEnabled = false;

    /**
     * Whether this node held a cluster budget slice. Output writers
     * key the budget columns on this (the admission pattern), so
     * budget-less runs stay byte-identical.
     */
    bool budgetEnabled = false;

    /**
     * Whether the observability subsystem ran. Output writers key
     * the obs rollup columns on this (the admission/budget
     * pattern), so obs-off runs stay byte-identical.
     */
    bool obsEnabled = false;

    /** Folded metrics snapshot (empty when obs is off). */
    obs::MetricsSnapshot metrics;

    /**
     * Budget rollups (neutral without a slice): mean quality-in-use
     * and worst-tenant shed fraction over post-warmup intervals,
     * plus the final caps in force when the run ended. Shed used
     * counts drop-tail overflow too, so it can exceed the shed cap,
     * which binds deliberate shedding only.
     */
    double budgetQualityUsed = 0.0;
    double budgetShedUsed = 0.0;
    double budgetQualityCap = -1.0;
    double budgetShedCap = -1.0;

    /** Per-service summaries, in config order. */
    std::vector<ServiceOutcome> services;

    /** Max cores simultaneously reclaimed across all apps. */
    int maxCoresReclaimedTotal = 0;

    /**
     * Cores the services needed in a *sustained* way: the 60th
     * percentile of the per-interval total reclaimed count after
     * warmup. Brief burst-driven reclaims that are returned within
     * an interval or two do not register here (this is the statistic
     * behind the paper's Fig. 10 breakdown).
     */
    int typicalCoresReclaimed = 0;

    /** Max LLC ways the runtime isolated for the services. */
    int maxPartitionWays = 0;

    std::vector<AppOutcome> apps;
};

/**
 * Consumer of the engine's per-interval series, the only way to see
 * it: attach one via Engine::setTimelineSink() (or
 * cluster::Cluster::setTimelineSink() for a cluster node) to receive
 * every TimePoint and every roster change as it is produced. The
 * result keeps only the online rollups.
 *
 * Delivery contract: onRoster() fires once on attach with the apps
 * live at that instant, then once per migration in or out; onPoint()
 * fires for each closed decision interval, in simulated-time order.
 * A roster event at time t arrives AFTER the point at time t (points
 * are recorded before the epoch barrier that migrates), so a point
 * is positional over the latest roster received. Attach before the
 * first advanceUntil() to see the full series. Callbacks run on the
 * engine's tick thread; the sink must not touch the engine
 * reentrantly.
 */
class TimelineSink
{
  public:
    virtual ~TimelineSink() = default;
    virtual void onRoster(const RosterEvent &ev) = 0;
    virtual void onPoint(const TimePoint &tp) = 0;
};

/** A TimelineSink that keeps everything it receives. */
class TimelineRecorder : public TimelineSink
{
  public:
    void onRoster(const RosterEvent &ev) override { rosters.push_back(ev); }
    void onPoint(const TimePoint &tp) override { points.push_back(tp); }

    std::vector<RosterEvent> rosters;
    std::vector<TimePoint> points;
};

/**
 * Throw util::FatalError unless `n_apps` apps at their fair share
 * leave at least one core per service on `spec` (fair-core
 * starvation). The one node check a cluster can only make after
 * placement has assigned the apps.
 */
void validateCoreSplit(const server::ServerSpec &spec, std::size_t n_apps,
                       std::size_t n_services);

/**
 * Validate the settings a run shares with its nodes (throws
 * util::FatalError). In order: the app list against the catalog —
 * duplicates (the first app that recurs is named), an
 * initial-variant list neither empty nor parallel, unknown names,
 * out-of-range variant indices; timing — tick, then decision
 * interval, positive, the interval at least one tick, a positive
 * duration; admission fields. Linear in the app count.
 * checkConfig() and cluster::validateClusterConfig() both run it
 * first, so a shared setting fails with the same message in either
 * layer.
 */
void checkRunConfig(const RunConfig &cfg);

/**
 * Validate a ColoConfig in place, copying nothing (throws
 * util::FatalError). In order: an empty tenant list;
 * checkRunConfig(); duplicate resolved service names (the first
 * name that recurs is reported); scenario loads
 * (validateScenarioLoads); fair-core starvation. Engine's
 * constructor runs this pass, so every error surfaces before the
 * tick loop starts.
 */
void checkConfig(const ColoConfig &cfg);

/** checkConfig(), then return a copy of the tenant list. */
std::vector<ServiceSpec> validateConfig(const ColoConfig &cfg);

/**
 * The colocation engine: construct from a validated config, then
 * either call run() once, or drive it incrementally with
 * advanceUntil() + finalize() (the cluster layer's epoch loop).
 * Fully deterministic given the config (seed included), and
 * indifferent to how the run is chunked: any sequence of
 * advanceUntil() calls ending at maxDuration produces the same
 * bytes as one run().
 */
class Engine
{
  public:
    explicit Engine(ColoConfig cfg);
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Execute the experiment to completion. */
    ColoResult run();

    /**
     * Advance the tick loop until simulated time `until` (clamped to
     * maxDuration). By default the loop also stops once every app
     * has finished — run()'s semantics.
     *
     * With `keep_services_running`, a call that *starts* with no
     * unfinished apps (an idle cluster node, or one whose apps
     * completed earlier) still simulates its interactive services up
     * to `until`, so the node keeps serving, keeps reporting QoS,
     * and can receive migrants. A call during which the apps
     * transition to finished still stops at that exact tick — which
     * is what keeps a single-node Cluster byte-identical to a bare
     * run().
     * @return done().
     */
    bool advanceUntil(sim::Time until,
                      bool keep_services_running = false);

    /** Whether every app has finished (vacuously true with none). */
    bool appsFinished() const;

    /** Whether the run is over (apps finished or duration cap hit). */
    bool done() const;

    /** Current simulated time. */
    sim::Time now() const;

    /**
     * Summarize the run into a ColoResult. Call once, after the run
     * is done (run() does both).
     */
    ColoResult finalize();

    /**
     * Per-service reports from the most recently closed decision
     * interval (empty before the first interval closes). The cluster
     * placement layer reads these to compare node pressure.
     */
    const std::vector<core::ServiceReport> &lastReports() const
    {
        return reports;
    }

    /**
     * The runtime's per-service relief predictions (empty for
     * runtimes without a learned model). The cluster's QoS-aware
     * placement compares these against live pressure to migrate
     * before approximating further. Written into `out` (see
     * core::Runtime::reliefPredictions).
     */
    void reliefPredictions(std::vector<core::ServiceRelief> &out) const;

    /**
     * Attach a consumer of the per-interval series (null detaches).
     * Non-owning; the sink must outlive the run. It immediately
     * receives one roster event with the apps live now, so a sink
     * attached before the first advanceUntil() sees the complete
     * stream.
     */
    void setTimelineSink(TimelineSink *sink);

    /**
     * Attach a span-trace writer (null detaches). Non-owning; must
     * outlive the run. `pid` is the Chrome-trace process id this
     * engine's tracks live under (the cluster assigns node i pid
     * i + 1 and keeps pid 0 for itself). Emits track-name metadata
     * on attach. Tracing is independent of
     * cfg.observability.metrics; with no writer attached the tick
     * loop takes the exact pre-obs path.
     */
    void setTrace(obs::TraceWriter *writer, int pid = 0);

    /**
     * Budget hook: install this node's slice of the cluster-wide
     * quality and shed budgets (see budget::Controller). Called at
     * epoch barriers, between advanceUntil() chunks: the runtime
     * gates escalation at `quality_cap` and every tenant's admission
     * front-end clamps deliberate shedding at `shed_cap` (either
     * < 0: that lever is unlimited). Installing any slice turns on
     * the result's budget accounting.
     */
    void setBudgetSlice(double quality_cap, double shed_cap);

    /** Summed current-variant inaccuracy of unfinished apps. */
    double qualityInUse() const;

    /**
     * Additional inaccuracy this node could still spend: summed
     * (most-approximate minus current) variant inaccuracy over
     * unfinished apps. The budget controller reads this as the
     * node's escalation appetite.
     */
    double qualityHeadroom() const;

    /** Live app introspection (indices into the current task list). */
    std::size_t appCount() const { return tasks.size(); }
    const std::string &appName(std::size_t i) const;
    bool appFinished(std::size_t i) const;
    double appProgress(std::size_t i) const;

    /**
     * Migration support: detach the app at index `i`, returning its
     * serialized execution state. Any cores reclaimed from the app
     * are settled (handed back from the services) first, so the
     * source node's service/task core ledger stays balanced. The
     * runtime is notified via onTaskRemoved().
     */
    approx::TaskState detachApp(std::size_t i);

    /**
     * Attach a migrated app: restores the checkpoint as a new task
     * at this node's per-app fair share and notifies the runtime via
     * onTaskAdded(). The profile is resolved from the catalog by
     * state.app.
     *
     * Modeling assumption: app-side allocations are normalized per
     * app — the migrant executes at the destination's standard
     * per-app fair share, as if the batch containers were re-split
     * on arrival. The service-side allocation is untouched, and the
     * migrant's extra pressure is priced by the interference model
     * (services on a fuller node get slower, exactly the signal the
     * placement layer watches); the aggregate app-side core count is
     * not re-balanced against the original fair split.
     */
    void attachApp(const approx::TaskState &state);

    /**
     * Fair core allocation per app with n_services tenants (the
     * paper's split is n_services = 1).
     */
    static int fairShare(const server::ServerSpec &spec, int n_apps,
                         int n_services);

  private:
    class ServerActuator;

    /**
     * One interactive tenant's live state. It keeps no copy of its
     * ServiceSpec: `scenario` points into the engine's own
     * cfg.services. That list is never resized and the engine is
     * neither copyable nor movable, so the pointer stays valid.
     */
    struct Tenant
    {
        const Scenario *scenario = nullptr;
        std::unique_ptr<services::InteractiveService> service;
        std::unique_ptr<core::PerformanceMonitor> monitor;
        double lastLoad = 0.0;
        int qosMetIntervals = 0;
        int fairCores = 0;

        double rawLoad = 0.0; ///< this tick's scenario load
        admission::AdmissionOutcome admOut; ///< this tick's outcome

        /**
         * Admission front-end (null when disabled). Declared last:
         * a member named `admission` hides the namespace for the
         * declarations after it.
         */
        std::unique_ptr<admission::AdmissionQueue> admission;
    };

    /** Send the live app roster to the sink, if one is attached. */
    void recordRoster();

    /**
     * Online rollup state for one interactive tenant, updated at
     * every interval close: the interval p99s as plain chronological
     * sums, added in interval order (the golden numbers pin that
     * order), over the whole run and past the warmup.
     */
    struct SvcAccum
    {
        double sumP99All = 0.0; ///< whole-run fallback sum
        std::size_t nAll = 0;
        /** Post-warmup sum, the mean interval p99 finalize() reports. */
        double sumP99Post = 0.0;
        std::size_t nPost = 0;
    };

    ColoConfig cfg;
    std::vector<Tenant> tenants;
    /**
     * Profile copies (dynrec overhead zeroed for the baseline),
     * heap-allocated so tasks' profile pointers survive vector
     * growth when a migrant attaches.
     */
    std::vector<std::unique_ptr<approx::AppProfile>> profiles;
    std::vector<approx::ApproxTask> tasks;
    server::InterferenceModel interference;
    server::CachePartition partition;
    std::unique_ptr<ServerActuator> actuator;
    std::unique_ptr<core::Runtime> runtime;
    int appFairCores = 0;

    // --- run state, persistent across advanceUntil() chunks ---
    /** Simulated time; advances by cfg.tick per tick. */
    sim::Time simTime = 0;
    sim::Time nextDecision = 0;
    int totalIntervals = 0;
    bool finalized = false;
    /** Budget slice state (inactive until setBudgetSlice). */
    bool budgetActive = false;
    double qualitySliceCap = -1.0;
    double shedSliceCap = -1.0;
    /** Per-task max cores reclaimed (parallel to `tasks`). */
    std::vector<int> maxReclaimed;
    /** Per-tenant streaming rollups (parallel to `tenants`). */
    std::vector<SvcAccum> svcAccum;
    /** Running max of per-interval total reclaimed cores. */
    int maxTotalReclaimed = 0;
    /**
     * Post-warmup per-interval reclaimed totals, kept exactly (one
     * count per possible total, sized whenever a task arrives)
     * because typicalCoresReclaimed is a golden-pinned exact 60th
     * percentile, not a sketch.
     */
    util::IntPercentileWindow reclaimTotalsPost;
    /** Budget usage sums (same post/all split as SvcAccum). */
    double budgetQualitySumPost = 0.0;
    double budgetShedSumPost = 0.0;
    std::size_t budgetNPost = 0;
    double budgetQualitySumAll = 0.0;
    double budgetShedSumAll = 0.0;
    std::size_t budgetNAll = 0;
    /** Running max of LLC ways isolated for the services. */
    int maxWaysSeen = 0;
    /** Streaming consumer (non-owning; null = none). */
    TimelineSink *sink = nullptr;

    // --- observability (all null/empty when disabled) ---
    /** Metric handles, registered once at construction. */
    struct MetricIds
    {
        obs::MetricId ticks = 0;
        obs::MetricId intervals = 0;
        obs::MetricId samples = 0;
        obs::MetricId decisions[7] = {};
        obs::MetricId actuations = 0;
        obs::MetricId qosMet = 0;
        obs::MetricId qosViolated = 0;
        obs::MetricId intervalP99Hist = 0;
        obs::MetricId intervalP99Stat = 0;
        obs::MetricId shedFraction = 0;
        obs::MetricId queueDelay = 0;
        obs::MetricId gateArms = 0;
        obs::MetricId gateReleases = 0;
        obs::MetricId budgetQuality = 0;
        obs::MetricId budgetSlices = 0;
        obs::MetricId phasePrelude = 0;
        obs::MetricId phaseTenants = 0;
        obs::MetricId phaseTasks = 0;
        obs::MetricId phaseInterval = 0;
    };

    /** Registry (null = obs off: the exact pre-obs tick loop). */
    std::unique_ptr<obs::MetricsRegistry> metrics;
    MetricIds mid;
    /** Span-trace writer (non-owning; null = no tracing). */
    obs::TraceWriter *tracer = nullptr;
    int tracePid = 0;
    /** Per-tenant shed-gate state last seen by the tracer. */
    std::vector<bool> gateWasArmed;
    /** Simulated start of the currently open decision interval. */
    sim::Time intervalStart = 0;
    /** Hot-loop buffers, allocated once (see run loop comment). */
    std::vector<approx::PressureVector> taskPressure;
    std::vector<approx::PressureVector> svcPressure;
    std::vector<double> inflationBuf;
    std::vector<core::ServiceReport> reports;
    /**
     * Each tenant's co-runner services' pressures, refilled per
     * tenant per tick. Tenants are fixed for the engine's life, so
     * it is sized once and the warmed tick loop performs zero heap
     * allocations (pinned by the zero-alloc tests).
     */
    std::vector<approx::PressureVector> peerPressure;
    /**
     * One tick's samples, shared by the tenants in turn: each
     * tenant's service tick fills it and its monitor and load
     * bookkeeping read it before the next tenant ticks. Reserved to
     * kMaxSamplesPerTick at construction, so not even the first tick
     * allocates.
     */
    services::ServiceTickResult tickBuf;
    /**
     * The interval-close point, refilled in place at every close
     * while a sink is attached, and the runtime's relief predictions,
     * refilled at every close when admission is on. Both keep their
     * capacity.
     */
    TimePoint closePoint;
    std::vector<core::ServiceRelief> reliefBuf;
    /** Partially-built result: the identity fields. */
    ColoResult partial;
};

/**
 * Convenience: run one (service, apps, runtime) combination with
 * defaults and return the result.
 */
ColoResult runColocation(services::ServiceKind service,
                         const std::vector<std::string> &apps,
                         core::RuntimeKind runtime,
                         std::uint64_t seed = 1,
                         double load_fraction = ColoConfig::loadFraction);

/**
 * Run a batch of colocation experiments through the parallel
 * experiment driver (driver::parallelMap) on `threads` workers
 * (0 = driver::Pool::defaultThreadCount()), results in config order.
 * Each experiment is fully deterministic given its ColoConfig
 * (cfg.seed included), so the returned vector is byte-identical at
 * any thread count — the property the figure benches and the driver
 * determinism test rely on.
 */
std::vector<ColoResult> runColocations(const std::vector<ColoConfig> &configs,
                                       unsigned threads = 0);

/**
 * Build the ColoConfig runColocation() would run — the paper's
 * setup, one `service` tenant at a constant `load_fraction` — so
 * batch callers can assemble config lists with identical semantics.
 */
ColoConfig makeColoConfig(services::ServiceKind service,
                          const std::vector<std::string> &apps,
                          core::RuntimeKind runtime,
                          std::uint64_t seed = 1,
                          double load_fraction = ColoConfig::loadFraction);

/**
 * Build a multi-service config: one tenant per spec, shared app
 * list, everything else defaulted.
 */
ColoConfig makeMultiServiceConfig(std::vector<ServiceSpec> services,
                                  const std::vector<std::string> &apps,
                                  core::RuntimeKind runtime,
                                  std::uint64_t seed = 1);

} // namespace colo
} // namespace pliant

#endif // PLIANT_COLO_ENGINE_HH
