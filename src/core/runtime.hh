/**
 * @file
 * The Pliant runtime algorithm (Fig. 3 of the paper) and the precise
 * baseline.
 *
 * Execution starts in precise mode with a fair core allocation. On a
 * QoS violation the co-scheduled application is switched to its most
 * approximate variant; if violations persist, cores are reclaimed
 * one per decision interval. Once QoS is met with more than the
 * slack threshold (10%) to spare, the runtime incrementally reverts:
 * reclaimed cores are returned first, then approximation is stepped
 * back toward precise. With multiple approximate applications, a
 * round-robin arbiter spreads quality/resource sacrifice evenly; an
 * impact-aware arbiter (the Section 6.5 extension) targets the app
 * whose actuation buys the most contention relief per unit of
 * quality loss.
 */

#ifndef PLIANT_CORE_RUNTIME_HH
#define PLIANT_CORE_RUNTIME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "approx/task.hh"
#include "core/actuator.hh"
#include "core/monitor.hh"
#include "util/rng.hh"

namespace pliant {
namespace core {

/** Kinds of runtimes the experiments compare. */
enum class RuntimeKind { Precise, Pliant, Learned };

/** Multi-application arbitration policies. */
enum class ArbiterKind { RoundRobin, ImpactAware };

/**
 * Latency slack (fraction of QoS) a runtime requires on every
 * service before it reverts (paper: 10%). Shared by the Pliant and
 * Learned controllers.
 */
inline constexpr double kSlackThreshold = 0.10;

/** Tuning parameters of the Pliant control loop. */
struct RuntimeParams
{
    /**
     * Consecutive high-slack intervals required before a revert
     * step. Dampens ping-ponging between states (the overhead the
     * paper attributes to lowering the slack threshold too far).
     */
    int revertHysteresis = 2;

    /**
     * Adaptive backoff: when a revert is punished by a violation
     * within `punishWindow` intervals, the required slack streak
     * doubles (capped at 16); it decays by one after every 12
     * consecutive met intervals. This is how the runtime finds the
     * least-approximate stable state instead of oscillating around
     * the QoS boundary.
     */
    int punishWindow = 3;

    ArbiterKind arbiter = ArbiterKind::RoundRobin;

    /**
     * Section 6.5 extension: when enabled, the violation path tries
     * to isolate LLC ways for the interactive service *before*
     * reclaiming cores (approximation -> cache -> cores), and the
     * slack path undoes actuations in the reverse order.
     */
    bool enableCachePartitioning = false;
};

/** What the runtime decided at one interval, for tracing/tests. */
struct Decision
{
    enum class Kind
    {
        None,           ///< QoS met, insufficient slack: hold state
        SwitchToMost,   ///< violation: one app to most-approximate
        ReclaimCore,    ///< violation at most-approx: take one core
        ReturnCore,     ///< slack: give one core back
        StepDown,       ///< slack: one app one variant toward precise
        GrowPartition,  ///< violation: isolate one more LLC way
        ShrinkPartition ///< slack: release one isolated LLC way
    };
    Kind kind = Kind::None;
    int task = -1; ///< which app was actuated (-1 if none)
};

/** Printable name of a decision kind. */
std::string decisionName(Decision::Kind kind);

/**
 * "decision:" + decisionName(kind) as a static string: the trace
 * instant name of an actuation, built without allocating.
 */
const char *decisionEventName(Decision::Kind kind);

/**
 * What one latency-critical tenant looked like over the closing
 * decision interval: the monitor's report plus the tenant's QoS
 * target. Runtimes receive one of these per colocated service.
 */
struct ServiceReport
{
    IntervalReport interval;
    double qosUs = 0.0;

    /**
     * Service instance name. Runtimes that condition per-service
     * model state on the tenant vector key their slots on it; the
     * scalar control paths ignore it (and the single-service
     * shorthand leaves it empty).
     */
    std::string name;

    /**
     * Admission-control counters for the closing interval, at their
     * neutral values when the admission front-end is disabled: the
     * fraction of arrivals shed (0), the dispatch-weighted mean
     * queue+batch delay already folded into the monitored latencies
     * (0), and the mean effective batch size (1 = unbatched). The
     * cluster's placement layer reads shedFraction as a pressure
     * signal — a node that meets QoS only by turning requests away
     * is still pressured.
     */
    double shedFraction = 0.0;
    double queueDelayUs = 0.0;
    double batchSize = 1.0;

    /** Tail pressure normalized by the QoS target (1.0 = at QoS). */
    double
    ratio() const
    {
        return qosUs > 0.0 ? interval.p99Us / qosUs : 0.0;
    }
};

/**
 * The most violated service's p99/QoS ratio — the severity signal
 * the control loops act on. A value above 1 means at least one
 * service is in violation. Returns 0 for an empty vector.
 */
double worstRatio(const std::vector<ServiceReport> &services);

/**
 * A runtime's prediction of how far local actuation can still push
 * one service's tail pressure down: the lowest p99/QoS ratio the
 * runtime has learned it can reach for `service` by deepening the
 * approximation of any one of its current tasks. The cluster's
 * QoS-aware placement compares these against live pressure to decide
 * migrate-before-approximate (a node whose predicted floor is still
 * in violation cannot save itself locally).
 */
struct ServiceRelief
{
    std::string service;

    /** Predicted achievable p99/QoS ratio (1.0 = exactly at QoS). */
    double predictedRatio = 0.0;
};

/**
 * Remap a round-robin cursor after the task at `removed_idx` left a
 * task list that now holds `task_count` entries: the cursor keeps
 * pointing at the same task when one before it departs, and wraps
 * when it falls off the end. Shared by every controller with a
 * rotating victim pointer.
 */
void adjustCursorAfterRemoval(int &cursor, int removed_idx,
                              int task_count);

/**
 * Base interface: a runtime is invoked once per decision interval
 * with one report per latency-critical service. A violation on ANY
 * service must trigger the actuation path; reverts require slack on
 * every service.
 */
class Runtime
{
  public:
    virtual ~Runtime() = default;

    /** One decision-interval step over all services' reports. */
    virtual Decision
    onInterval(const std::vector<ServiceReport> &services) = 0;

    /**
     * Single-service shorthand: wraps (p99, qos) into a one-entry
     * report vector. Derived classes should `using
     * Runtime::onInterval;` to keep it visible next to their
     * override.
     */
    Decision onInterval(double p99_us, double qos_us);

    /**
     * Topology hooks for the cluster migration path: the engine calls
     * these after removing the task at `idx` from, or appending a new
     * task to, the actuator's task list (so taskCount() already
     * reflects the change). Controllers with per-task state must
     * remap it; the defaults are no-ops. onTaskAdded receives the
     * migrant's checkpoint so a controller can rehydrate any model
     * state exportModel() serialized on the source node.
     */
    virtual void onTaskRemoved(int idx) { (void)idx; }
    virtual void onTaskAdded(const approx::TaskState &state) { (void)state; }

    /**
     * Serialize the per-task model state of the task at `idx` into a
     * migration checkpoint. Called by the engine's detach path
     * *before* onTaskRemoved(idx). Controllers without per-task
     * models leave the checkpoint untouched.
     */
    virtual void exportModel(int idx, approx::TaskState &state) const
    {
        (void)idx;
        (void)state;
    }

    /**
     * Per-service relief predictions (see ServiceRelief), written
     * into `out` in place of its contents. Overrides reuse the
     * existing entries (vector and name capacity), so a caller
     * reusing one buffer every interval stops allocating once it
     * has grown.
     * Empty when the runtime has no learned model — the placement
     * layer then falls back to live pressure alone.
     */
    virtual void reliefPredictions(std::vector<ServiceRelief> &out) const
    {
        out.clear();
    }

    /**
     * Budget hook: cap the summed current-variant inaccuracy of the
     * runtime's unfinished tasks (the node's slice of a cluster-wide
     * quality budget). Escalations that would push quality-in-use
     * over the cap are gated to the deepest affordable variant (or
     * blocked entirely); de-escalation is always allowed. Negative
     * (the default) means unlimited — every gate is a no-op and
     * behavior is byte-identical to the pre-budget runtime. Updated
     * at cluster epoch barriers, between decision intervals.
     */
    void setQualityCap(double cap) { qualityCap = cap; }

    virtual std::string name() const = 0;

  protected:
    double qualityCap = -1.0;
};

/**
 * Baseline: static fair allocation, always precise. Never actuates.
 */
class PreciseRuntime : public Runtime
{
  public:
    using Runtime::onInterval;

    Decision
    onInterval(const std::vector<ServiceReport> &) override
    {
        return Decision{};
    }

    std::string name() const override { return "precise"; }
};

/**
 * The Pliant controller over an Actuator.
 */
class PliantRuntime : public Runtime
{
  public:
    using Runtime::onInterval;

    PliantRuntime(Actuator &actuator, RuntimeParams params,
                  std::uint64_t seed);

    Decision
    onInterval(const std::vector<ServiceReport> &services) override;

    void onTaskRemoved(int idx) override;

    std::string name() const override { return "pliant"; }

    const RuntimeParams &params() const { return prm; }

  private:
    /** Violation path: approximate first, then reclaim cores. */
    Decision actOnViolation();

    /** Slack path: return cores first, then step approximation down. */
    Decision actOnSlack();

    /** Next unfinished task index in round-robin order, or -1. */
    int nextTask(int &pointer, bool (PliantRuntime::*eligible)(int) const)
        const;

    bool canEscalate(int t) const;
    bool canReclaim(int t) const;
    bool canReclaimAny(int t) const;
    bool canReturn(int t) const;
    bool canStepDown(int t) const;

    /**
     * Deepest variant of task t the quality cap can afford (the most
     * approximate one when the cap is unlimited), or -1 when no
     * deeper variant fits. The escalation path jumps here instead of
     * unconditionally to most-approximate.
     */
    int affordableTarget(int t) const;

    /** Summed current-variant inaccuracy of unfinished tasks. */
    double qualityInUse() const;

    /** Pick the victim for escalation under the configured arbiter. */
    int pickEscalationTarget();
    int pickReclaimTarget(bool relaxed);

    Actuator &act;
    RuntimeParams prm;
    util::Rng rng;
    int rrPointer;
    int slackStreak = 0;
    int requiredStreak;
    int sinceRevert = 1 << 20;
    int metStreak = 0;
    /** Worst p99/QoS when the partition was last grown (<0: none). */
    double ratioAtLastGrow = -1.0;
    /** Consecutive partition grows that failed to improve latency. */
    int futileGrows = 0;
    double lastRatio = 0.0;
};

} // namespace core
} // namespace pliant

#endif // PLIANT_CORE_RUNTIME_HH
