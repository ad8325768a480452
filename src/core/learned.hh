/**
 * @file
 * Online-learned variant selection (the Section 6.5 limitation turned
 * into an extension).
 *
 * Pliant requires offline profiling to know each application's
 * ordered variant list. In public clouds the provider has no source
 * access, so the paper suggests learning the relative impact of
 * approximate versions at runtime. LearnedRuntime does exactly that:
 * it knows only *how many* variants each application exposes (the
 * signal numbers registered with the recompilation runtime), and
 * learns an EWMA estimate of normalized tail pressure (p99/QoS, so
 * heterogeneous tenants with microsecond and millisecond targets
 * share one scale) under each variant.
 *
 * With a single latency-critical service the model is a scalar per
 * (task, variant): the worst (only) service's ratio — the original
 * formulation, kept byte-identical. With several services the model
 * is *vector-conditioned*: one slot per service instance name, so
 * the controller can tell "one tenant barely violating" from "all
 * tenants melting" and pick the variant whose predicted max-ratio
 * over ALL tenants clears QoS with margin, rather than acting on a
 * collapsed worst-case scalar that mixes observations from different
 * tenants (the hierarchical-telemetry argument of ControlPULP-style
 * controllers). Setting LearnedParams::vectorConditioned to false
 * restores the scalar model under any service count — the ablation
 * baseline.
 *
 * Escalation probes unexplored variants incrementally; once the map
 * is learned, the controller jumps directly to the least-approximate
 * variant whose learned pressure clears QoS with margin, avoiding
 * Pliant's deliberate over-approximation (jump-to-most) at the cost
 * of a longer convergence phase.
 *
 * Cross-application interactions are not modeled (each task's
 * estimate is conditioned only on its own variant) — the same
 * independence approximation the round-robin arbiter makes. Model
 * state survives cluster migrations: exportModel() serializes a
 * task's slots into its approx::TaskState checkpoint and
 * onTaskAdded() rehydrates them, keyed by service name, so a
 * migrated app only relearns tenants the destination node actually
 * renames.
 */

#ifndef PLIANT_CORE_LEARNED_HH
#define PLIANT_CORE_LEARNED_HH

#include <string>
#include <vector>

#include "core/actuator.hh"
#include "core/runtime.hh"

namespace pliant {
namespace core {

/** Tuning parameters of the learned controller. */
struct LearnedParams
{
    /** Consecutive slack intervals before a de-escalation. */
    int revertHysteresis = 3;

    /**
     * Condition per-variant estimates on the full vector of
     * per-service ratios (one model slot per tenant) instead of the
     * collapsed worst ratio. Only changes behavior with two or more
     * services — single-service runs always take the scalar path, so
     * they stay byte-identical to the original controller.
     */
    bool vectorConditioned = true;
};

/**
 * Runtime that learns variant impact online instead of consuming an
 * offline pareto ordering.
 */
class LearnedRuntime : public Runtime
{
  public:
    using Runtime::onInterval;

    LearnedRuntime(Actuator &actuator, LearnedParams params,
                   std::uint64_t seed);

    Decision
    onInterval(const std::vector<ServiceReport> &services) override;

    void onTaskRemoved(int idx) override;
    void onTaskAdded(const approx::TaskState &state) override;
    void exportModel(int idx,
                     approx::TaskState &state) const override;
    void reliefPredictions(std::vector<ServiceRelief> &out) const override;

    std::string name() const override { return "learned"; }

    /**
     * Learned aggregate tail-pressure estimate for task t at variant
     * v: the EWMA of the worst service's p99/QoS ratio observed while
     * the task ran at that variant (1.0 = exactly at QoS).
     */
    double estimate(int task, int variant) const;

    /** Whether task t's variant v has been observed at least once. */
    bool explored(int task, int variant) const;

    /**
     * Learned per-service estimate for task t at variant v,
     * conditioned on the named tenant's own ratio vector entry.
     * Returns 0 when the slot has never been observed.
     */
    double estimate(int task, int variant,
                    const std::string &service) const;

    /** Whether the named tenant's slot saw (t, v) at least once. */
    bool explored(int task, int variant,
                  const std::string &service) const;

    /** Number of decision intervals consumed so far. */
    int intervals() const { return intervalCount; }

  private:
    struct TaskModel
    {
        /** Aggregate worst-ratio slot (the original scalar model). */
        approx::ModelSlot worst;

        /** Per-service slots, keyed by ModelSlot::key (first-seen
         * order — deterministic because every tenant reports every
         * interval). */
        std::vector<approx::ModelSlot> slots;
    };

    /** Number of variants task t's model vectors must hold. */
    std::size_t variantCountOf(int t) const;

    /** The named slot of task t, created (zeroed) on first use. */
    approx::ModelSlot &slotFor(TaskModel &model,
                               const std::string &service,
                               std::size_t variants);
    const approx::ModelSlot *findSlot(const TaskModel &model,
                                      const std::string &service) const;

    /** Record the interval observation against active variants. */
    void observe(const std::vector<ServiceReport> &services);

    /**
     * Predicted max-ratio over the current tenant vector for task t
     * at variant v; sets `known` to false when any tenant's slot has
     * not observed (t, v) yet.
     */
    double predictedMaxRatio(int t, int v, bool &known) const;

    /**
     * Deepest variant of task t the quality cap affords (its most
     * approximate one when the cap is unlimited). The escalation
     * paths search candidate variants only up to this bound; when it
     * equals the current variant the task is budget-blocked and the
     * controller falls through to core reclamation.
     */
    int effectiveMost(int t) const;

    /** Summed current-variant inaccuracy of unfinished tasks. */
    double qualityInUse() const;

    Decision escalate();
    Decision deescalate();
    Decision escalateVector();
    Decision deescalateVector();
    Decision reclaimAny();

    Actuator &act;
    LearnedParams prm;
    util::Rng rng;
    std::vector<TaskModel> models;
    /** Tenant names of the latest interval's report vector. */
    std::vector<std::string> serviceNames;
    /** Whether the latest interval took the vector-conditioned path. */
    bool vectorActive = false;
    int rrPointer = 0;
    int slackStreak = 0;
    int intervalCount = 0;
};

} // namespace core
} // namespace pliant

#endif // PLIANT_CORE_LEARNED_HH
