/**
 * @file
 * Cluster-wide quality and shed budgets: the coordination layer that
 * closes the per-node actuation gap. Runtimes trade output quality
 * for QoS locally and admission queues shed locally, so a quiet
 * node's slack never funds a hot node's approximation — both just
 * actuate in place. The budget::Controller runs at cluster decision
 * epochs (alongside placement) and allocates each node a slice of
 *
 *  - a global quality budget: the total app inaccuracy the cluster
 *    may carry at once (sum over nodes of current-variant
 *    inaccuracies of unfinished apps), and
 *  - a global shed budget: the total deliberate shed entitlement
 *    (sum over nodes of per-interval shed fractions).
 *
 * Nodes enforce their slice locally: the runtime gates variant
 * escalation at the quality cap and the admission front-end clamps
 * QoS-guided shedding at the shed cap — which can *exceed* the
 * per-node default when the node's entitlement is funded by quiet
 * peers (the hierarchical budget-splitting shape of cluster->core
 * power controllers such as ControlPULP).
 *
 * Three split policies ship:
 *
 *  - Uniform:      budget / N per node, demand-blind — the static
 *                  baseline every adaptive split must beat.
 *  - Proportional: pressure-weighted water-filling over the nodes'
 *                  *current* demands (quality in use + headroom
 *                  wanted while pressured; shed in use + overload
 *                  excess). Surplus is spread evenly.
 *  - Learned:      the same water-fill over per-node EWMA (alpha
 *                  0.3) demand predictors (approx::ModelSlot, the
 *                  LearnedRuntime slot machinery), so one noisy
 *                  epoch does not whip the split and a recurring
 *                  diurnal/crowd pattern is anticipated by its
 *                  smoothed history.
 *
 * Every policy is a deterministic pure function of (controller
 * state, demand vector): allocation happens on one thread at the
 * epoch barrier, so cluster results stay byte-identical at any
 * worker thread count. Disabled budgets construct no
 * controller and gate nothing — byte-identical to the pre-budget
 * cluster (pinned, like admission's disabled path).
 */

#ifndef PLIANT_BUDGET_BUDGET_HH
#define PLIANT_BUDGET_BUDGET_HH

#include <cstddef>
#include <string>
#include <vector>

#include "approx/task.hh"

namespace pliant {
namespace budget {

/** How the global budgets are split across nodes. */
enum class BudgetPolicy { Uniform, Proportional, Learned };

/** Printable name (tables, CSV, CLI). */
std::string policyName(BudgetPolicy policy);

/** Parse a CLI policy name; throws util::FatalError on typos. */
BudgetPolicy parsePolicy(const std::string &name);

/** Cluster-wide budget configuration. */
struct BudgetConfig
{
    /**
     * Master switch. When false the cluster constructs no controller
     * and hands out no slices — byte-identical to a cluster without
     * this subsystem (pinned by regression tests).
     */
    bool enabled = false;

    /**
     * Global quality budget: the summed current-variant inaccuracy
     * (over all unfinished apps, all nodes) the cluster may spend at
     * once. 0 forbids approximation everywhere.
     */
    double qualityBudget = 0.0;

    /**
     * Global shed budget: the summed per-node deliberate shed
     * fractions the cluster may spend. A node's slice replaces its
     * local admission::kMaxShedFraction clamp, so a slice above the
     * per-node default is a hot node spending entitlement its quiet
     * peers are not using. The slices cap deliberate shedding only:
     * the "shed used" a run reports (TimePoint, ColoResult and
     * ClusterResult budgetShedUsed) also counts drop-tail overflow of
     * a full buffer, so it can exceed this budget.
     */
    double shedBudget = 0.0;

    BudgetPolicy policy = BudgetPolicy::Proportional;
};

/**
 * Validate an (enabled) BudgetConfig; throws util::FatalError on the
 * first out-of-range field. Disabled configs are inert whatever
 * their fields hold, keeping the disabled config space exactly the
 * pre-budget one.
 */
void validateBudgetConfig(const BudgetConfig &cfg);

/** One node's demand picture at an epoch barrier. */
struct NodeDemand
{
    std::string name;

    /** Worst p99/QoS over the node's services (0 before data). */
    double worstRatio = 0.0;

    /**
     * The node runtime's predicted post-approximation floor
     * (negative when the runtime publishes no model).
     */
    double reliefRatio = -1.0;

    /** Summed current-variant inaccuracy of unfinished apps. */
    double qualityInUse = 0.0;

    /**
     * Additional inaccuracy the node could still spend: summed
     * (most-approximate minus current) inaccuracy over unfinished
     * apps.
     */
    double qualityHeadroom = 0.0;

    /** Worst per-service shed fraction over the last interval. */
    double shedFraction = 0.0;
};

/** One node's slice of the global budgets. */
struct NodeSlice
{
    /** Cap on the node's summed app inaccuracy (< 0: unlimited). */
    double qualityCap = -1.0;

    /** Cap on the node's deliberate shed fraction (< 0: unlimited). */
    double shedCap = -1.0;
};

/**
 * The epoch-barrier budget allocator. Stateless for Uniform and
 * Proportional; the Learned policy keeps one EWMA demand slot per
 * node (approx::ModelSlot — the LearnedRuntime model container, so
 * the state serializes the same way checkpoints do).
 */
class Controller
{
  public:
    Controller(BudgetConfig cfg, std::size_t node_count);

    /**
     * Allocate per-node slices from the global budgets. Must be
     * called with one demand per node, node order fixed across
     * epochs. Deterministic: a pure function of the controller
     * state and the demand vector (Learned updates its EWMA state,
     * then allocates from the predictions).
     */
    std::vector<NodeSlice>
    allocate(const std::vector<NodeDemand> &demands);

    const BudgetConfig &config() const { return cfg; }

    /** Learned policy: the EWMA demand model of node i. */
    const approx::ModelSlot &model(std::size_t node) const
    {
        return models[node];
    }

  private:
    /** Demand-proportional water-fill of `total` over `demands`. */
    static std::vector<double>
    waterFill(double total, const std::vector<double> &demands);

    BudgetConfig cfg;
    std::size_t nodes;

    /**
     * Learned policy state: one slot per node, ratio[0] = quality
     * demand EWMA, ratio[1] = shed demand EWMA (samples[] counts
     * observations, first observation seeds the estimate — exactly
     * the LearnedRuntime observeSlot update).
     */
    std::vector<approx::ModelSlot> models;
};

/**
 * Derive a node's raw demands from its status. Shared by the
 * Proportional policy (used directly) and the Learned policy (fed
 * to the EWMA): quality demand is what the node uses plus, while
 * pressured (live or predicted-floor violation), the headroom it
 * could still spend; shed demand is what it sheds plus the overload
 * excess 1 - 1/worstRatio a violated node would need to turn away.
 */
double qualityDemandOf(const NodeDemand &demand);
double shedDemandOf(const NodeDemand &demand);

} // namespace budget
} // namespace pliant

#endif // PLIANT_BUDGET_BUDGET_HH
