#include "budget/budget.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pliant {
namespace budget {

namespace {

/** Learned policy: EWMA smoothing factor of the demand model. */
constexpr double kAlpha = 0.3;

} // namespace

std::string
policyName(BudgetPolicy policy)
{
    switch (policy) {
    case BudgetPolicy::Uniform:
        return "uniform";
    case BudgetPolicy::Proportional:
        return "proportional";
    case BudgetPolicy::Learned:
        return "learned";
    }
    return "unknown";
}

BudgetPolicy
parsePolicy(const std::string &name)
{
    if (name == "uniform")
        return BudgetPolicy::Uniform;
    if (name == "proportional")
        return BudgetPolicy::Proportional;
    if (name == "learned")
        return BudgetPolicy::Learned;
    util::fatal("unknown budget policy '", name,
                "' (expected uniform, proportional, or learned)");
    return BudgetPolicy::Uniform; // unreachable
}

void
validateBudgetConfig(const BudgetConfig &cfg)
{
    if (!cfg.enabled)
        return;
    if (cfg.qualityBudget < 0.0)
        util::fatal("quality budget must be non-negative (got ",
                    cfg.qualityBudget, ")");
    if (cfg.shedBudget < 0.0)
        util::fatal("shed budget must be non-negative (got ",
                    cfg.shedBudget, ")");
}

double
qualityDemandOf(const NodeDemand &demand)
{
    // A pressured node (live violation, or a learned floor that says
    // local approximation is still needed) wants everything it could
    // spend; a relaxed node only needs to keep what it already uses
    // (its runtime will step the rest down on its own slack path).
    const bool pressured =
        demand.worstRatio > 1.0 || demand.reliefRatio > 1.0;
    const double headroom = std::max(demand.qualityHeadroom, 0.0);
    return std::max(demand.qualityInUse, 0.0) +
           (pressured ? headroom : 0.0);
}

double
shedDemandOf(const NodeDemand &demand)
{
    // The overload excess a violated node would need to turn away to
    // land at QoS: serving rate scales ~1/ratio, so shedding
    // 1 - 1/ratio of arrivals removes the excess. On top of what the
    // node already sheds, capped at darkening the whole service.
    const double excess = demand.worstRatio > 1.0
        ? 1.0 - 1.0 / demand.worstRatio
        : 0.0;
    return std::clamp(demand.shedFraction + excess, 0.0, 1.0);
}

Controller::Controller(BudgetConfig config, std::size_t node_count)
    : cfg(config), nodes(node_count)
{
    validateBudgetConfig(cfg);
    if (!cfg.enabled)
        util::panic("budget::Controller constructed from a disabled "
                    "config");
    if (nodes == 0)
        util::panic("budget::Controller needs at least one node");
    if (cfg.policy == BudgetPolicy::Learned) {
        models.resize(nodes);
        for (auto &slot : models) {
            slot.ratio.assign(2, 0.0);
            slot.samples.assign(2, 0);
        }
    }
}

std::vector<double>
Controller::waterFill(double total, const std::vector<double> &demands)
{
    const std::size_t n = demands.size();
    double sum = 0.0;
    for (double d : demands)
        sum += d;
    std::vector<double> fill(n, 0.0);
    if (sum <= 0.0) {
        // Nobody wants anything: split evenly so early epochs (before
        // the first interval closes) behave like the Uniform policy.
        for (auto &f : fill)
            f = total / static_cast<double>(n);
        return fill;
    }
    if (sum <= total) {
        // Everyone gets their ask; the surplus is spread evenly so a
        // demand spike can be absorbed locally before the next epoch
        // re-splits.
        const double surplus =
            (total - sum) / static_cast<double>(n);
        for (std::size_t i = 0; i < n; ++i)
            fill[i] = demands[i] + surplus;
        return fill;
    }
    // Oversubscribed: scale everyone down proportionally.
    for (std::size_t i = 0; i < n; ++i)
        fill[i] = total * demands[i] / sum;
    return fill;
}

std::vector<NodeSlice>
Controller::allocate(const std::vector<NodeDemand> &demands)
{
    if (demands.size() != nodes)
        util::panic("budget::Controller::allocate got ",
                    demands.size(), " demands for ", nodes, " nodes");

    std::vector<double> quality(nodes, 0.0);
    std::vector<double> shed(nodes, 0.0);
    switch (cfg.policy) {
    case BudgetPolicy::Uniform:
        // Demand-blind: every node gets budget / N regardless of
        // pressure — the baseline the adaptive splits must beat.
        break;

    case BudgetPolicy::Proportional:
        for (std::size_t i = 0; i < nodes; ++i) {
            quality[i] = qualityDemandOf(demands[i]);
            shed[i] = shedDemandOf(demands[i]);
        }
        break;

    case BudgetPolicy::Learned:
        // One EWMA update per node, then allocate from the smoothed
        // predictions (the LearnedRuntime observeSlot update: the
        // first observation seeds the estimate).
        for (std::size_t i = 0; i < nodes; ++i) {
            approx::ModelSlot &slot = models[i];
            const double obs[2] = {qualityDemandOf(demands[i]),
                                   shedDemandOf(demands[i])};
            for (std::size_t k = 0; k < 2; ++k) {
                if (slot.samples[k] == 0)
                    slot.ratio[k] = obs[k];
                else
                    slot.ratio[k] = kAlpha * obs[k] +
                                    (1.0 - kAlpha) * slot.ratio[k];
                ++slot.samples[k];
            }
            quality[i] = slot.ratio[0];
            shed[i] = slot.ratio[1];
        }
        break;
    }

    std::vector<double> quality_fill;
    std::vector<double> shed_fill;
    if (cfg.policy == BudgetPolicy::Uniform) {
        quality_fill.assign(
            nodes, cfg.qualityBudget / static_cast<double>(nodes));
        shed_fill.assign(nodes,
                         cfg.shedBudget / static_cast<double>(nodes));
    } else {
        quality_fill = waterFill(cfg.qualityBudget, quality);
        shed_fill = waterFill(cfg.shedBudget, shed);
    }

    std::vector<NodeSlice> slices(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
        slices[i].qualityCap = quality_fill[i];
        // A shed fraction is a fraction: entitlement beyond 1.0
        // cannot be spent, so it is clamped (conservation holds as
        // an inequality — the cluster never sheds more than the
        // budget, it may shed less).
        slices[i].shedCap = std::clamp(shed_fill[i], 0.0, 1.0);
    }
    return slices;
}

} // namespace budget
} // namespace pliant
