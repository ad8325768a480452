#include "cluster/placement.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"

namespace pliant {
namespace cluster {

std::string
placementName(PlacementKind kind)
{
    switch (kind) {
    case PlacementKind::Static:
        return "static";
    case PlacementKind::LeastLoaded:
        return "least-loaded";
    case PlacementKind::QosAware:
        return "qos-aware";
    }
    return "unknown";
}

std::vector<std::size_t>
StaticPlacement::initialPlacement(
    std::size_t nodeCount, const std::vector<approx::AppProfile> &apps)
{
    std::vector<std::size_t> assignment(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i)
        assignment[i] = i % nodeCount;
    return assignment;
}

namespace {

/**
 * Longest-processing-time-first: place heavy apps first, each onto
 * the node with the least accumulated nominal work. Ties break
 * toward the lower index, keeping the result deterministic.
 */
std::vector<std::size_t>
lptPlacement(std::size_t nodeCount,
             const std::vector<approx::AppProfile> &apps)
{
    std::vector<std::size_t> order(apps.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return apps[a].nominalExecSeconds >
                                apps[b].nominalExecSeconds;
                     });

    std::vector<double> load(nodeCount, 0.0);
    std::vector<std::size_t> assignment(apps.size(), 0);
    for (std::size_t app : order) {
        std::size_t lightest = 0;
        for (std::size_t n = 1; n < nodeCount; ++n)
            if (load[n] < load[lightest])
                lightest = n;
        assignment[app] = lightest;
        load[lightest] += apps[app].nominalExecSeconds;
    }
    return assignment;
}

} // namespace

std::vector<std::size_t>
LeastLoadedPlacement::initialPlacement(
    std::size_t nodeCount, const std::vector<approx::AppProfile> &apps)
{
    return lptPlacement(nodeCount, apps);
}

std::vector<std::size_t>
QosAwarePlacement::initialPlacement(
    std::size_t nodeCount, const std::vector<approx::AppProfile> &apps)
{
    return lptPlacement(nodeCount, apps);
}

namespace {

/** QosAware: the source must exceed this pressure (in violation). */
constexpr double kPressureThreshold = 1.0;

/** QosAware: the destination must be below this ratio (headroom). */
constexpr double kHeadroomThreshold = 0.90;

/** QosAware: epochs a migrated app stays pinned before moving again. */
constexpr int kCooldownEpochs = 3;

/**
 * Effective migration pressure of a node: its live worst ratio,
 * floored by the runtime's predicted post-approximation ratio when
 * one is published. A node whose learned model says even full
 * approximation leaves a tenant at 1.3x QoS is a migration source at
 * pressure 1.3 regardless of how much quality its control loop is
 * currently burning to mask the violation — migrate before
 * approximating further. The same logic extends to the admission
 * front-end: a node shedding fraction f of its arrivals has a
 * latency picture measured on only (1 - f) of the demand, so its
 * pressure is rescaled by 1 / (1 - f) — the node is treated as the
 * overloaded node it would be were it serving everything. Both
 * corrections are no-ops for nodes without a model / without
 * admission, keeping pre-admission experiments bit-unchanged.
 */
double
sourcePressure(const NodeStatus &node)
{
    double pressure = node.reliefRatio >= 0.0
        ? std::max(node.worstRatio, node.reliefRatio)
        : node.worstRatio;
    if (node.admissionShedFraction > 0.0)
        pressure /=
            std::max(0.05, 1.0 - node.admissionShedFraction);
    return pressure;
}

} // namespace

std::vector<MigrationDecision>
QosAwarePlacement::rebalance(const std::vector<NodeStatus> &nodes,
                             sim::Time)
{
    // Tick down cooldowns first so a freshly-moved app unpins after
    // exactly kCooldownEpochs epochs.
    for (auto &cd : cooldowns)
        --cd.epochsLeft;
    cooldowns.erase(std::remove_if(cooldowns.begin(), cooldowns.end(),
                                   [](const Cooldown &cd) {
                                       return cd.epochsLeft <= 0;
                                   }),
                    cooldowns.end());

    // Source: the node with unfinished apps whose services are most
    // over QoS — by effective pressure, so relief predictions count.
    // Destination: any node with the most headroom — including nodes
    // whose own apps already finished, which are the cheapest hosts
    // of all.
    const NodeStatus *src = nullptr;
    const NodeStatus *dst = nullptr;
    for (const auto &node : nodes) {
        const bool has_movable_app = std::any_of(
            node.apps.begin(), node.apps.end(),
            [](const AppStatus &app) { return !app.finished; });
        if (has_movable_app &&
            (!src || sourcePressure(node) > sourcePressure(*src)))
            src = &node;
        if (!dst || node.worstRatio < dst->worstRatio)
            dst = &node;
    }
    if (!src || !dst || src->node == dst->node)
        return {};
    if (sourcePressure(*src) <= kPressureThreshold ||
        dst->worstRatio >= kHeadroomThreshold)
        return {};

    // Move the unfinished, un-pinned app with the most remaining
    // work: it relieves the pressured node for the longest time, and
    // its quality has the most to gain from a calmer box.
    const AppStatus *victim = nullptr;
    for (const auto &app : src->apps) {
        if (app.finished)
            continue;
        const bool pinned = std::any_of(
            cooldowns.begin(), cooldowns.end(),
            [&](const Cooldown &cd) { return cd.app == app.name; });
        if (pinned)
            continue;
        if (!victim ||
            app.remainingWorkSeconds > victim->remainingWorkSeconds)
            victim = &app;
    }
    if (!victim)
        return {};

    cooldowns.push_back({victim->name, kCooldownEpochs});
    return {{victim->name, src->node, dst->node}};
}

std::unique_ptr<PlacementPolicy>
makePlacement(PlacementKind kind)
{
    switch (kind) {
    case PlacementKind::Static:
        return std::make_unique<StaticPlacement>();
    case PlacementKind::LeastLoaded:
        return std::make_unique<LeastLoadedPlacement>();
    case PlacementKind::QosAware:
        return std::make_unique<QosAwarePlacement>();
    }
    util::panic("unknown placement kind");
}

} // namespace cluster
} // namespace pliant
