/**
 * @file
 * Placement policies for the cluster layer: where approximate apps
 * land initially, and whether they move between nodes while running.
 *
 * A policy sees the cluster only through summaries — per-app nominal
 * work from the catalog at placement time, and per-node
 * core::ServiceReport-derived QoS pressure at every cluster decision
 * epoch — mirroring how a real cluster manager would sit above
 * per-node control loops (the shape hierarchical controllers such as
 * ControlPULP and federated HPC schedulers argue for).
 *
 * Three policies ship:
 *
 *  - Static:     round-robin by app index; never migrates. The
 *                baseline, and the policy that keeps results
 *                comparable with hand-assigned experiments.
 *  - LeastLoaded: longest-processing-time-first greedy assignment by
 *                nominal precise execution seconds; never migrates.
 *  - QosAware:   starts like LeastLoaded, then at every epoch may
 *                move one unfinished app from the most QoS-pressured
 *                node to the least pressured one, with hysteresis
 *                and a per-app cooldown so placement doesn't thrash.
 *                When a node's runtime publishes relief predictions
 *                (the learned runtime's per-service model floors),
 *                the policy treats a node that cannot save itself by
 *                approximating — predicted floor still above the
 *                pressure threshold — as pressured even while
 *                actuation momentarily masks the violation, i.e. it
 *                migrates before the node burns more output quality
 *                on approximation that the model says won't clear
 *                QoS.
 */

#ifndef PLIANT_CLUSTER_PLACEMENT_HH
#define PLIANT_CLUSTER_PLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "approx/profile.hh"
#include "core/runtime.hh"
#include "sim/time.hh"

namespace pliant {
namespace cluster {

/** The placement policies the cluster experiments compare. */
enum class PlacementKind { Static, LeastLoaded, QosAware };

/** Printable name of a placement kind. */
std::string placementName(PlacementKind kind);

/** One app's live state, as the policy sees it at an epoch. */
struct AppStatus
{
    std::string name;
    bool finished = false;
    double progress = 0.0;
    /** Remaining nominal precise work, seconds (catalog-derived). */
    double remainingWorkSeconds = 0.0;
};

/** One node's live state at a cluster decision epoch. */
struct NodeStatus
{
    std::size_t node = 0;
    std::string name;
    /**
     * The node hosts no unfinished app. Its services still run for
     * the rest of the cluster experiment, so it cannot *source* a
     * migration but is a perfectly good destination.
     */
    bool done = false;
    /**
     * Worst p99/QoS ratio over the node's services at the last
     * closed decision interval (0 before the first interval).
     */
    double worstRatio = 0.0;
    /** Per-service reports from the node's last interval. */
    std::vector<core::ServiceReport> services;
    std::vector<AppStatus> apps;

    /**
     * Per-service relief predictions from the node's runtime (empty
     * for runtimes without a learned model, e.g. Precise/Pliant).
     */
    std::vector<core::ServiceRelief> relief;

    /**
     * Predicted floor of the node's worst ratio under full local
     * approximation: the max over `relief` entries, i.e. the best
     * the node's own control loop believes it can do. Negative when
     * the runtime offers no prediction.
     */
    double reliefRatio = -1.0;

    /**
     * Worst per-service shed fraction reported by the node's
     * admission front-end over the last interval (0 when admission
     * is disabled). A node that meets QoS only by turning a third
     * of its requests away is still pressured: QosAware placement
     * rescales the node's source pressure by 1 / (1 - shed), the
     * ratio the node would roughly be at had it served everything.
     */
    double admissionShedFraction = 0.0;

    /**
     * Quality accounting for the budget controller: the summed
     * current-variant inaccuracy of the node's unfinished apps, and
     * the additional inaccuracy it could still spend by escalating
     * them (see colo::Engine::qualityInUse / qualityHeadroom).
     */
    double qualityInUse = 0.0;
    double qualityHeadroom = 0.0;
};

/** A migration the policy requests at an epoch boundary. */
struct MigrationDecision
{
    std::string app;
    std::size_t from = 0;
    std::size_t to = 0;
};

/**
 * Placement policy interface. Implementations must be deterministic
 * pure functions of their inputs — the cluster's thread-count
 * invariance rests on it.
 */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    virtual std::string name() const = 0;

    /**
     * Assign each app to a node up front.
     * @param nodeCount number of nodes (> 0).
     * @param apps catalog profiles, parallel to the config app list.
     * @return node index per app, each in [0, nodeCount).
     */
    virtual std::vector<std::size_t>
    initialPlacement(std::size_t nodeCount,
                     const std::vector<approx::AppProfile> &apps) = 0;

    /**
     * Optionally request migrations at a cluster decision epoch.
     * Invoked with every node's status at simulated time `now`.
     * Decisions naming finished or unknown apps are dropped by the
     * cluster.
     */
    virtual std::vector<MigrationDecision>
    rebalance(const std::vector<NodeStatus> &nodes, sim::Time now)
    {
        (void)nodes;
        (void)now;
        return {};
    }
};

/** Round-robin by index; never migrates. */
class StaticPlacement : public PlacementPolicy
{
  public:
    std::string name() const override { return "static"; }

    std::vector<std::size_t>
    initialPlacement(std::size_t nodeCount,
                     const std::vector<approx::AppProfile> &apps)
        override;
};

/** Greedy LPT by nominal work; never migrates. */
class LeastLoadedPlacement : public PlacementPolicy
{
  public:
    std::string name() const override { return "least-loaded"; }

    std::vector<std::size_t>
    initialPlacement(std::size_t nodeCount,
                     const std::vector<approx::AppProfile> &apps)
        override;
};

/**
 * LPT start, QoS-pressure-driven migration at epochs. At most one
 * app moves per epoch: from the node with the highest source
 * pressure (above 1.0, i.e. in violation) to the node with the
 * lowest worst ratio (below 0.90, i.e. with headroom). A moved app
 * stays pinned for 3 epochs (the epoch of the move counts as the
 * first) before it may move again.
 */
class QosAwarePlacement : public PlacementPolicy
{
  public:
    std::string name() const override { return "qos-aware"; }

    std::vector<std::size_t>
    initialPlacement(std::size_t nodeCount,
                     const std::vector<approx::AppProfile> &apps)
        override;

    std::vector<MigrationDecision>
    rebalance(const std::vector<NodeStatus> &nodes,
              sim::Time now) override;

  private:
    struct Cooldown
    {
        std::string app;
        int epochsLeft = 0;
    };

    std::vector<Cooldown> cooldowns;
};

/** Factory over PlacementKind. */
std::unique_ptr<PlacementPolicy> makePlacement(PlacementKind kind);

} // namespace cluster
} // namespace pliant

#endif // PLIANT_CLUSTER_PLACEMENT_HH
