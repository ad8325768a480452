/**
 * @file
 * Learned runtime at cluster scale (beyond the paper): three
 * memcached+nginx nodes share six approximate applications; node 0's
 * memcached takes a flash crowd mid-run. The grid compares placement
 * policies (static round-robin vs QoS-pressure-aware migration)
 * under the vector-conditioned learned arbiter and its worst-ratio
 * ablation baseline.
 *
 * Two mechanisms this figure exercises end-to-end:
 *
 *  - migration-consistent model state: a migrated app carries its
 *    per-service learned slots inside the approx::TaskState
 *    checkpoint, so it resumes on the destination with estimates for
 *    every same-named tenant instead of relearning from scratch;
 *  - migrate-before-approximate: the QoS-aware policy reads each
 *    node's relief predictions (the learned model's per-service
 *    floors) and treats a node that cannot clear QoS by
 *    approximating as pressured even while actuation masks the
 *    violation.
 *
 * The whole grid runs as one driver::parallelMap batch; per-node
 * execution is deterministic at any thread count, so the table is
 * byte-identical run to run.
 */

#include <iostream>

#include "cluster/cluster.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

cluster::ClusterConfig
makeConfig(cluster::PlacementKind placement, bool vector_model,
           bool quick)
{
    const sim::Time s = sim::kSecond;
    cluster::ClusterConfigBuilder builder;
    for (int n = 0; n < 3; ++n) {
        builder.node();
        if (n == 0) {
            builder.service(services::ServiceKind::Memcached,
                            colo::Scenario::flashCrowd(
                                0.45, 0.97, 20 * s, 3 * s, 40 * s,
                                10 * s));
        } else {
            builder.service(services::ServiceKind::Memcached,
                            colo::Scenario::constant(0.45));
        }
        builder.service(services::ServiceKind::Nginx,
                        colo::Scenario::constant(0.45));
    }
    builder
        .apps({"canneal", "bayesian", "snp", "kmeans", "raytrace",
               "streamcluster"})
        .runtime(core::RuntimeKind::Learned)
        .learnedVector(vector_model)
        .placement(placement)
        .epoch(5 * s)
        .seed(71);
    builder.maxDuration((quick ? 90 : 150) * s);
    return builder.build();
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = util::quickFlag(argc, argv, "fig_learned_cluster");
    std::cout << "=== Learned arbiter at cluster scale: 3 nodes x "
                 "(memcached + nginx) + 6 apps ===\n\n";

    std::vector<cluster::ClusterConfig> configs;
    std::vector<std::string> labels;
    for (auto placement : {cluster::PlacementKind::Static,
                           cluster::PlacementKind::QosAware}) {
        for (const bool vector_model : {true, false}) {
            configs.push_back(
                makeConfig(placement, vector_model, quick));
            labels.push_back(
                cluster::placementName(placement) +
                (vector_model ? "/vector" : "/worst-ratio"));
        }
    }

    const auto results = cluster::runClusters(configs);

    cluster::clusterTable(labels, results).print(std::cout);
    for (std::size_t i = 0; i < results.size(); ++i)
        for (const auto &mig : results[i].migrations)
            std::cout << labels[i] << ": migrated " << mig.app
                      << " node" << mig.from << " -> node" << mig.to
                      << " at t=" << sim::toSeconds(mig.t) << " s\n";

    std::cout
        << "\nReading: under the learned runtime the QoS-aware "
           "policy migrates an app off the crowded node at an epoch "
           "boundary — and because the learned model's relief "
           "predictions flow into the placement layer, it can do so "
           "even while deep approximation temporarily masks the "
           "violation (migrate-before-approximate). The migrant "
           "carries its per-service model slots in the checkpoint, "
           "so it lands warm on the destination's same-named "
           "tenants. The worst-ratio columns are the ablation: same "
           "placement machinery, scalar-conditioned estimates.\n";
    return 0;
}
