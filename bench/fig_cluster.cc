/**
 * @file
 * Cluster placement sweep (beyond the paper): three nodes, each
 * hosting memcached + nginx, sharing six approximate applications.
 * One node's memcached takes a flash crowd mid-run; the sweep
 * compares placement policies (static round-robin, least-loaded LPT,
 * QoS-pressure-aware with migration) under the precise baseline and
 * the Pliant runtime. The whole grid runs as one batch through
 * driver::parallelMap; per-node execution is deterministic at any
 * thread count, so the table is byte-identical run to run.
 *
 * `--trace-out FILE` additionally runs the QoS-aware Pliant cell
 * once more (outside the sweep, so the table is unaffected) with a
 * span tracer attached and writes a Chrome trace_event JSON —
 * loadable in Perfetto, validated by scripts/check_trace.py in CI.
 */

#include <fstream>
#include <iostream>

#include "cluster/cluster.hh"
#include "obs/trace.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

cluster::ClusterConfig
makeConfig(cluster::PlacementKind placement, core::RuntimeKind runtime,
           bool quick)
{
    const sim::Time s = sim::kSecond;
    cluster::ClusterConfigBuilder builder;
    for (int n = 0; n < 3; ++n) {
        builder.node();
        if (n == 0) {
            // The crowded node: memcached ramps to saturation.
            builder.service(services::ServiceKind::Memcached,
                            colo::Scenario::flashCrowd(
                                0.60, 0.95, 30 * s, 3 * s, 25 * s,
                                10 * s));
        } else {
            builder.service(services::ServiceKind::Memcached,
                            colo::Scenario::constant(0.60));
        }
        builder.service(services::ServiceKind::Nginx,
                        colo::Scenario::constant(0.65));
    }
    builder
        .apps({"canneal", "bayesian", "snp", "kmeans", "raytrace",
               "streamcluster"})
        .runtime(runtime)
        .placement(placement)
        .epoch(5 * s)
        .seed(71);
    if (quick)
        builder.maxDuration(90 * s);
    return builder.build();
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else {
            std::cerr << "usage: fig_cluster [--quick] "
                         "[--trace-out FILE]\n";
            return 2;
        }
    }
    std::cout << "=== Cluster placement: 3 nodes x (memcached + "
                 "nginx) + 6 approximate apps ===\n\n";

    const cluster::PlacementKind placements[] = {
        cluster::PlacementKind::Static,
        cluster::PlacementKind::LeastLoaded,
        cluster::PlacementKind::QosAware,
    };
    const core::RuntimeKind runtimes[] = {core::RuntimeKind::Precise,
                                          core::RuntimeKind::Pliant};

    std::vector<cluster::ClusterConfig> configs;
    std::vector<std::string> labels;
    for (auto placement : placements) {
        for (auto runtime : runtimes) {
            configs.push_back(makeConfig(placement, runtime, quick));
            labels.push_back(cluster::placementName(placement));
        }
    }

    const auto results = cluster::runClusters(configs);

    cluster::clusterTable(labels, results).print(std::cout);
    std::cout
        << "\nReading: the precise baseline cannot defend the "
           "crowded node's QoS under any placement — only the "
           "runtime's approximation/core levers restore the tail. "
           "Under Pliant, work-balanced placements (least-loaded, "
           "qos-aware) beat static round-robin on the worst "
           "cluster-wide ratio, and the QoS-aware policy "
           "additionally migrates an app off the crowded node at an "
           "epoch boundary — placement churn the per-node control "
           "loops absorb without losing determinism.\n";

    if (!trace_out.empty()) {
        // A separate traced run of the most interesting cell
        // (QoS-aware + Pliant): epochs, migrations, and budget
        // allocations on the cluster track, decision intervals and
        // events on each node's engine tracks.
        std::ofstream os(trace_out);
        if (!os) {
            std::cerr << "error: cannot write " << trace_out << "\n";
            return 1;
        }
        obs::TraceWriter tracer(os);
        cluster::Cluster traced(makeConfig(
            cluster::PlacementKind::QosAware,
            core::RuntimeKind::Pliant, quick));
        traced.setTraceWriter(&tracer);
        traced.run();
        tracer.finish();
        std::cout << "\nwrote " << trace_out << " ("
                  << tracer.eventCount() << " trace events)\n";
    }
    return 0;
}
