/**
 * @file
 * Cluster walkthrough: three nodes under one placement layer.
 *
 *  - node "edge" runs TWO memcached shards (same kind, distinct
 *    instance names — reports key on the name) with a trace-replay
 *    load pattern on the hot shard;
 *  - nodes "mid" and "bulk" each run one memcached + one nginx;
 *  - five approximate apps are placed by the QoS-pressure-aware
 *    policy, which may migrate an app off a pressured node at
 *    cluster decision epochs.
 *
 * The run is fully deterministic (per-node seeds derive from the
 * cluster seed) and byte-identical at any worker thread count.
 */

#include <iostream>

#include "cluster/cluster.hh"
#include "util/table.hh"

int
main()
{
    using namespace pliant;
    const sim::Time s = sim::kSecond;

    // A bursty measured-looking load curve for the hot shard,
    // expressed as piecewise-linear (t_seconds, load) knots — the
    // same shape `--scenario trace:<file>` loads from CSV.
    const colo::Scenario burst = colo::Scenario::trace({
        {0 * s, 0.55},
        {30 * s, 0.60},
        {45 * s, 0.95},
        {70 * s, 0.92},
        {85 * s, 0.60},
        {180 * s, 0.55},
    });

    cluster::ClusterConfig cfg;
    cfg.nodes.resize(3);
    cfg.nodes[0].name = "edge";
    cfg.nodes[0].services = {
        {services::ServiceKind::Memcached, burst, "mc-hot"},
        {services::ServiceKind::Memcached, colo::Scenario::constant(0.45),
         "mc-cold"},
    };
    cfg.nodes[1].name = "mid";
    cfg.nodes[1].services = {
        {services::ServiceKind::Memcached, colo::Scenario::constant(0.60)},
        {services::ServiceKind::Nginx, colo::Scenario::constant(0.65)},
    };
    cfg.nodes[2].name = "bulk";
    cfg.nodes[2].services = {
        {services::ServiceKind::Memcached, colo::Scenario::constant(0.55)},
        {services::ServiceKind::Nginx, colo::Scenario::constant(0.60)},
    };
    cfg.apps = {"canneal", "bayesian", "snp", "kmeans", "streamcluster"};
    cfg.runtime = core::RuntimeKind::Pliant;
    cfg.placement = cluster::PlacementKind::QosAware;
    cfg.epoch = 5 * s;
    cfg.maxDuration = 180 * s;
    cfg.seed = 4242;

    cluster::Cluster cl(cfg);
    const cluster::ClusterResult r = cl.run();

    std::cout << "Cluster: edge (2x memcached shards) + mid + bulk, "
              << r.placement << " placement, " << r.runtime
              << " runtime\n\n";
    cluster::clusterTable({"demo"}, {r}).print(std::cout);
    std::cout << '\n';

    util::TextTable t({"node", "service", "QoS",
                       "p99 (interval mean)", "met%"});
    for (const auto &node : r.nodes)
        for (const auto &svc : node.result.services)
            t.addRow({node.name, svc.name,
                      util::fmt(svc.qosUs / 1000.0, 2) + " ms",
                      util::fmt(svc.meanIntervalP99Us / 1000.0, 2) +
                          " ms",
                      util::fmtPct(svc.qosMetFraction, 0)});
    t.print(std::cout);

    if (r.migrations.empty()) {
        std::cout << "\nNo migrations: every node held its QoS with "
                     "local actuation alone.\n";
    } else {
        std::cout << '\n';
        for (const auto &mig : r.migrations)
            std::cout << "migration: " << mig.app << " "
                      << r.nodes[mig.from].name << " -> "
                      << r.nodes[mig.to].name << " at t="
                      << util::fmt(sim::toSeconds(mig.t), 1) << " s\n";
    }
    return 0;
}
