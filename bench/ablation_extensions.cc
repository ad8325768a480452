/**
 * @file
 * Ablation of the Section 6.5 extensions against stock Pliant:
 *
 *  - cache partitioning (approximation -> LLC ways -> cores) vs the
 *    paper's approximation -> cores,
 *  - the online-learned controller (no offline DSE knowledge) vs
 *    Pliant with the offline variant ordering.
 *
 * Reported per service over representative colocations: tail latency
 * vs QoS, cores reclaimed, partition ways used, quality loss, and
 * the co-runner's execution time.
 */

#include <iostream>

#include "colo/engine.hh"
#include "util/cli.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

struct Row
{
    util::RunningStats latency; // interval-mean p99 / QoS
    util::RunningStats cores;   // typical cores reclaimed
    util::RunningStats ways;    // max partition ways
    util::RunningStats inacc;
    util::RunningStats exec;
};

void
runConfig(services::ServiceKind kind, core::RuntimeKind runtime,
          bool partitioning, Row &row)
{
    const char *apps[] = {"canneal", "raytrace", "bayesian", "snp",
                          "plsa", "kmeans", "streamcluster", "glimmer"};
    for (const char *app : apps) {
        colo::ColoConfig cfg =
            colo::makeColoConfig(kind, {app}, runtime, 71);
        cfg.enableCachePartitioning = partitioning;
        colo::Engine exp(cfg);
        const colo::ColoResult r = exp.run();
        const colo::ServiceOutcome &svc = r.services[0];
        row.latency.add(svc.meanIntervalP99Us / svc.qosUs);
        row.cores.add(r.typicalCoresReclaimed);
        row.ways.add(r.maxPartitionWays);
        row.inacc.add(r.apps[0].inaccuracy);
        row.exec.add(r.apps[0].relativeExecTime);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    util::quickFlag(argc, argv, "ablation_extensions", false);
    std::cout << "=== Ablation: Section 6.5 extensions vs stock "
                 "Pliant ===\n\n";
    util::TextTable t({"service", "controller", "p99/QoS",
                       "cores (typ)", "LLC ways (max)", "inaccuracy",
                       "rel exec"});
    const struct
    {
        const char *label;
        core::RuntimeKind runtime;
        bool partitioning;
    } configs[] = {
        {"pliant", core::RuntimeKind::Pliant, false},
        {"pliant+cache", core::RuntimeKind::Pliant, true},
        {"learned", core::RuntimeKind::Learned, false},
    };
    for (auto kind : {services::ServiceKind::Nginx,
                      services::ServiceKind::Memcached,
                      services::ServiceKind::MongoDb}) {
        for (const auto &c : configs) {
            Row row;
            runConfig(kind, c.runtime, c.partitioning, row);
            t.addRow({services::serviceName(kind), c.label,
                      util::fmt(row.latency.mean(), 2) + "x",
                      util::fmt(row.cores.mean(), 2),
                      util::fmt(row.ways.mean(), 1),
                      util::fmtPct(row.inacc.mean(), 2),
                      util::fmt(row.exec.mean(), 2)});
        }
    }
    t.print(std::cout);
    std::cout <<
        "\nReading: cache partitioning substitutes LLC ways for cores "
        "on the LLC-sensitive services (NGINX/MongoDB) and is "
        "correctly abandoned (futility detection) where contention is "
        "not LLC-bound; the learned controller reaches comparable QoS "
        "without any offline design-space knowledge, at slightly "
        "higher transient violation cost while it explores.\n";
    return 0;
}
