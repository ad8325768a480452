/**
 * @file
 * Figure 8: sensitivity to input load (QPS). For each interactive
 * service, sweep the offered load from 40% to 100% of saturation and
 * report the tail latency and each colocated app's execution time.
 * Also reports the max load at which QoS is met in precise-only mode
 * (the paper's 340K / 280K / 310 QPS crossovers). Both grids run as
 * one batch per service through the experiment driver.
 */

#include <iostream>

#include "approx/profile.hh"
#include "colo/engine.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

/** Representative subset for the per-app sweep (keeps runtime low). */
const char *kApps[] = {"fluidanimate", "canneal", "raytrace",
                       "water_spatial", "bayesian", "kmeans",
                       "snp", "plsa"};

const double kLoads[] = {0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

std::string
qpsLabel(services::ServiceKind kind, double load)
{
    const double sat = services::defaultConfig(kind).saturationQps;
    const double qps = load * sat;
    if (qps >= 1e3)
        return util::fmt(qps / 1e3, 0) + "K";
    return util::fmt(qps, 0);
}

void
sweepService(services::ServiceKind kind)
{
    std::cout << "--- " << services::serviceName(kind) << " ---\n";

    std::vector<colo::ColoConfig> configs;
    for (const char *app : kApps)
        for (double load : kLoads)
            configs.push_back(colo::makeColoConfig(
                kind, {app}, core::RuntimeKind::Pliant, 37, load));

    // Precise-only crossover grid: the highest load at which QoS is
    // still met with a precise co-runner (canneal, the toughest one).
    std::vector<double> crossover_loads;
    for (double load = 0.30; load <= 1.0; load += 0.02)
        crossover_loads.push_back(load);
    for (double load : crossover_loads)
        configs.push_back(colo::makeColoConfig(
            kind, {"canneal"}, core::RuntimeKind::Precise, 37, load));

    const auto results = colo::runColocations(configs);

    util::TextTable t({"app", "load", "QPS", "pliant p99/QoS",
                       "rel exec", "inaccuracy", "cores"});
    std::size_t cell = 0;
    for (const char *app : kApps) {
        for (double load : kLoads) {
            const colo::ColoResult &r = results[cell++];
            const colo::ServiceOutcome &svc = r.services[0];
            t.addRow({app, util::fmtPct(load, 0), qpsLabel(kind, load),
                      util::fmt(svc.meanIntervalP99Us / svc.qosUs, 2) +
                          "x",
                      util::fmt(r.apps[0].relativeExecTime, 2),
                      util::fmtPct(r.apps[0].inaccuracy, 1),
                      std::to_string(r.maxCoresReclaimedTotal)});
        }
    }
    t.print(std::cout);

    double crossover = 0.0;
    for (double load : crossover_loads) {
        const colo::ServiceOutcome &svc = results[cell++].services[0];
        if (svc.steadyP99Us <= svc.qosUs)
            crossover = load;
    }
    std::cout << "precise-only QoS crossover (canneal co-runner): "
              << util::fmtPct(crossover, 0) << " of saturation ("
              << qpsLabel(kind, crossover) << " QPS)\n\n";
}

} // namespace

int
main(int argc, char **argv)
{
    util::quickFlag(argc, argv, "fig8_load", false);
    std::cout << "=== Figure 8: Input-load sensitivity (40-100% of "
                 "saturation) ===\n\n";
    for (auto kind : {services::ServiceKind::Nginx,
                      services::ServiceKind::Memcached,
                      services::ServiceKind::MongoDb})
        sweepService(kind);
    std::cout << "Expected shape: below ~60% load the apps run mostly "
                 "precise; 60-80% needs approximation (and cores for "
                 "memcached); >90% violates QoS regardless.\n";
    return 0;
}
