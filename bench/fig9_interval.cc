/**
 * @file
 * Figure 9: sensitivity to Pliant's decision interval (0.2 s - 8 s),
 * for memcached colocated with the six PARSEC/SPLASH-2 applications.
 * The whole grid runs as one batch through the experiment driver.
 */

#include <iostream>

#include "colo/engine.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pliant;

int
main(int argc, char **argv)
{
    util::quickFlag(argc, argv, "fig9_interval", false);
    std::cout << "=== Figure 9: Decision-interval sensitivity "
                 "(memcached) ===\n\n";
    const char *apps[] = {"fluidanimate", "canneal", "raytrace",
                          "water_nsquared", "water_spatial",
                          "streamcluster"};
    const double intervals_s[] = {0.2, 0.5, 1.0, 2.0,
                                  3.0, 4.0, 6.0, 8.0};

    std::vector<colo::ColoConfig> configs;
    for (const char *app : apps) {
        for (double s : intervals_s) {
            colo::ColoConfig cfg = colo::makeColoConfig(
                services::ServiceKind::Memcached, {app},
                core::RuntimeKind::Pliant, 43);
            cfg.decisionInterval = sim::fromSeconds(s);
            configs.push_back(cfg);
        }
    }
    const auto results = colo::runColocations(configs);

    util::TextTable t({"app", "interval", "p99/QoS", "met%",
                       "rel exec", "inaccuracy", "switches"});
    std::size_t cell = 0;
    for (const char *app : apps) {
        for (double s : intervals_s) {
            const colo::ColoResult &r = results[cell++];
            const colo::ServiceOutcome &svc = r.services[0];
            t.addRow({app, util::fmt(s, 1) + "s",
                      util::fmt(svc.steadyP99Us / svc.qosUs, 2) + "x",
                      util::fmtPct(svc.qosMetFraction, 0),
                      util::fmt(r.apps[0].relativeExecTime, 2),
                      util::fmtPct(r.apps[0].inaccuracy, 1),
                      std::to_string(r.apps[0].switches)});
        }
    }
    t.print(std::cout);
    std::cout << "\nExpected shape: intervals above 1 s leave the "
                 "service in prolonged violation before Pliant reacts; "
                 "intervals of 1 s or less satisfy QoS without extra "
                 "cost because switching is cheap.\n";
    return 0;
}
