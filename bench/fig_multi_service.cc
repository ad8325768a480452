/**
 * @file
 * Multi-service scenario sweep (beyond the paper): two
 * latency-critical services sharing one box with approximate
 * applications, driven through the four deterministic load
 * scenarios. For every (scenario, app-mix, runtime) cell the sweep
 * reports each service's tail behaviour and the apps' quality cost,
 * showing how the engine handles heterogeneous QoS targets
 * (memcached's 200 us next to nginx's 10 ms) under time-varying
 * load. The entire grid runs as one batch through driver::parallelMap.
 */

#include <iostream>

#include "colo/engine.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

struct ScenarioCase
{
    const char *label;
    colo::Scenario memcached;
    colo::Scenario nginx;
};

std::vector<ScenarioCase>
scenarioCases()
{
    using colo::Scenario;
    const sim::Time s = sim::kSecond;
    return {
        {"constant", Scenario::constant(0.70), Scenario::constant(0.70)},
        {"diurnal", Scenario::diurnal(0.65, 0.25, 120 * s),
         Scenario::diurnal(0.65, 0.25, 120 * s)},
        {"flash-crowd", Scenario::constant(0.65),
         Scenario::flashCrowd(0.60, 0.95, 30 * s, 3 * s, 20 * s,
                              10 * s)},
        {"step", Scenario::step(0.55, 0.80, 40 * s),
         Scenario::step(0.55, 0.80, 40 * s)},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = util::quickFlag(argc, argv, "fig_multi_service");
    std::cout << "=== Multi-service scenarios: memcached + nginx on "
                 "one box ===\n\n";

    const std::vector<std::vector<std::string>> mixes =
        quick ? std::vector<std::vector<std::string>>{
                    {"canneal", "bayesian"}}
              : std::vector<std::vector<std::string>>{
                    {"canneal", "bayesian"}, {"snp", "kmeans"}};
    const core::RuntimeKind runtimes[] = {core::RuntimeKind::Precise,
                                          core::RuntimeKind::Pliant};

    const auto cases = scenarioCases();
    std::vector<colo::ColoConfig> configs;
    for (const auto &sc : cases) {
        for (const auto &mix : mixes) {
            for (auto rt : runtimes) {
                colo::ColoConfig cfg = colo::makeMultiServiceConfig(
                    {{services::ServiceKind::Memcached, sc.memcached},
                     {services::ServiceKind::Nginx, sc.nginx}},
                    mix, rt, 71);
                if (quick)
                    cfg.maxDuration = 120 * sim::kSecond;
                configs.push_back(cfg);
            }
        }
    }

    const auto results = colo::runColocations(configs);

    util::TextTable t({"scenario", "apps", "runtime",
                       "memcached p99/QoS", "met%", "nginx p99/QoS",
                       "met%", "inaccuracy", "cores"});
    std::size_t cell = 0;
    for (const auto &sc : cases) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            for (auto rt : runtimes) {
                (void)rt;
                const colo::ColoResult &r = results[cell++];
                std::string apps;
                double inacc = 0.0;
                for (const auto &a : r.apps) {
                    if (!apps.empty())
                        apps += "+";
                    apps += a.name;
                    inacc += a.inaccuracy;
                }
                inacc /= static_cast<double>(r.apps.size());
                const auto &mc = r.services[0];
                const auto &ngx = r.services[1];
                t.addRow({sc.label, apps, r.runtime,
                          util::fmt(mc.meanIntervalP99Us / mc.qosUs,
                                    2) + "x",
                          util::fmtPct(mc.qosMetFraction, 0),
                          util::fmt(ngx.meanIntervalP99Us / ngx.qosUs,
                                    2) + "x",
                          util::fmtPct(ngx.qosMetFraction, 0),
                          util::fmtPct(inacc, 1),
                          std::to_string(r.maxCoresReclaimedTotal)});
            }
        }
    }
    t.print(std::cout);
    std::cout
        << "\nReading: the precise baseline violates at least one "
           "service's QoS in every scenario with load excursions; "
           "the engine's joint control loop (any-service violation "
           "triggers actuation, reclaimed cores flow to the most "
           "pressured service) restores both tails at a small "
           "quality cost.\n";
    return 0;
}
