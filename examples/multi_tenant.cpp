/**
 * @file
 * Multi-tenant scenario: TWO latency-critical services (nginx and
 * memcached) sharing one box with three approximate applications,
 * while a flash crowd hits memcached mid-run. Compares the paper's
 * round-robin arbiter against the impact-aware extension (Section
 * 6.5) and shows both the per-service tail behaviour and the
 * per-app sacrifice breakdown — the joint control loop treats a
 * violation on either service as a violation of the box.
 */

#include <iostream>

#include "colo/engine.hh"
#include "util/table.hh"

namespace {

pliant::colo::ColoResult
runWith(pliant::core::ArbiterKind arbiter)
{
    using namespace pliant;
    const sim::Time s = sim::kSecond;
    // Raw configs are validated where the engine is built: a bad
    // app name or duplicate tenant fails there, not deep inside the
    // tick loop.
    colo::ColoConfig cfg = colo::makeMultiServiceConfig(
        {{services::ServiceKind::Nginx, colo::Scenario::constant(0.65)},
         {services::ServiceKind::Memcached,
          colo::Scenario::flashCrowd(
              /*base=*/0.60, /*peak=*/0.95, /*at=*/40 * s,
              /*ramp=*/3 * s, /*hold=*/25 * s, /*decay=*/10 * s)}},
        {"canneal", "bayesian", "snp"}, core::RuntimeKind::Pliant,
        /*seed=*/7777);
    cfg.arbiter = arbiter;
    colo::Engine engine(cfg);
    return engine.run();
}

} // namespace

int
main()
{
    using namespace pliant;

    std::cout << "Multi-tenant: nginx + memcached (flash crowd) + "
                 "{canneal, bayesian, snp}\n\n";

    for (auto arbiter : {core::ArbiterKind::RoundRobin,
                         core::ArbiterKind::ImpactAware}) {
        const colo::ColoResult r = runWith(arbiter);
        std::cout << "--- "
                  << (arbiter == core::ArbiterKind::RoundRobin
                          ? "round-robin arbiter (paper Section 4.4)"
                          : "impact-aware arbiter (Section 6.5 "
                            "extension)")
                  << " ---\n";
        util::TextTable svc({"service", "QoS", "p99 (interval mean)",
                             "intervals meeting QoS"});
        for (const auto &s : r.services) {
            svc.addRow({s.name,
                        util::fmt(s.qosUs / 1000.0, 2) + " ms",
                        util::fmt(s.meanIntervalP99Us / 1000.0, 2) +
                            " ms",
                        util::fmtPct(s.qosMetFraction, 0)});
        }
        svc.print(std::cout);
        util::TextTable t({"app", "inaccuracy", "rel exec time",
                           "variant switches", "max cores yielded"});
        for (const auto &app : r.apps) {
            t.addRow({app.name, util::fmtPct(app.inaccuracy, 2),
                      util::fmt(app.relativeExecTime, 2),
                      std::to_string(app.switches),
                      std::to_string(app.maxCoresReclaimed)});
        }
        t.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "Round-robin spreads the quality loss evenly; the\n"
                 "impact-aware arbiter leans on the app whose\n"
                 "approximation buys the most contention relief per\n"
                 "unit of quality (here SNP), sparing the others.\n"
                 "During the flash crowd, reclaimed cores flow to\n"
                 "memcached (the most pressured tenant) and return\n"
                 "once the crowd decays.\n";
    return 0;
}
