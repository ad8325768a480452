/**
 * @file
 * Figure 5: aggregate comparison of the Precise baseline vs Pliant
 * across all 24 approximate applications and 3 interactive services.
 *
 * For each pair it prints: the baseline and Pliant tail latency
 * (bars), the approximate app's execution time relative to nominal
 * (markers), its output inaccuracy (marker labels), and the
 * DynamoRIO-substitute instrumentation overhead (whiskers). Also
 * reports the Section 6.2 aggregates: violation ranges in precise
 * mode, average/max inaccuracy, and average/max dynrec overhead.
 *
 * All 24 x 3 x 2 experiments run as one batch through the parallel
 * experiment driver; results come back in config order so the
 * printed tables are identical at any thread count.
 */

#include <algorithm>
#include <iostream>

#include "approx/profile.hh"
#include "colo/engine.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pliant;

int
main(int argc, char **argv)
{
    util::quickFlag(argc, argv, "fig5_aggregate", false);
    std::cout << "=== Figure 5: Precise vs Pliant across 24 apps x 3 "
                 "services ===\n\n";
    const services::ServiceKind kinds[] = {
        services::ServiceKind::Nginx,
        services::ServiceKind::Memcached,
        services::ServiceKind::MongoDb,
    };

    // One precise + one pliant config per (service, app) cell.
    std::vector<colo::ColoConfig> configs;
    for (auto kind : kinds) {
        for (const auto &prof : approx::catalog()) {
            configs.push_back(colo::makeColoConfig(
                kind, {prof.name}, core::RuntimeKind::Precise, 31));
            configs.push_back(colo::makeColoConfig(
                kind, {prof.name}, core::RuntimeKind::Pliant, 31));
        }
    }
    const auto results = colo::runColocations(configs);

    double inacc_sum = 0.0, inacc_max = 0.0;
    double ovh_sum = 0.0, ovh_max = 0.0;
    int n = 0;

    std::size_t cell = 0;
    for (auto kind : kinds) {
        double viol_min = 1e18, viol_max = 0.0;
        int qos_ok = 0;
        std::cout << "--- " << services::serviceName(kind)
                  << " (QoS "
                  << util::fmt(
                         services::defaultConfig(kind).qosUs / 1000.0, 2)
                  << " ms) ---\n";
        util::TextTable t({"app", "precise p99/QoS", "pliant p99/QoS",
                           "rel exec", "inaccuracy", "dynrec ovh",
                           "cores"});
        for (const auto &prof : approx::catalog()) {
            const auto &prec = results[cell++];
            const auto &pli = results[cell++];

            const colo::ServiceOutcome &prec_svc = prec.services[0];
            const colo::ServiceOutcome &pli_svc = pli.services[0];
            const double prec_ratio =
                prec_svc.steadyP99Us / prec_svc.qosUs;
            const double pli_ratio =
                pli_svc.meanIntervalP99Us / pli_svc.qosUs;
            viol_min = std::min(viol_min, prec_ratio);
            viol_max = std::max(viol_max, prec_ratio);
            qos_ok += pli_ratio <= 1.0 ? 1 : 0;

            const auto &app = pli.apps[0];
            inacc_sum += app.inaccuracy;
            inacc_max = std::max(inacc_max, app.inaccuracy);
            ovh_sum += app.dynrecOverhead;
            ovh_max = std::max(ovh_max, app.dynrecOverhead);
            ++n;

            t.addRow({prof.name, util::fmt(prec_ratio, 2) + "x",
                      util::fmt(pli_ratio, 2) + "x",
                      util::fmt(app.relativeExecTime, 2),
                      util::fmtPct(app.inaccuracy, 1),
                      util::fmtPct(app.dynrecOverhead, 1),
                      std::to_string(pli.maxCoresReclaimedTotal)});
        }
        t.print(std::cout);
        std::cout << "precise violations: "
                  << util::fmt(viol_min, 2) << "x - "
                  << util::fmt(viol_max, 2)
                  << "x | pliant meets QoS (interval mean) for "
                  << qos_ok << "/24 apps\n\n";
    }

    std::cout << "=== Section 6.2 aggregates ===\n";
    std::cout << "average inaccuracy "
              << util::fmtPct(inacc_sum / n, 1) << " (paper: 2.1%), max "
              << util::fmtPct(inacc_max, 1)
              << " (paper: 5.4%, canneal+memcached)\n";
    std::cout << "average dynrec overhead "
              << util::fmtPct(ovh_sum / n, 1) << " (paper: 3.8%), max "
              << util::fmtPct(ovh_max, 1) << " (paper: 8.9%)\n";
    return 0;
}
