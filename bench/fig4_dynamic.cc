/**
 * @file
 * Figure 4: Pliant's dynamic behaviour — tail-latency, reclaimed-core
 * and active-variant timelines for each interactive service colocated
 * with canneal (4 variants), raytrace (2), bayesian (8), and SNP (5).
 */

#include <iostream>

#include "colo/engine.hh"
#include "util/cli.hh"
#include "util/histogram.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

void
timeline(services::ServiceKind kind, const std::string &app)
{
    colo::Engine exp(
        colo::makeColoConfig(kind, {app}, core::RuntimeKind::Pliant, 23));
    colo::TimelineRecorder recorder;
    exp.setTimelineSink(&recorder);
    const colo::ColoResult r = exp.run();
    const colo::ServiceOutcome &svc = r.services[0];

    const int most =
        approx::findProfile(app).mostApproxIndex();
    std::cout << "[" << svc.name << " + " << app << "] (" << most
              << " approx variants)  QoS "
              << util::fmt(svc.qosUs / 1000.0, 2) << " ms\n";

    util::TextTable t({"t(s)", "p99", "p99/QoS", "variant",
                       "cores reclaimed", "decision"});
    std::vector<double> series;
    for (const auto &tp : recorder.points) {
        const double p99 = tp.services[0].p99Us;
        series.push_back(p99);
        t.addRow({util::fmt(sim::toSeconds(tp.t), 0),
                  util::fmt(p99 / 1000.0, 2) + "ms",
                  util::fmt(p99 / svc.qosUs, 2) + "x",
                  tp.variantOf[0] == 0
                      ? "precise"
                      : "v" + std::to_string(tp.variantOf[0]),
                  std::to_string(tp.reclaimed[0]),
                  core::decisionName(tp.decision.kind)});
    }
    t.print(std::cout);
    std::cout << "p99 over time: " << util::sparkline(series) << '\n';
    std::cout << "summary: steady p99 "
              << util::fmt(svc.steadyP99Us / svc.qosUs, 2)
              << "x QoS | intervals meeting QoS "
              << util::fmtPct(svc.qosMetFraction, 0)
              << " | max cores reclaimed " << r.maxCoresReclaimedTotal
              << " | app inaccuracy "
              << util::fmtPct(r.apps[0].inaccuracy, 1)
              << " | rel. exec time "
              << util::fmt(r.apps[0].relativeExecTime, 2) << "\n\n";
}

} // namespace

int
main(int argc, char **argv)
{
    util::quickFlag(argc, argv, "fig4_dynamic", false);
    std::cout << "=== Figure 4: Dynamic behaviour timelines ===\n\n";
    const services::ServiceKind kinds[] = {
        services::ServiceKind::Nginx,
        services::ServiceKind::Memcached,
        services::ServiceKind::MongoDb,
    };
    const char *apps[] = {"canneal", "raytrace", "bayesian", "snp"};
    for (auto kind : kinds)
        for (const char *app : apps)
            timeline(kind, app);
    return 0;
}
