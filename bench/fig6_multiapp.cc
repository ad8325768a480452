/**
 * @file
 * Figure 6: multi-application colocation timelines — canneal and
 * bayesian sharing a server with each interactive service under the
 * round-robin arbiter.
 */

#include <iostream>

#include "colo/engine.hh"
#include "util/cli.hh"
#include "util/histogram.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

void
multiTimeline(services::ServiceKind kind)
{
    colo::Engine exp(colo::makeColoConfig(
        kind, {"canneal", "bayesian"}, core::RuntimeKind::Pliant, 29));
    colo::TimelineRecorder recorder;
    exp.setTimelineSink(&recorder);
    const colo::ColoResult r = exp.run();
    const colo::ServiceOutcome &svc = r.services[0];

    std::cout << "[" << svc.name
              << " + canneal (4 approx) + bayesian (8 approx)]  QoS "
              << util::fmt(svc.qosUs / 1000.0, 2) << " ms\n";
    util::TextTable t({"t(s)", "p99/QoS", "canneal var",
                       "canneal cores", "bayesian var",
                       "bayesian cores", "decision"});
    std::vector<double> series;
    for (const auto &tp : recorder.points) {
        const double p99 = tp.services[0].p99Us;
        series.push_back(p99);
        t.addRow({util::fmt(sim::toSeconds(tp.t), 0),
                  util::fmt(p99 / svc.qosUs, 2) + "x",
                  "v" + std::to_string(tp.variantOf[0]),
                  std::to_string(tp.reclaimed[0]),
                  "v" + std::to_string(tp.variantOf[1]),
                  std::to_string(tp.reclaimed[1]),
                  core::decisionName(tp.decision.kind)});
    }
    t.print(std::cout);
    std::cout << "p99 over time: " << util::sparkline(series) << '\n';
    for (const auto &app : r.apps) {
        std::cout << app.name << ": inaccuracy "
                  << util::fmtPct(app.inaccuracy, 1)
                  << ", rel exec time "
                  << util::fmt(app.relativeExecTime, 2)
                  << ", max cores reclaimed " << app.maxCoresReclaimed
                  << '\n';
    }
    std::cout << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    util::quickFlag(argc, argv, "fig6_multiapp", false);
    std::cout << "=== Figure 6: Multi-application colocations "
                 "(canneal + bayesian) ===\n\n";
    for (auto kind : {services::ServiceKind::Nginx,
                      services::ServiceKind::Memcached,
                      services::ServiceKind::MongoDb})
        multiTimeline(kind);
    return 0;
}
