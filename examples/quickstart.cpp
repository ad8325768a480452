/**
 * @file
 * Quickstart: colocate memcached with one approximate application
 * (canneal) and compare the Precise baseline against Pliant.
 *
 * This is the 60-second tour of the library: one call builds the
 * simulated server, the interactive service, the approximate task,
 * the performance monitor, and the runtime, and returns everything
 * the evaluation figures are made of.
 */

#include <iostream>

#include "colo/engine.hh"
#include "util/table.hh"

int
main()
{
    using namespace pliant;

    std::cout << "Pliant quickstart: memcached + canneal\n\n";

    // The Precise baseline: static fair core split, no approximation.
    const colo::ColoResult precise = colo::runColocation(
        services::ServiceKind::Memcached, {"canneal"},
        core::RuntimeKind::Precise, /*seed=*/2024);

    // Pliant: approximation first, cores second, reverting on slack.
    const colo::ColoResult pliant = colo::runColocation(
        services::ServiceKind::Memcached, {"canneal"},
        core::RuntimeKind::Pliant, /*seed=*/2024);

    // The one tenant's outcome is services[0].
    const colo::ServiceOutcome &precise_mc = precise.services[0];
    const colo::ServiceOutcome &pliant_mc = pliant.services[0];
    util::TextTable t({"metric", "precise", "pliant"});
    t.addRow({"p99 tail latency / QoS",
              util::fmt(precise_mc.steadyP99Us / precise_mc.qosUs, 2) +
                  "x",
              util::fmt(pliant_mc.steadyP99Us / pliant_mc.qosUs, 2) +
                  "x"});
    t.addRow({"intervals meeting QoS",
              util::fmtPct(precise_mc.qosMetFraction, 0),
              util::fmtPct(pliant_mc.qosMetFraction, 0)});
    t.addRow({"canneal relative exec time",
              util::fmt(precise.apps[0].relativeExecTime, 2),
              util::fmt(pliant.apps[0].relativeExecTime, 2)});
    t.addRow({"canneal output inaccuracy",
              util::fmtPct(precise.apps[0].inaccuracy, 1),
              util::fmtPct(pliant.apps[0].inaccuracy, 1)});
    t.addRow({"max cores reclaimed", "0",
              std::to_string(pliant.maxCoresReclaimedTotal)});
    t.print(std::cout);

    std::cout << "\nPliant trades " << "a few percent of canneal's "
              << "output quality for the interactive service's tail "
                 "latency QoS, reclaiming cores only when "
                 "approximation alone is not enough.\n";
    return 0;
}
