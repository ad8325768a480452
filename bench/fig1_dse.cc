/**
 * @file
 * Figure 1: approximation design-space exploration.
 *
 * Odd rows (per kernel): the execution-time vs inaccuracy table of
 * every variant examined, measured live for the 15 real kernels of
 * the registry, with the Pareto-selected variants marked.
 * Even rows (skipped by --quick): the tail latency (relative to QoS)
 * of each catalog variant of all 24 paper applications when
 * statically colocated with each interactive service.
 *
 * Both halves run through the parallel experiment driver
 * (driver::parallelMap). The kernel explorations are live wall-clock
 * measurements, so that half is pinned to one worker for timing
 * fidelity; the static colocation grid is pure simulation and fans
 * out one task per (app, variant, service) cell, printing identical
 * results at any worker count (set PLIANT_THREADS to override).
 */

#include <iostream>

#include "approx/profile.hh"
#include "colo/engine.hh"
#include "dse/explore.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

void
exploreRealKernels()
{
    std::cout << "--- Measured design space of the 15 real kernels "
                 "(odd rows, live measurement) ---\n\n";
    dse::ExploreOptions opts;
    opts.repetitions = 3;
    opts.seed = 42;
    // Kernel exploration is live wall-clock measurement; concurrent
    // kernels contend for cores, skewing timeNorm and flipping
    // Pareto selections. Keep this half measurement-grade (serial).
    // The colocation half below is pure simulation and fans out.
    for (const auto &res : dse::exploreRegistry(opts, /*threads=*/1)) {
        std::cout << "[" << res.app << "] precise "
                  << util::fmt(res.preciseMs, 2) << " ms, "
                  << res.points.size() << " variants examined, "
                  << res.selectedOrder.size()
                  << " selected (<=5% inaccuracy, pareto)\n";
        util::TextTable t(
            {"variant", "time(norm)", "inaccuracy", "selected"});
        for (const auto &pt : res.points) {
            t.addRow({pt.knobs.describe(), util::fmt(pt.timeNorm, 3),
                      util::fmtPct(pt.inaccuracy, 2),
                      pt.selected ? "PARETO" : ""});
        }
        t.print(std::cout);
        std::cout << '\n';
    }
}

void
staticColocationRows()
{
    std::cout << "--- Tail latency vs QoS per selected variant "
                 "(even rows) ---\n";
    std::cout << "Each cell: steady-state p99 / QoS when the app runs "
                 "the given variant for the whole colocation.\n\n";
    const services::ServiceKind kinds[] = {
        services::ServiceKind::Nginx,
        services::ServiceKind::Memcached,
        services::ServiceKind::MongoDb,
    };

    // Flatten the (app, variant, service) grid into one batch so the
    // driver can keep every worker busy across profile boundaries.
    std::vector<colo::ColoConfig> configs;
    for (const auto &prof : approx::catalog()) {
        for (const auto &v : prof.variants) {
            for (auto kind : kinds) {
                colo::ColoConfig cfg;
                cfg.service = kind;
                cfg.apps = {prof.name};
                cfg.runtime = core::RuntimeKind::Precise;
                cfg.initialVariants = {v.index};
                cfg.maxDuration = 30 * sim::kSecond;
                cfg.seed = 7;
                configs.push_back(cfg);
            }
        }
    }

    const auto results = colo::runColocations(configs);

    std::size_t cell = 0;
    for (const auto &prof : approx::catalog()) {
        std::cout << "[" << prof.name << "] ("
                  << approx::suiteName(prof.suite) << ", "
                  << prof.mostApproxIndex() << " approx variants)\n";
        std::vector<std::string> header{"variant"};
        for (auto kind : kinds)
            header.push_back(services::serviceName(kind));
        util::TextTable t(header);
        for (const auto &v : prof.variants) {
            std::vector<std::string> row{v.isPrecise() ? "precise"
                                                       : v.label};
            for (std::size_t k = 0; k < std::size(kinds); ++k) {
                const colo::ColoResult &r = results[cell++];
                row.push_back(
                    util::fmt(r.steadyP99Us / r.qosUs, 2) + "x");
            }
            t.addRow(row);
        }
        t.print(std::cout);
        std::cout << '\n';
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::cout << "=== Figure 1: Approximation design-space "
                 "exploration ===\n\n";
    const bool quick = util::quickFlag(argc, argv, "fig1_dse");
    exploreRealKernels();
    if (!quick)
        staticColocationRows();
    return 0;
}
