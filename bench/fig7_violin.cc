/**
 * @file
 * Figure 7: distributions (five-number summaries, the data behind
 * the paper's violin plots) of interactive tail latency, approximate
 * execution time, and inaccuracy, across colocations with 1, 2, and
 * 3 approximate applications per service.
 *
 * The paper sweeps all 2- and 3-way combinations of the 24 apps; to
 * keep the bench's runtime in seconds we run all 24 singles and a
 * deterministic sample of the 2-/3-way mixes per service. The mixes
 * are drawn up front with a fixed-seed Rng, then every experiment in
 * the bench runs as one batch through the parallel experiment
 * driver, so the summaries are identical at any thread count.
 */

#include <algorithm>
#include <iostream>

#include "approx/profile.hh"
#include "colo/engine.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

struct Dist
{
    std::vector<double> latency; // p99 / QoS
    std::vector<double> exec;    // relative execution time
    std::vector<double> inacc;   // fraction
};

void
accumulate(Dist &dist, const colo::ColoResult &r)
{
    const colo::ServiceOutcome &svc = r.services[0];
    dist.latency.push_back(svc.meanIntervalP99Us / svc.qosUs);
    for (const auto &app : r.apps) {
        dist.exec.push_back(app.relativeExecTime);
        dist.inacc.push_back(app.inaccuracy);
    }
}

std::string
fiveNum(const std::vector<double> &v, int precision = 2)
{
    const auto f = util::FiveNumber::of(v);
    return "[" + util::fmt(f.min, precision) + ", " +
           util::fmt(f.q1, precision) + ", " +
           util::fmt(f.median, precision) + ", " +
           util::fmt(f.q3, precision) + ", " +
           util::fmt(f.max, precision) + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = util::quickFlag(argc, argv, "fig7_violin");
    const int samples = quick ? 10 : 60;
    std::cout << "=== Figure 7: Violin distributions for 1-, 2-, 3-app "
                 "colocations ===\n";
    std::cout << "Five-number summaries [min, q1, median, q3, max]; "
              << samples << " sampled mixes per arity.\n\n";

    const auto names = approx::catalogNames();
    const services::ServiceKind kinds[] = {
        services::ServiceKind::Nginx,
        services::ServiceKind::Memcached,
        services::ServiceKind::MongoDb,
    };

    // Assemble every (service, arity) experiment list up front. The
    // mix sampling replicates the original serial bench: one Rng per
    // service, consumed in arity order.
    std::vector<colo::ColoConfig> configs;
    // arityStart[s][a-1]: index of the first config of (service s,
    // arity a); each arity block's length is known from its app lists.
    std::vector<std::vector<std::size_t>> arityStart(
        std::size(kinds), std::vector<std::size_t>(3, 0));
    for (std::size_t s = 0; s < std::size(kinds); ++s) {
        util::Rng rng(77);
        for (int arity = 1; arity <= 3; ++arity) {
            arityStart[s][static_cast<std::size_t>(arity - 1)] =
                configs.size();
            if (arity == 1) {
                for (const auto &name : names)
                    configs.push_back(colo::makeColoConfig(
                        kinds[s], {name}, core::RuntimeKind::Pliant,
                        41));
            } else {
                for (int smp = 0; smp < samples; ++smp) {
                    std::vector<std::string> mix;
                    while (static_cast<int>(mix.size()) < arity) {
                        const auto &cand =
                            names[static_cast<std::size_t>(
                                rng.uniformInt(names.size()))];
                        if (std::find(mix.begin(), mix.end(), cand) ==
                            mix.end())
                            mix.push_back(cand);
                    }
                    configs.push_back(colo::makeColoConfig(
                        kinds[s], mix, core::RuntimeKind::Pliant,
                        41 + static_cast<std::uint64_t>(smp)));
                }
            }
        }
    }

    const auto results = colo::runColocations(configs);

    for (std::size_t s = 0; s < std::size(kinds); ++s) {
        util::TextTable t({"apps", "p99/QoS (violin)",
                           "rel exec (violin)", "inaccuracy% (violin)"});
        for (int arity = 1; arity <= 3; ++arity) {
            const std::size_t begin =
                arityStart[s][static_cast<std::size_t>(arity - 1)];
            const std::size_t count = arity == 1
                ? names.size()
                : static_cast<std::size_t>(samples);
            Dist dist;
            for (std::size_t i = begin; i < begin + count; ++i)
                accumulate(dist, results[i]);
            std::vector<double> inacc_pct;
            for (double x : dist.inacc)
                inacc_pct.push_back(100.0 * x);
            t.addRow({std::to_string(arity), fiveNum(dist.latency),
                      fiveNum(dist.exec), fiveNum(inacc_pct, 1)});
        }
        std::cout << "--- " << services::serviceName(kinds[s])
                  << " ---\n";
        t.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "Expected shape (paper Section 6.3): inaccuracy and "
                 "execution-time violins tighten (centralize) as the "
                 "number of colocated apps grows, and MongoDB imposes "
                 "the lowest impact.\n";
    return 0;
}
