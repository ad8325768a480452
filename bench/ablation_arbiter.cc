/**
 * @file
 * Two arbiter ablations beyond the paper:
 *
 *  1. Section 6.5 extension: the paper's round-robin
 *     multi-application arbiter vs the impact-aware arbiter that
 *     escalates the app with the best contention-relief per unit
 *     quality loss. Compares QoS, aggregate inaccuracy, and fairness
 *     across sampled 2- and 3-app mixes, one driver batch per
 *     (service, arbiter) combination.
 *
 *  2. Learned-model conditioning: the vector-conditioned learned
 *     arbiter (one model slot per tenant, actuation requires every
 *     tenant to clear the target) vs the collapsed worst-ratio
 *     baseline, on pinned two-tenant scenarios where the worst
 *     service's identity alternates. The pinned rows are the ones
 *     tests/colo/learned_ablation_test.cc locks down: on
 *     bayesian@(0.68, 0.62) the vector arbiter picks different
 *     variants with a strictly lower worst-service ratio AND lower
 *     inaccuracy; on canneal@(0.66, 0.58) it gives back 10x quality
 *     the scalar mixture keeps burning after a transient.
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

struct ArbiterStats
{
    util::RunningStats latency;  // p99 / QoS
    util::RunningStats inacc;    // mean inaccuracy per run
    util::RunningStats spread;   // max-min inaccuracy per run
};

void
runMixes(services::ServiceKind kind, core::ArbiterKind arbiter,
         ArbiterStats &stats, int mixes)
{
    const auto names = approx::catalogNames();
    util::Rng rng(61);
    std::vector<colo::ColoConfig> configs;
    for (int arity = 2; arity <= 3; ++arity) {
        for (int s = 0; s < mixes; ++s) {
            std::vector<std::string> mix;
            while (static_cast<int>(mix.size()) < arity) {
                const auto &cand = names[static_cast<std::size_t>(
                    rng.uniformInt(names.size()))];
                if (std::find(mix.begin(), mix.end(), cand) ==
                    mix.end())
                    mix.push_back(cand);
            }
            colo::ColoConfig cfg = colo::makeColoConfig(
                kind, mix, core::RuntimeKind::Pliant,
                61 + static_cast<std::uint64_t>(s));
            cfg.arbiter = arbiter;
            configs.push_back(cfg);
        }
    }

    for (const auto &r : colo::runColocations(configs)) {
        const colo::ServiceOutcome &svc = r.services[0];
        stats.latency.add(svc.meanIntervalP99Us / svc.qosUs);
        double lo = 1.0, hi = 0.0, sum = 0.0;
        for (const auto &app : r.apps) {
            lo = std::min(lo, app.inaccuracy);
            hi = std::max(hi, app.inaccuracy);
            sum += app.inaccuracy;
        }
        stats.inacc.add(sum / static_cast<double>(r.apps.size()));
        stats.spread.add(hi - lo);
    }
}

/** One pinned two-tenant scenario of the conditioning ablation. */
struct ConditioningScenario
{
    const char *app;
    double mcLoad;
    double ngLoad;
    std::uint64_t seed;
};

void
learnedConditioningTable(std::ostream &os)
{
    const sim::Time s = sim::kSecond;
    const ConditioningScenario scenarios[] = {
        {"bayesian", 0.68, 0.62, 15},
        {"canneal", 0.66, 0.58, 2},
        {"canneal", 0.66, 0.60, 14},
        {"fuzzy_kmeans", 0.66, 0.64, 14},
    };

    std::vector<colo::ColoConfig> configs;
    for (const auto &sc : scenarios) {
        for (const bool vector : {true, false}) {
            colo::ColoConfig cfg = colo::makeMultiServiceConfig(
                {{services::ServiceKind::Memcached,
                  colo::Scenario::constant(sc.mcLoad)},
                 {services::ServiceKind::Nginx,
                  colo::Scenario::constant(sc.ngLoad)}},
                {sc.app}, core::RuntimeKind::Learned, sc.seed);
            cfg.learnedVector = vector;
            cfg.maxDuration = 240 * s;
            configs.push_back(std::move(cfg));
        }
    }

    const auto results = colo::runColocations(configs);

    util::TextTable t({"scenario", "model", "worst p99/QoS", "met%",
                       "inaccuracy", "switches"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &sc = scenarios[i / 2];
        const auto &r = results[i];
        double worst = 0.0;
        for (const auto &svc : r.services)
            worst = std::max(worst,
                             svc.meanIntervalP99Us / svc.qosUs);
        t.addRow({std::string(sc.app) + "@" +
                      util::fmt(sc.mcLoad, 2) + "/" +
                      util::fmt(sc.ngLoad, 2) + " s" +
                      std::to_string(sc.seed),
                  i % 2 == 0 ? "vector" : "worst-ratio",
                  util::fmt(worst, 4) + "x",
                  util::fmtPct(r.services[0].qosMetFraction, 1),
                  util::fmtPct(r.apps[0].inaccuracy, 2),
                  std::to_string(r.apps[0].switches)});
    }
    t.print(os);
    os << "\nReading: with two tenants whose violations alternate, "
          "the collapsed worst-ratio model learns a mixture no "
          "single tenant ever produced, so it refuses reverts the "
          "full vector justifies — most visibly on the canneal@0.58 "
          "row, where both models hold QoS on every interval but "
          "the scalar one keeps burning ~10x the quality after the "
          "transient that triggered the approximation has passed. "
          "On the bayesian row the vector arbiter's different "
          "variant choices also land a strictly lower worst-service "
          "ratio (equal at this print precision; pinned exactly by "
          "tests/colo/learned_ablation_test.cc). Single-service "
          "runs are unaffected: the vector model falls back to the "
          "scalar path.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = util::quickFlag(argc, argv, "ablation_arbiter");
    const int mixes = quick ? 6 : 25;
    std::cout << "=== Ablation: round-robin vs impact-aware arbiter "
                 "(Section 6.5) ===\n\n";
    util::TextTable t({"service", "arbiter", "p99/QoS (mean)",
                       "inaccuracy (mean)", "unfairness (mean)"});
    for (auto kind : {services::ServiceKind::Nginx,
                      services::ServiceKind::Memcached,
                      services::ServiceKind::MongoDb}) {
        for (auto arbiter : {core::ArbiterKind::RoundRobin,
                             core::ArbiterKind::ImpactAware}) {
            ArbiterStats stats;
            runMixes(kind, arbiter, stats, mixes);
            t.addRow({services::serviceName(kind),
                      arbiter == core::ArbiterKind::RoundRobin
                          ? "round-robin"
                          : "impact-aware",
                      util::fmt(stats.latency.mean(), 2) + "x",
                      util::fmtPct(stats.inacc.mean(), 2),
                      util::fmtPct(stats.spread.mean(), 2)});
        }
    }
    t.print(std::cout);
    std::cout << "\nReading: impact-aware tends to buy the same QoS "
                 "with lower aggregate quality loss, at the cost of "
                 "concentrating the loss on fewer applications "
                 "(higher unfairness) — exactly the trade-off the "
                 "paper defers to future work.\n";

    std::cout << "\n=== Ablation: vector-conditioned vs worst-ratio "
                 "learned model ===\n\n";
    learnedConditioningTable(std::cout);
    return 0;
}
