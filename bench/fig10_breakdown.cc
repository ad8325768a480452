/**
 * @file
 * Figure 10: breakdown of how much actuation each service needed —
 * the fraction of colocations resolved by approximation alone versus
 * those requiring 1, 2, 3, or 4+ reclaimed cores. Covers all single-
 * app colocations plus sampled 2- and 3-app mixes, as in the paper.
 * Each service's full config set runs as one driver batch.
 */

#include <algorithm>
#include <iostream>

#include "approx/profile.hh"
#include "colo/engine.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace pliant;

int
main(int argc, char **argv)
{
    const bool quick = util::quickFlag(argc, argv, "fig10_breakdown");
    const int mixes_per_arity = quick ? 8 : 40;
    std::cout << "=== Figure 10: Approximation-only vs core "
                 "reclamation breakdown ===\n\n";

    const auto names = approx::catalogNames();
    util::TextTable t({"service", "approx only", "1 core", "2 cores",
                       "3 cores", "4+ cores", "runs"});
    for (auto kind : {services::ServiceKind::Nginx,
                      services::ServiceKind::Memcached,
                      services::ServiceKind::MongoDb}) {
        std::vector<colo::ColoConfig> configs;
        for (const auto &name : names)
            configs.push_back(colo::makeColoConfig(
                kind, {name}, core::RuntimeKind::Pliant, 47));

        // The mix sampling RNG is seeded independently of the sweep,
        // so the config list (and thus the output) is identical at
        // any thread count.
        util::Rng rng(53);
        for (int arity = 2; arity <= 3; ++arity) {
            for (int s = 0; s < mixes_per_arity; ++s) {
                std::vector<std::string> mix;
                while (static_cast<int>(mix.size()) < arity) {
                    const auto &cand = names[static_cast<std::size_t>(
                        rng.uniformInt(names.size()))];
                    if (std::find(mix.begin(), mix.end(), cand) ==
                        mix.end())
                        mix.push_back(cand);
                }
                configs.push_back(colo::makeColoConfig(
                    kind, mix, core::RuntimeKind::Pliant,
                    47 + static_cast<std::uint64_t>(s)));
            }
        }

        const auto results = colo::runColocations(configs);

        int buckets[5] = {0, 0, 0, 0, 0};
        for (const auto &r : results)
            ++buckets[std::min(r.typicalCoresReclaimed, 4)];
        const int runs = static_cast<int>(results.size());

        std::vector<std::string> row{services::serviceName(kind)};
        for (int b = 0; b < 5; ++b)
            row.push_back(util::fmtPct(
                static_cast<double>(buckets[b]) / runs, 0));
        row.push_back(std::to_string(runs));
        t.addRow(row);
    }
    t.print(std::cout);
    std::cout << "\nExpected shape (paper): NGINX resolves ~1/3 of "
                 "colocations with approximation alone; memcached "
                 "almost always needs at least one core; MongoDB is "
                 "the most amenable (approximation alone or one core "
                 "in the majority of cases); 3+ cores are rare.\n";
    return 0;
}
