/**
 * @file
 * Property-style sweep over config validation: a seeded SplitMix64
 * stream drives randomized *invalid* configurations through
 * colo::checkConfig (raw ColoConfig structs, the pass Engine's
 * constructor runs) and cluster::ClusterConfigBuilder, and every one
 * of them must throw util::FatalError before any tick runs — never
 * later, inside the tick loop (where a zero tick would hang and a
 * bad variant index would fault). Invalid admission-control fields
 * are one of the randomized classes, so the front-end's config
 * surface is held to the same contract. Randomized *valid*
 * configurations (with and without an admission front-end) must
 * validate and construct their Engine/Cluster without throwing. An
 * invalid setting a cluster shares with its nodes (colo::RunConfig)
 * must fail both layers with the same message.
 */

#include <cctype>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "admission/admission.hh"
#include "approx/profile.hh"
#include "budget/budget.hh"
#include "cluster/cluster.hh"
#include "colo/engine.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace {

using namespace pliant;

constexpr sim::Time kS = sim::kSecond;

/** Deterministic pick of n distinct catalog names. */
std::vector<std::string>
pickApps(util::SplitMix64 &sm, std::size_t n)
{
    const auto names = approx::catalogNames();
    EXPECT_GE(names.size(), n);
    // Fisher-Yates over a copy, driven by the SplitMix64 stream.
    std::vector<std::string> pool = names;
    for (std::size_t i = pool.size() - 1; i > 0; --i)
        std::swap(pool[i], pool[sm.next() % (i + 1)]);
    pool.resize(n);
    return pool;
}

double
loadDraw(util::SplitMix64 &sm)
{
    return 0.3 + 0.6 * static_cast<double>(sm.next() % 1000) / 1000.0;
}

/**
 * A randomly-invalid (enabled) admission config: exactly one field
 * driven out of range, everything else default.
 */
admission::AdmissionConfig
invalidAdmissionDraw(util::SplitMix64 &sm)
{
    admission::AdmissionConfig cfg;
    cfg.enabled = true;
    switch (sm.next() % 3) {
    case 0:
        cfg.queueBoundQos =
            -static_cast<double>(sm.next() % 100) / 10.0;
        break;
    case 1:
        cfg.batchSize = -static_cast<int>(sm.next() % 5);
        break;
    default:
        cfg.batchTimeoutUs = 0.0;
        break;
    }
    return cfg;
}

/**
 * A randomly-invalid (enabled) budget config: exactly one field
 * driven out of range, everything else default.
 */
budget::BudgetConfig
invalidBudgetDraw(util::SplitMix64 &sm)
{
    budget::BudgetConfig cfg;
    cfg.enabled = true;
    if (sm.next() % 2 == 0)
        cfg.qualityBudget =
            -static_cast<double>(1 + sm.next() % 100) / 100.0;
    else
        cfg.shedBudget =
            -static_cast<double>(1 + sm.next() % 100) / 100.0;
    return cfg;
}

/**
 * A scenario with one load field the kind reads driven negative,
 * NaN or infinite.
 */
colo::Scenario
invalidScenarioDraw(util::SplitMix64 &sm)
{
    const double bad[] = {-static_cast<double>(1 + sm.next() % 50) /
                              100.0,
                          std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()};
    const double load = bad[sm.next() % 3];
    const bool base = sm.next() % 2 == 0;
    switch (sm.next() % 4) {
    case 0:
        return colo::Scenario::constant(load);
    case 1:
        return base ? colo::Scenario::step(load, 0.5, 10 * kS)
                    : colo::Scenario::step(0.5, load, 10 * kS);
    case 2:
        return base ? colo::Scenario::flashCrowd(load, 0.9, 10 * kS,
                                                 kS, kS, kS)
                    : colo::Scenario::flashCrowd(0.5, load, 10 * kS,
                                                 kS, kS, kS);
    default:
        return colo::Scenario::diurnal(load, 0.2, 60 * kS);
    }
}

/** The FatalError text `check` throws ("" when it does not throw). */
template <typename Check>
std::string
fatalText(Check check)
{
    try {
        check();
    } catch (const util::FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(BuilderPropertyTest, RandomInvalidColoConfigsFailValidation)
{
    util::SplitMix64 sm(0xC010BADu);
    for (int iter = 0; iter < 120; ++iter) {
        colo::ColoConfig cfg;
        cfg.services.push_back({services::ServiceKind::Memcached,
                                colo::Scenario::constant(loadDraw(sm))});
        const auto kind = sm.next() % 10;
        switch (kind) {
        case 0: { // duplicate app
            const auto apps = pickApps(sm, 1);
            cfg.apps = {apps[0], apps[0]};
            break;
        }
        case 1: { // unknown catalog name
            cfg.apps = {"no-such-app-" +
                        std::to_string(sm.next() % 1000)};
            break;
        }
        case 2: { // out-of-range initial variant
            cfg.apps = pickApps(sm, 1);
            const auto &prof = approx::findProfile(cfg.apps[0]);
            const int bad = sm.next() % 2 == 0
                ? static_cast<int>(prof.variants.size()) +
                    static_cast<int>(sm.next() % 5)
                : -1 - static_cast<int>(sm.next() % 3);
            cfg.initialVariants = {bad};
            break;
        }
        case 3: { // duplicate resolved service name
            cfg.services.push_back(
                {services::ServiceKind::Memcached,
                 colo::Scenario::constant(loadDraw(sm))});
            cfg.apps = pickApps(sm, 1);
            break;
        }
        case 4: { // fair-core starvation: too many tenants
            cfg.services.push_back(
                {services::ServiceKind::Nginx,
                 colo::Scenario::constant(loadDraw(sm))});
            cfg.apps = pickApps(sm, 15 + sm.next() % 8); // >= 15 starves
            break;
        }
        case 5: { // non-positive timing
            cfg.apps = pickApps(sm, 1);
            switch (sm.next() % 3) {
            case 0:
                cfg.tick = -static_cast<sim::Time>(sm.next() % 5);
                break;
            case 1:
                cfg.decisionInterval = 0;
                break;
            default:
                cfg.maxDuration =
                    -static_cast<sim::Time>(sm.next() % 100);
                break;
            }
            break;
        }
        case 6: { // decision interval shorter than the tick
            cfg.apps = pickApps(sm, 1);
            cfg.tick = 10 * sim::kMillisecond;
            cfg.decisionInterval = sim::kMillisecond;
            break;
        }
        case 7: { // out-of-range admission field
            cfg.apps = pickApps(sm, 1);
            cfg.admission = invalidAdmissionDraw(sm);
            break;
        }
        case 8: { // no interactive service, with or without apps
            cfg.services.clear();
            cfg.apps = pickApps(sm, sm.next() % 3);
            break;
        }
        default: { // non-finite or negative scenario load
            cfg.services.push_back({services::ServiceKind::Nginx,
                                    invalidScenarioDraw(sm), "bad-load"});
            cfg.apps = pickApps(sm, 1);
            break;
        }
        }
        EXPECT_THROW(colo::checkConfig(cfg), util::FatalError)
            << "invalid colo config class " << kind << " (iteration "
            << iter << ") must fail validation";
        EXPECT_THROW(colo::Engine engine(cfg), util::FatalError)
            << "invalid colo config class " << kind << " (iteration "
            << iter << ") must fail at construction";
        if (kind == 8) {
            const char *const named =
                "needs at least one interactive service";
            EXPECT_NE(fatalText([&] { colo::checkConfig(cfg); })
                          .find(named),
                      std::string::npos)
                << "iteration " << iter;
            EXPECT_NE(fatalText([&] { colo::Engine engine(cfg); })
                          .find(named),
                      std::string::npos)
                << "iteration " << iter;
        }
    }
}

TEST(BuilderPropertyTest, RandomValidColoConfigsValidateAndConstruct)
{
    util::SplitMix64 sm(0xC010600Du);
    for (int iter = 0; iter < 24; ++iter) {
        colo::ColoConfig cfg;
        cfg.services.push_back({services::ServiceKind::Memcached,
                                colo::Scenario::constant(loadDraw(sm))});
        if (sm.next() % 2 == 0)
            cfg.services.push_back(
                {services::ServiceKind::Nginx,
                 colo::Scenario::constant(loadDraw(sm)), "ng-shard"});
        cfg.apps = pickApps(sm, 1 + sm.next() % 3);
        cfg.runtime = sm.next() % 2 == 0 ? core::RuntimeKind::Pliant
                                         : core::RuntimeKind::Learned;
        cfg.seed = sm.next();
        if (sm.next() % 2 == 0) {
            cfg.admission.enabled = true;
            cfg.admission.policy =
                static_cast<admission::AdmissionKind>(sm.next() % 4);
            cfg.admission.batching =
                static_cast<admission::BatchingKind>(sm.next() % 3);
        }
        ASSERT_NO_THROW(colo::checkConfig(cfg)) << "iteration " << iter;
        // Construction binds tenants/tasks but does not tick; a valid
        // config must never throw here either.
        ASSERT_NO_THROW(colo::Engine engine(cfg))
            << "iteration " << iter;
    }
}

TEST(BuilderPropertyTest, SharedSettingErrorsReadTheSameInBothLayers)
{
    // colo::checkRunConfig is the one check of the settings a cluster
    // hands every node, so each invalid shared-setting class must
    // fail a single node and a cluster with the same text, and for
    // the reason the class names.
    const struct
    {
        const char *name;
        const char *message; ///< a fragment the error must contain
    } classes[] = {
        {"non-positive tick", "simulation tick must be positive"},
        {"non-positive interval", "decision interval must be positive"},
        {"non-positive duration", "max duration must be positive"},
        {"interval < tick", "must be at least one simulation tick"},
        {"bad admission field", "(got "},
        {"duplicate app", "duplicate app '"},
        {"unknown app", "no catalog profile named '"},
        {"out-of-range variant", "is out of range"},
    };
    util::SplitMix64 sm(0x5A4EDu);
    for (int iter = 0; iter < 120; ++iter) {
        colo::RunConfig shared;
        shared.apps = pickApps(sm, 1 + sm.next() % 3);
        const std::size_t kind = sm.next() % std::size(classes);
        const std::size_t app = sm.next() % shared.apps.size();
        switch (kind) {
        case 0:
            shared.tick = -static_cast<sim::Time>(sm.next() % 5);
            break;
        case 1:
            shared.decisionInterval =
                -static_cast<sim::Time>(sm.next() % 5);
            break;
        case 2:
            shared.maxDuration = -static_cast<sim::Time>(sm.next() % 100);
            break;
        case 3:
            shared.decisionInterval =
                1 + static_cast<sim::Time>(sm.next() % (shared.tick - 1));
            break;
        case 4:
            shared.admission = invalidAdmissionDraw(sm);
            break;
        case 5:
            shared.apps.push_back(shared.apps[app]);
            break;
        case 6:
            shared.apps.push_back("no-such-app-" +
                                  std::to_string(sm.next() % 1000));
            break;
        default: {
            shared.initialVariants.assign(shared.apps.size(), 0);
            const auto &prof = approx::findProfile(shared.apps[app]);
            shared.initialVariants[app] =
                static_cast<int>(prof.variants.size()) +
                static_cast<int>(sm.next() % 4);
            break;
        }
        }

        colo::ColoConfig node;
        static_cast<colo::RunConfig &>(node) = shared;
        node.services.push_back({services::ServiceKind::Memcached,
                                 colo::Scenario::constant(loadDraw(sm))});
        cluster::ClusterConfig cluster;
        static_cast<colo::RunConfig &>(cluster) = shared;
        cluster.nodes.resize(1 + sm.next() % 3);
        for (cluster::NodeSpec &spec : cluster.nodes)
            spec.services = node.services;

        const std::string colo_text =
            fatalText([&] { colo::checkConfig(node); });
        const std::string cluster_text =
            fatalText([&] { cluster::validateClusterConfig(cluster); });
        EXPECT_NE(colo_text.find(classes[kind].message),
                  std::string::npos)
            << classes[kind].name << " (iteration " << iter
            << "): " << colo_text;
        EXPECT_EQ(colo_text, cluster_text)
            << classes[kind].name << " (iteration " << iter << ")";
    }
}

TEST(BuilderPropertyTest, RandomInvalidClusterConfigsThrowAtBuildTime)
{
    util::SplitMix64 sm(0xC1BADu);
    for (int iter = 0; iter < 120; ++iter) {
        cluster::ClusterConfigBuilder builder;
        const auto kind = sm.next() % 11;
        // Most classes need a well-formed base cluster first.
        if (kind != 0 && kind != 1 && kind != 9) {
            builder.nodes(1 + sm.next() % 3);
            builder.serviceOnAll(services::ServiceKind::Memcached,
                                 colo::Scenario::constant(
                                     loadDraw(sm)));
        }
        switch (kind) {
        case 0: // no nodes at all
            builder.apps(pickApps(sm, 1));
            break;
        case 1: // a node without any service
            builder.nodes(1 + sm.next() % 3);
            builder.apps(pickApps(sm, 1));
            break;
        case 2: { // duplicate node names
            builder.node("twin").service(
                services::ServiceKind::Nginx,
                colo::Scenario::constant(loadDraw(sm)));
            builder.node("twin").service(
                services::ServiceKind::Nginx,
                colo::Scenario::constant(loadDraw(sm)));
            builder.apps(pickApps(sm, 1));
            break;
        }
        case 3: // epoch shorter than the decision interval
            builder.apps(pickApps(sm, 1));
            builder.decisionInterval(kS).epoch(
                kS / (2 + sm.next() % 8));
            break;
        case 4: // bad timing
            builder.apps(pickApps(sm, 1));
            switch (sm.next() % 4) {
            case 0:
                builder.tick(0);
                break;
            case 1:
                builder.epoch(
                    -static_cast<sim::Time>(sm.next() % 50));
                break;
            case 2:
                // Interval shorter than one simulation tick.
                builder.tick(10 * sim::kMillisecond)
                    .decisionInterval(sim::kMillisecond)
                    .epoch(sim::kMillisecond);
                break;
            default:
                builder.maxDuration(0);
                break;
            }
            break;
        case 5: // unknown or duplicate app
            if (sm.next() % 2 == 0) {
                builder.app("bogus-" +
                            std::to_string(sm.next() % 1000));
            } else {
                const auto apps = pickApps(sm, 1);
                builder.app(apps[0]).app(apps[0]);
            }
            break;
        case 6: { // out-of-range initial variant
            const auto apps = pickApps(sm, 1);
            const auto &prof = approx::findProfile(apps[0]);
            builder.app(apps[0],
                        static_cast<int>(prof.variants.size()) +
                            static_cast<int>(sm.next() % 4));
            break;
        }
        case 7: { // out-of-range admission field
            builder.apps(pickApps(sm, 1));
            builder.admission(invalidAdmissionDraw(sm));
            break;
        }
        case 8: { // out-of-range budget field
            builder.apps(pickApps(sm, 1));
            builder.budget(invalidBudgetDraw(sm));
            break;
        }
        case 10: { // non-finite or negative scenario load
            builder.node("bad-load").service(
                services::ServiceKind::Nginx, invalidScenarioDraw(sm));
            builder.apps(pickApps(sm, 1));
            break;
        }
        default: { // budget without a cluster (single node)
            builder.node("solo").service(
                services::ServiceKind::Memcached,
                colo::Scenario::constant(loadDraw(sm)));
            builder.apps(pickApps(sm, 1));
            builder.budget(
                static_cast<budget::BudgetPolicy>(sm.next() % 3),
                static_cast<double>(sm.next() % 100) / 100.0,
                static_cast<double>(sm.next() % 100) / 100.0);
            break;
        }
        }
        EXPECT_THROW(builder.build(), util::FatalError)
            << "invalid cluster config class " << kind
            << " (iteration " << iter
            << ") must fail at build time";
    }
}

TEST(BuilderPropertyTest, RandomValidClusterConfigsBuildAndConstruct)
{
    util::SplitMix64 sm(0xC1600Du);
    for (int iter = 0; iter < 12; ++iter) {
        cluster::ClusterConfigBuilder builder;
        const std::size_t node_count = 1 + sm.next() % 3;
        builder.nodes(node_count);
        builder.serviceOnAll(services::ServiceKind::Memcached,
                             colo::Scenario::constant(loadDraw(sm)));
        builder.apps(pickApps(sm, 1 + sm.next() % 4))
            .placement(sm.next() % 2 == 0
                           ? cluster::PlacementKind::Static
                           : cluster::PlacementKind::QosAware)
            .seed(sm.next());
        if (sm.next() % 2 == 0)
            builder.admission(
                static_cast<admission::AdmissionKind>(sm.next() % 4),
                static_cast<admission::BatchingKind>(sm.next() % 3));
        // Budgets are a cluster feature: only valid with >= 2 nodes.
        if (node_count >= 2 && sm.next() % 2 == 0)
            builder.budget(
                static_cast<budget::BudgetPolicy>(sm.next() % 3),
                static_cast<double>(sm.next() % 200) / 100.0,
                static_cast<double>(sm.next() % 300) / 100.0);
        cluster::ClusterConfig cfg;
        ASSERT_NO_THROW(cfg = builder.build())
            << "iteration " << iter;
        ASSERT_NO_THROW(cluster::Cluster cl(cfg))
            << "iteration " << iter;
    }
}

TEST(BuilderPropertyTest, RandomBudgetPolicyTyposThrow)
{
    // Every valid name parses; every mutation of one (and every
    // random alphanumeric string) is a FatalError, never a silent
    // fallback policy.
    for (auto policy :
         {budget::BudgetPolicy::Uniform,
          budget::BudgetPolicy::Proportional,
          budget::BudgetPolicy::Learned})
        EXPECT_EQ(budget::parsePolicy(budget::policyName(policy)),
                  policy);

    util::SplitMix64 sm(0xB06E7u);
    const std::vector<std::string> names = {"uniform", "proportional",
                                            "learned"};
    for (int iter = 0; iter < 60; ++iter) {
        std::string typo = names[sm.next() % names.size()];
        switch (sm.next() % 4) {
        case 0: // drop a character
            typo.erase(sm.next() % typo.size(), 1);
            break;
        case 1: // mutate a character
            typo[sm.next() % typo.size()] =
                static_cast<char>('a' + sm.next() % 26);
            break;
        case 2: // wrong case on a character
            typo[sm.next() % typo.size()] = static_cast<char>(
                std::toupper(typo[sm.next() % typo.size()]));
            break;
        default: // trailing garbage
            typo += static_cast<char>('a' + sm.next() % 26);
            break;
        }
        if (typo == "uniform" || typo == "proportional" ||
            typo == "learned")
            continue; // the mutation happened to be a no-op
        EXPECT_THROW(budget::parsePolicy(typo), util::FatalError)
            << "typo '" << typo << "' (iteration " << iter
            << ") must not parse";
    }
}

} // namespace
