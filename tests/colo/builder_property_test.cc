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
 * surface is held to the same contract. An invalid setting a cluster
 * shares with its nodes (colo::RunConfig) must fail both layers with
 * the same message.
 *
 * The equivalence harness (EquivalenceHarnessTest): random *valid*
 * engine and cluster configs must validate, and each must give the
 * same result, rendered whole (Render), under every transform that
 * applies; each node's timeline must keep its invariants
 * (checkNode()), and the draws must reach coverage floors. A failure
 * prints the draw's index, seed and config, and the first line that
 * differs.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "admission/admission.hh"
#include "approx/profile.hh"
#include "budget/budget.hh"
#include "cluster/cluster.hh"
#include "colo/engine.hh"
#include "obs/trace.hh"
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

// ---------------------------------------------------------------
// The equivalence harness: random valid configs, each run under
// every execution transform that must leave every bit unchanged.
// ---------------------------------------------------------------

double
unitDraw(util::SplitMix64 &sm)
{
    return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

/**
 * A duration on a log scale: `lo` times 2^(k/4) for a uniform k, at
 * most `hi`. Plain multiplications, so any libm draws the same.
 */
sim::Time
logDraw(util::SplitMix64 &sm, sim::Time lo, sim::Time hi)
{
    constexpr double kStep = 1.189207115;
    std::uint64_t steps = 0;
    for (double v = lo; v * kStep <= static_cast<double>(hi); v *= kStep)
        ++steps;
    double v = lo;
    for (std::uint64_t k = sm.next() % (steps + 1); k > 0; --k)
        v *= kStep;
    return static_cast<sim::Time>(v + 0.5);
}

/**
 * The settings both layers draw. The enums cycle with the draw index
 * (mixed radix, so their combinations vary too); the rest is random.
 */
colo::RunConfig
drawRun(std::size_t index, util::SplitMix64 &sm)
{
    colo::RunConfig run;
    run.runtime = static_cast<core::RuntimeKind>(index % 3);
    run.arbiter = static_cast<core::ArbiterKind>(index / 3 % 2);
    run.admission.enabled = index % 5 != 0; // off, then each policy
    run.admission.policy =
        static_cast<admission::AdmissionKind>((index + 4) % 5 % 4);
    run.admission.batching =
        static_cast<admission::BatchingKind>(index / 5 % 3);
    run.learnedVector = sm.next() % 2 == 0;
    run.tick = logDraw(sm, 10 * sim::kMillisecond, 500 * sim::kMillisecond);
    run.decisionInterval =
        sm.next() % 4 == 0 ? run.tick : logDraw(sm, run.tick, 2 * kS);
    run.maxDuration = static_cast<sim::Time>(20 + sm.next() % 21) * kS;
    run.seed = sm.next();
    run.enableCachePartitioning = sm.next() % 2 == 0;
    // Obs on: metrics, tick-phase spans and an attached trace writer.
    run.observability.metrics = run.observability.traceTickPhases =
        sm.next() % 2 == 0;
    return run;
}

/** 1..max_tenants tenants of distinct kinds; a crowd on the first. */
std::vector<colo::ServiceSpec>
drawTenants(util::SplitMix64 &sm, std::size_t max_tenants, bool crowd)
{
    std::vector<colo::ServiceSpec> tenants(1 + sm.next() % max_tenants);
    const std::size_t first = sm.next() % 3;
    for (std::size_t s = 0; s < tenants.size(); ++s) {
        tenants[s].kind = static_cast<services::ServiceKind>((first + s) % 3);
        tenants[s].scenario = colo::Scenario::constant(loadDraw(sm));
        if ((s == 0 && crowd) || sm.next() % 3 == 0)
            tenants[s].scenario = colo::Scenario::flashCrowd(
                tenants[s].scenario.baseLoad, 0.9 + 0.4 * unitDraw(sm),
                static_cast<sim::Time>(3 + sm.next() % 12) * kS, 2 * kS,
                10 * kS, 3 * kS);
    }
    return tenants;
}

/** Engine draw `index`: 1-3 tenants, 1-3 apps, some variants pinned. */
colo::ColoConfig
drawEngine(std::size_t index, util::SplitMix64 &sm)
{
    colo::ColoConfig cfg;
    static_cast<colo::RunConfig &>(cfg) = drawRun(index, sm);
    cfg.services = drawTenants(sm, 3, sm.next() % 2 == 0);
    cfg.apps = pickApps(sm, 1 + sm.next() % 3);
    if (index % 4 == 3) // static variants, as in the Fig. 1 sweep
        for (const std::string &app : cfg.apps)
            cfg.initialVariants.push_back(static_cast<int>(
                sm.next() % approx::findProfile(app).variants.size()));
    return cfg;
}

/**
 * Cluster draw `index`: 2-4 nodes of 1-2 tenants (a crowd on node 0)
 * and 0-3 apps per node; placement and budget policy (or none) cycle
 * with the index.
 */
cluster::ClusterConfig
drawCluster(std::size_t index, util::SplitMix64 &sm)
{
    cluster::ClusterConfig cfg;
    static_cast<colo::RunConfig &>(cfg) = drawRun(index, sm);
    cfg.placement = static_cast<cluster::PlacementKind>(index / 4 % 3);
    cfg.budget = {index % 4 != 0, 0.4 * unitDraw(sm), 2.0 * unitDraw(sm),
                  static_cast<budget::BudgetPolicy>((index + 3) % 4 % 3)};
    cfg.epoch = std::max(cfg.decisionInterval, logDraw(sm, kS, 8 * kS));
    cfg.nodes.resize(2 + sm.next() % 3);
    std::size_t apps = 0;
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        cfg.nodes[n].services = drawTenants(sm, 2, n == 0);
        apps += sm.next() % 4;
    }
    cfg.apps = pickApps(sm, std::max<std::size_t>(apps, 1));
    return cfg;
}

/** One node's run, or a cluster's with every node's series. */
template <typename Result, typename Timeline>
struct Run
{
    Result result;
    Timeline timeline;
};
using EngineRun = Run<colo::ColoResult, colo::TimelineRecorder>;
using ClusterRun =
    Run<cluster::ClusterResult, std::vector<colo::TimelineRecorder>>;

/**
 * Renders a run, result or config as `path=value` lines: every field,
 * doubles as %a (equal text is equal bits), accumulators as their raw
 * state. Each struct is unpacked by a structured binding, so a field
 * added to one of these types fails to compile until it is rendered.
 */
class Render
{
  public:
    /** @param with_obs render obsEnabled and metrics too. */
    explicit Render(bool with_obs) : withObs(with_obs) {}

    std::string text;

    template <typename T>
    void put(const std::string &path, const T &v)
    {
        char buf[32];
        text += path + "=";
        if constexpr (std::is_floating_point_v<T>) {
            std::snprintf(buf, sizeof buf, "%a", v);
            text += buf;
        } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
            text += std::to_string(static_cast<long long>(v));
        } else if constexpr (std::is_same_v<T, util::RunningStats> ||
                             std::is_same_v<T, util::P2Quantile>) {
            // Private state included: the object's words, in hex.
            std::uint64_t words[sizeof(T) / 8];
            static_assert(sizeof(words) == sizeof(T));
            std::memcpy(words, &v, sizeof(T));
            for (const unsigned long long w : words) {
                std::snprintf(buf, sizeof buf, " %016llx", w);
                text += buf;
            }
        } else {
            text += std::string_view(v);
        }
        text += '\n';
    }

    template <typename T>
    void put(const std::string &path, const std::vector<T> &v)
    {
        put(path + ".size", v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            put(path + "[" + std::to_string(i) + "]", v[i]);
    }

    void put(const std::string &path, const obs::MetricValue &m)
    {
        if (m.stability == obs::Stability::WallTime)
            return put(path, m.name + " (wall time)");
        const auto &[name, kind, stability, count, value, stat, buckets,
                     histLo, histBase] = m;
        fields(path, "name, kind, count, value, stat, buckets, lo, base",
               name, kind, count, value, stat, buckets, histLo, histBase);
    }

#define PLIANT_FIELDS(Type, ...)                                        \
    void put(const std::string &path, const Type &object)               \
    {                                                                   \
        const auto &[__VA_ARGS__] = object;                             \
        fields(path, #__VA_ARGS__, __VA_ARGS__);                        \
    }

    PLIANT_FIELDS(colo::ColoResult, runtime, admissionEnabled,
                  budgetEnabled, obsEnabled, metrics, budgetQualityUsed,
                  budgetShedUsed, budgetQualityCap, budgetShedCap,
                  services, maxCoresReclaimedTotal, typicalCoresReclaimed,
                  maxPartitionWays, apps)
    PLIANT_FIELDS(colo::ServiceOutcome, name, qosUs, overallP99Us,
                  steadyP99Us, meanIntervalP99Us, qosMetFraction,
                  steadySketch, shedFraction, meanQueueDelayUs,
                  meanBatchSize)
    PLIANT_FIELDS(colo::AppOutcome, name, finished, relativeExecTime,
                  inaccuracy, switches, dynrecOverhead, maxCoresReclaimed)
    PLIANT_FIELDS(EngineRun, result, timeline)
    PLIANT_FIELDS(ClusterRun, result, timeline)
    PLIANT_FIELDS(colo::TimelineRecorder, rosters, points)
    PLIANT_FIELDS(colo::RosterEvent, t, apps)
    PLIANT_FIELDS(colo::TimePoint, t, services, variantOf, reclaimed,
                  partitionWays, decision, budgetQualityUsed,
                  budgetShedUsed, budgetQualityCap, budgetShedCap)
    PLIANT_FIELDS(colo::ServicePoint, p99Us, loadFraction, shedFraction,
                  queueDelayUs)
    PLIANT_FIELDS(core::Decision, kind, task)
    PLIANT_FIELDS(obs::MetricsSnapshot, metrics)
    PLIANT_FIELDS(cluster::ClusterResult, runtime, placement, nodes,
                  migrations, worstServiceRatio, steadyP99Us,
                  meanQosMetFraction, meanInaccuracy, meanRelativeExecTime,
                  appsFinished, appsTotal, totalMaxCoresReclaimed,
                  budgetEnabled, budgetPolicy, budgetQualityUsed,
                  budgetShedUsed, obsEnabled, metrics)
    PLIANT_FIELDS(cluster::NodeResult, name, seed, ticks, result)
    PLIANT_FIELDS(cluster::MigrationEvent, t, app, from, to)
    // The drawn settings, for failure messages.
    PLIANT_FIELDS(colo::RunConfig, apps, initialVariants, runtime, arbiter,
                  learnedVector, decisionInterval, tick, maxDuration, seed,
                  enableCachePartitioning, admission, observability)
    PLIANT_FIELDS(admission::AdmissionConfig, enabled, policy, batching,
                  queueBoundQos, batchSize, batchTimeoutUs)
    PLIANT_FIELDS(obs::ObsConfig, metrics, traceTickPhases)
    PLIANT_FIELDS(budget::BudgetConfig, enabled, qualityBudget, shedBudget,
                  policy)
    PLIANT_FIELDS(colo::ServiceSpec, kind, scenario, name)
    PLIANT_FIELDS(colo::Scenario, kind, baseLoad, amplitude, period, at,
                  peakLoad, ramp, hold, decay, points)
    PLIANT_FIELDS(colo::LoadPoint, t, load)
#undef PLIANT_FIELDS

  private:
    /** put() each value under its name in `names` ("a, b, ..."). */
    template <typename... T>
    void fields(const std::string &path, std::string_view names,
                const T &...values)
    {
        const auto one = [&](const auto &v) {
            const std::size_t comma = std::min(names.find(','), names.size());
            const std::string name(names.substr(0, comma));
            names.remove_prefix(std::min(comma + 2, names.size()));
            if (withObs || (name != "obsEnabled" && name != "metrics"))
                put(path + "." + name, v);
        };
        (one(values), ...);
    }

    bool withObs;
};

/** render() `v`, a result, a run or a config, as text. */
template <typename T>
std::string
render(const T &v, bool with_obs = true)
{
    Render r(with_obs);
    r.put("", v);
    return r.text;
}

/**
 * Run `cfg` recorded, with a trace writer when obs is on: in one
 * run(), or, given `chunks`, in advanceUntil() steps of random length
 * and a finalize().
 */
EngineRun
runEngine(const colo::ColoConfig &cfg, util::SplitMix64 *chunks = nullptr)
{
    EngineRun out;
    std::ostringstream trace;
    obs::TraceWriter tracer(trace);
    colo::Engine engine(cfg);
    engine.setTimelineSink(&out.timeline);
    if (cfg.observability.metrics)
        engine.setTrace(&tracer);
    while (chunks && !engine.done())
        engine.advanceUntil(engine.now() + logDraw(*chunks, 1, 5 * kS));
    out.result = chunks ? engine.finalize() : engine.run();
    return out;
}

/** Run `cfg` on `threads` pool threads, recorded like runEngine(). */
ClusterRun
runCluster(cluster::ClusterConfig cfg, unsigned threads)
{
    cfg.threads = threads;
    std::ostringstream trace;
    obs::TraceWriter tracer(trace);
    cluster::Cluster cl(cfg);
    ClusterRun out;
    out.timeline.resize(cl.nodeCount());
    for (std::size_t i = 0; i < out.timeline.size(); ++i)
        cl.setTimelineSink(i, &out.timeline[i]);
    if (cfg.observability.metrics)
        cl.setTraceWriter(&tracer);
    out.result = cl.run();
    return out;
}

template <typename Config>
Config
obsFlipped(Config cfg)
{
    cfg.observability.metrics = cfg.observability.traceTickPhases =
        !cfg.observability.metrics;
    return cfg;
}

/** A draw's name in failure messages: index, seed and config. */
template <typename Config>
std::string
drawName(std::size_t index, std::uint64_t seed, const Config &cfg)
{
    Render r(true);
    r.put("config", static_cast<const colo::RunConfig &>(cfg));
    if constexpr (std::is_same_v<Config, colo::ColoConfig>) {
        r.put("config.services", cfg.services);
    } else {
        for (std::size_t n = 0; n < cfg.nodes.size(); ++n)
            r.put("config.node" + std::to_string(n), cfg.nodes[n].services);
        r.put("config.budget", cfg.budget);
        r.put("config.placement", cfg.placement);
        r.put("config.epoch", cfg.epoch);
    }
    std::ostringstream os;
    os << "draw " << index << ", seed 0x" << std::hex << seed << ":\n";
    return os.str() + r.text;
}

/** Expect `got` to equal `want`; a mismatch shows the first line. */
void
expectSame(const std::string &want, const std::string &got,
           const std::string &draw, const std::string &transform)
{
    if (want == got)
        return;
    const auto diff =
        std::mismatch(want.begin(), want.end(), got.begin(), got.end());
    const std::size_t nl = want.rfind('\n', diff.first - want.begin());
    const std::size_t from = nl == std::string::npos ? 0 : nl + 1;
    const auto line = [from](const std::string &s) {
        return s.substr(from, s.find('\n', from) - from);
    };
    ADD_FAILURE() << transform << " differs from the reference run:\n  "
                  << line(want) << "\n  " << line(got) << "\n" << draw;
}

/** What the draws exercised; the harness asserts floors on it. */
struct Coverage
{
    std::size_t migrations = 0;
    std::size_t offTickMigrations = 0; ///< tick does not divide the epoch
    std::size_t learnedMigrations = 0;
    bool shed = false;
    bool partitionWays = false;
    bool appLessNode = false;
    std::set<std::string> budgetPolicies;
};

/**
 * One node's invariants: QoS-met fractions are fractions; a disabled
 * front-end reports shed 0, delay 0 and batch 1; and on a budgeted
 * node no interval close raises quality-in-use while it is above the
 * cap in force, except across a roster change (a migrant brings its
 * own inaccuracy). Used quality may sit above a cap that shrank
 * under it; the runtime must only never escalate there.
 */
void
checkNode(const EngineRun &run, const std::string &draw, Coverage &seen)
{
    const colo::ColoResult &r = run.result;
    for (const colo::ServiceOutcome &svc : r.services) {
        EXPECT_GE(svc.qosMetFraction, 0.0) << draw;
        EXPECT_LE(svc.qosMetFraction, 1.0) << draw;
        seen.shed |= svc.shedFraction > 0.0;
        if (!r.admissionEnabled) {
            EXPECT_EQ(std::tuple(svc.shedFraction, svc.meanQueueDelayUs,
                                 svc.meanBatchSize),
                      std::tuple(0.0, 0.0, 1.0))
                << draw;
        }
    }
    seen.partitionWays |= r.maxPartitionWays > 0;
    const std::vector<colo::RosterEvent> &rosters = run.timeline.rosters;
    const std::vector<colo::TimePoint> &points = run.timeline.points;
    seen.appLessNode |= rosters.front().apps.empty();
    for (std::size_t k = 1; k < points.size(); ++k) {
        const colo::TimePoint &prev = points[k - 1], &cur = points[k];
        // A roster event at t arrives after the point at t.
        const bool roster_changed =
            std::any_of(rosters.begin() + 1, rosters.end(),
                        [&](const colo::RosterEvent &ev) {
                            return ev.t >= prev.t && ev.t < cur.t;
                        });
        if (cur.budgetQualityCap >= 0.0 && !roster_changed &&
            prev.budgetQualityUsed > cur.budgetQualityCap) {
            EXPECT_LE(cur.budgetQualityUsed, prev.budgetQualityUsed)
                << "quality-in-use rose above cap " << cur.budgetQualityCap
                << " at t " << cur.t << ", " << draw;
        }
    }
}

/** The fixed harness seed; each draw takes the next value as its own. */
constexpr std::uint64_t kHarnessSeed = 0x5EED0E0u;

/**
 * The fixed input run after the random engine draws: two tenants
 * inside the service-side way partition (engine_test's
 * CachePartitioningWorksWithTwoTenants), where the runtime isolates
 * LLC ways before it reclaims cores.
 */
colo::ColoConfig
cachePartitionedPair()
{
    colo::ColoConfig cfg = colo::makeMultiServiceConfig(
        {{services::ServiceKind::Nginx, colo::Scenario::constant(0.70)},
         {services::ServiceKind::MongoDb, colo::Scenario::constant(0.60)}},
        {"canneal", "streamcluster"}, core::RuntimeKind::Pliant, 19);
    cfg.enableCachePartitioning = true;
    cfg.maxDuration = 120 * kS;
    return cfg;
}

TEST(EquivalenceHarnessTest, EngineDrawsMatchUnderEveryTransform)
{
    constexpr std::size_t kDraws = 24;
    util::SplitMix64 seeds(kHarnessSeed);
    std::vector<colo::ColoConfig> configs;
    std::vector<std::string> refs, names;
    Coverage seen, fixed_seen; // the floors count random draws only
    for (std::size_t i = 0; i <= kDraws; ++i) {
        const std::uint64_t seed = seeds.next();
        util::SplitMix64 sm(seed);
        const colo::ColoConfig cfg =
            i < kDraws ? drawEngine(i, sm) : cachePartitionedPair();
        const std::string draw = drawName(i, seed, cfg);
        ASSERT_NO_THROW(colo::checkConfig(cfg)) << draw;
        const EngineRun ref = runEngine(cfg);
        checkNode(ref, draw, i < kDraws ? seen : fixed_seen);

        expectSame(render(ref), render(runEngine(cfg, &sm)), draw,
                   "advanceUntil() chunks + finalize()");
        expectSame(render(ref, false),
                   render(runEngine(obsFlipped(cfg)), false), draw,
                   "obs flipped");
        if (!cfg.admission.enabled) {
            // Out-of-range values too: a disabled front-end is inert.
            colo::ColoConfig inert = cfg;
            inert.admission = {false,
                               admission::AdmissionKind(sm.next() % 4),
                               admission::BatchingKind(sm.next() % 3),
                               8.0 * unitDraw(sm) - 2.0,
                               static_cast<int>(sm.next() % 80) - 8,
                               2000.0 * unitDraw(sm) - 100.0};
            expectSame(render(ref), render(runEngine(inert)), draw,
                       "disabled admission with randomized fields");
        }
        // The bare engine needs the node's derived seed, so it reruns.
        cluster::ClusterConfig solo;
        static_cast<colo::RunConfig &>(solo) = cfg;
        solo.nodes = {{"solo", cfg.spec, cfg.services}};
        solo.epoch = std::max(cfg.decisionInterval, logDraw(sm, kS, 8 * kS));
        const ClusterRun node = runCluster(solo, 1);
        expectSame(render(runEngine(cluster::Cluster(solo).nodeConfig(0))),
                   render(EngineRun{node.result.nodes[0].result,
                                    node.timeline[0]}),
                   draw, "one-node Cluster");

        configs.push_back(cfg);
        refs.push_back(render(ref.result));
        names.push_back(draw);
    }
    for (const unsigned threads : {1u, 3u}) {
        const auto batch = colo::runColocations(configs, threads);
        for (std::size_t i = 0; i < batch.size(); ++i)
            expectSame(refs[i], render(batch[i]), names[i],
                       "runColocations on " + std::to_string(threads));
    }
    EXPECT_TRUE(seen.shed) << "no draw shed a request";
    EXPECT_TRUE(seen.partitionWays) << "no draw isolated an LLC way";
}

TEST(EquivalenceHarnessTest, ClusterDrawsMatchUnderEveryTransform)
{
    util::SplitMix64 seeds(kHarnessSeed + 1);
    std::vector<cluster::ClusterConfig> configs;
    std::vector<std::string> refs, names;
    Coverage seen;
    for (std::size_t i = 0; i < 12; ++i) {
        const std::uint64_t seed = seeds.next();
        util::SplitMix64 sm(seed);
        const cluster::ClusterConfig cfg = drawCluster(i, sm);
        const std::string draw = drawName(i, seed, cfg);
        ASSERT_NO_THROW(cluster::validateClusterConfig(cfg)) << draw;
        const ClusterRun ref = runCluster(cfg, 1);
        for (std::size_t n = 0; n < ref.result.nodes.size(); ++n)
            checkNode({ref.result.nodes[n].result, ref.timeline[n]}, draw,
                      seen);
        // Each move is a roster change on both sinks, stamped at the
        // migration's t: the app leaves the source and joins the
        // destination.
        for (const cluster::MigrationEvent &m : ref.result.migrations) {
            for (const auto &[node, joins] :
                 {std::pair(m.from, false), std::pair(m.to, true)}) {
                const auto &rosters = ref.timeline[node].rosters;
                EXPECT_TRUE(std::any_of(
                    rosters.begin(), rosters.end(), [&](const auto &ev) {
                        return ev.t == m.t &&
                               std::count(ev.apps.begin(), ev.apps.end(),
                                          m.app) == joins;
                    }))
                    << m.app << " at " << m.t << " on node " << node
                    << ", " << draw;
            }
        }
        seen.migrations += ref.result.migrations.size();
        if (cfg.epoch % cfg.tick != 0)
            seen.offTickMigrations += ref.result.migrations.size();
        if (cfg.runtime == core::RuntimeKind::Learned)
            seen.learnedMigrations += ref.result.migrations.size();
        if (cfg.budget.enabled)
            seen.budgetPolicies.insert(ref.result.budgetPolicy);

        expectSame(render(ref), render(runCluster(cfg, 3)), draw,
                   "Cluster on 3 pool threads");
        expectSame(render(ref, false),
                   render(runCluster(obsFlipped(cfg), 3), false), draw,
                   "obs flipped");

        configs.push_back(cfg);
        refs.push_back(render(ref.result));
        names.push_back(draw);
    }
    for (const unsigned threads : {1u, 3u}) {
        const auto batch = cluster::runClusters(configs, threads);
        for (std::size_t i = 0; i < batch.size(); ++i)
            expectSame(refs[i], render(batch[i]), names[i],
                       "runClusters on " + std::to_string(threads));
    }
    EXPECT_GT(seen.migrations, 0u) << "no draw migrated an app";
    EXPECT_GT(seen.offTickMigrations, 0u)
        << "no draw migrated with a tick that does not divide its epoch";
    EXPECT_GT(seen.learnedMigrations, 0u)
        << "no Learned draw migrated (the model checkpoint path)";
    EXPECT_TRUE(seen.shed) << "no draw shed a request";
    EXPECT_TRUE(seen.appLessNode) << "no draw started a node app-less";
    EXPECT_EQ(seen.budgetPolicies.size(), 3u) << "a budget policy never ran";
}

} // namespace
