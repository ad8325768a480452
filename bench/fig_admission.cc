/**
 * @file
 * The shed-vs-approximate frontier (beyond the paper): when is it
 * better to shape the *request stream* (queue, batch, shed) than to
 * degrade the *batch apps* (approximate, reclaim cores)?
 *
 * The grid colocates a flash-crowded / overloaded memcached with a
 * constant-load nginx and two approximate apps under the Pliant
 * runtime, and sweeps {admission policy x batching policy x load
 * scenario}. "off" rows are the approximate-only baseline (admission
 * disabled — exactly the pre-admission engine). The whole grid runs
 * as one batch through driver::parallelMap.
 *
 * Reading guide: under sustained overload the approximate-only
 * baseline can only burn app quality (deep approximation + core
 * reclamation) against a queue it cannot see, while the QoS-guided
 * shed drops the small overload slice that even full approximation
 * cannot absorb — better worst-service QoS at lower quality cost.
 * A second table pairs the learned runtime with QosShed: its relief
 * predictions feed the shed decision directly (shedding and
 * approximation coordinate instead of double-actuating).
 */

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "colo/engine.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

constexpr sim::Time kS = sim::kSecond;

struct ScenarioCase
{
    const char *label;
    colo::Scenario memcached;
};

std::vector<ScenarioCase>
scenarioCases(bool quick)
{
    // A quiet multi-tenant box (both services at 45% of saturation —
    // no contention-driven violations) hit by a memcached flash
    // crowd at t = 10 s, 3 s ramp, 25 s hold, 5 s decay: early
    // enough that the colocated apps (~40-55 nominal seconds) live
    // through the whole excursion. The peak is the axis:
    //  - 1.15: past saturation, but within what QoS-guided shedding
    //    absorbs at the 0.85 utilization target — the frontier cell
    //    where shedding strictly beats approximating;
    //  - 1.30: past the 50% max-shed cap, so unbatched shedding
    //    alone no longer saves QoS (the frontier's far side —
    //    batching's amortized capacity pushes it back);
    //  - 0.90: under nominal saturation, but over the
    //    contention-inflated capacity while the apps still run
    //    precise — the overload a co-located front-end actually
    //    sees.
    using colo::Scenario;
    const auto crowd = [](double peak) {
        return Scenario::flashCrowd(0.45, peak, 10 * kS, 3 * kS,
                                    25 * kS, 5 * kS);
    };
    std::vector<ScenarioCase> cases = {{"flash-1.15", crowd(1.15)},
                                       {"flash-1.30", crowd(1.30)}};
    if (!quick)
        cases.push_back({"flash-0.90", crowd(0.90)});
    return cases;
}

struct AdmissionCase
{
    const char *label;
    /** Disengaged = approximate-only baseline. */
    std::optional<admission::AdmissionKind> policy;
};

std::vector<AdmissionCase>
admissionCases()
{
    return {
        {"off", std::nullopt},
        {"accept-all", admission::AdmissionKind::AcceptAll},
        {"drop-tail", admission::AdmissionKind::DropTail},
        {"prob-shed", admission::AdmissionKind::ProbabilisticShed},
        {"qos-shed", admission::AdmissionKind::QosShed},
    };
}

struct BatchingCase
{
    const char *label;
    admission::BatchingKind kind;
};

std::vector<BatchingCase>
batchingCases(bool quick)
{
    std::vector<BatchingCase> cases = {
        {"none", admission::BatchingKind::None}};
    if (!quick) {
        cases.push_back({"fixed:16", admission::BatchingKind::Fixed});
        cases.push_back(
            {"adaptive:50us", admission::BatchingKind::Adaptive});
    }
    return cases;
}

colo::ColoConfig
makeConfig(const ScenarioCase &sc,
           const std::optional<admission::AdmissionKind> &policy,
           admission::BatchingKind batching, core::RuntimeKind runtime)
{
    colo::ServiceSpec mc;
    mc.kind = services::ServiceKind::Memcached;
    mc.scenario = sc.memcached;
    colo::ServiceSpec ngx;
    ngx.kind = services::ServiceKind::Nginx;
    ngx.scenario = colo::Scenario::constant(0.45);
    colo::ColoConfig cfg = colo::makeMultiServiceConfig(
        {mc, ngx}, {"canneal", "bayesian"}, runtime, 71);
    cfg.maxDuration = 240 * kS;
    if (policy) {
        cfg.admission.enabled = true;
        cfg.admission.policy = *policy;
        cfg.admission.batching = batching;
        cfg.admission.batchSize = 16;
        cfg.admission.batchTimeoutUs = 50.0;
    }
    return cfg;
}

void
addRow(util::TextTable &t, const std::string &scenario,
       const std::string &adm, const std::string &batching,
       const colo::ColoResult &r)
{
    const auto &mc = r.services[0];
    const auto &ngx = r.services[1];
    double inacc = 0.0;
    for (const auto &app : r.apps)
        inacc += app.inaccuracy;
    inacc /= static_cast<double>(r.apps.size());
    t.addRow({scenario, adm, batching,
              util::fmt(mc.meanIntervalP99Us / mc.qosUs, 2) + "x",
              util::fmtPct(mc.qosMetFraction, 0),
              util::fmtPct(mc.shedFraction, 1),
              util::fmt(mc.meanQueueDelayUs, 0),
              util::fmtPct(ngx.qosMetFraction, 0),
              util::fmtPct(inacc, 2),
              std::to_string(r.maxCoresReclaimedTotal)});
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = util::quickFlag(argc, argv, "fig_admission");
    std::cout << "=== Admission control & batching: the "
                 "shed-vs-approximate frontier ===\n\n";

    const auto scenarios = scenarioCases(quick);
    const auto admissions = admissionCases();
    const auto batchings = batchingCases(quick);

    std::vector<colo::ColoConfig> configs;
    for (const auto &sc : scenarios)
        for (const auto &adm : admissions)
            for (const auto &bat : batchings) {
                // Batching needs a queue: the baseline has none.
                if (!adm.policy && bat.kind !=
                                       admission::BatchingKind::None)
                    continue;
                configs.push_back(makeConfig(sc, adm.policy, bat.kind,
                                             core::RuntimeKind::Pliant));
            }

    auto results = colo::runColocations(configs);

    util::TextTable t({"scenario", "admission", "batching",
                       "mc p99/QoS", "met%", "shed%", "qdelay us",
                       "nginx met%", "inaccuracy", "cores"});
    std::size_t cell = 0;
    for (const auto &sc : scenarios)
        for (const auto &adm : admissions)
            for (const auto &bat : batchings) {
                if (!adm.policy && bat.kind !=
                                       admission::BatchingKind::None)
                    continue;
                addRow(t, sc.label, adm.label, bat.label,
                       results[cell++]);
            }
    t.print(std::cout);

    // The coordination table: the learned runtime publishes relief
    // predictions; QosShed consults them, so shedding starts exactly
    // when the model says approximation cannot clear QoS.
    std::cout << "\n--- QoS-guided shed x learned relief "
                 "predictions ---\n\n";
    std::vector<colo::ColoConfig> learned_configs;
    for (const auto &sc : scenarios) {
        learned_configs.push_back(
            makeConfig(sc, std::nullopt,
                       admission::BatchingKind::None,
                       core::RuntimeKind::Learned));
        learned_configs.push_back(
            makeConfig(sc, admission::AdmissionKind::QosShed,
                       admission::BatchingKind::None,
                       core::RuntimeKind::Learned));
    }
    auto learned_results =
        colo::runColocations(learned_configs);

    util::TextTable lt({"scenario", "admission", "batching",
                        "mc p99/QoS", "met%", "shed%", "qdelay us",
                        "nginx met%", "inaccuracy", "cores"});
    cell = 0;
    for (const auto &sc : scenarios) {
        addRow(lt, sc.label, "off", "none", learned_results[cell++]);
        addRow(lt, sc.label, "qos-shed", "none",
               learned_results[cell++]);
    }
    lt.print(std::cout);

    std::cout
        << "\nReading: at flash-1.15 the approximate-only baseline "
           "burns app quality and reclaims cores against an overload "
           "that lives in the request stream (and still misses QoS "
           "through the crowd), while qos-shed drops the excess at "
           "the front door — strictly better worst-service QoS at a "
           "strictly lower quality cost, with no cores taken. At "
           "flash-1.30 the 50% max-shed cap binds and unbatched "
           "shedding no longer saves QoS — until batching's "
           "amortization buys the missing capacity (qos-shed + "
           "fixed/adaptive). Even the nominally sub-saturation "
           "crowd (flash-0.90) overloads the contention-inflated "
           "service, so the frontier starts below load 1.0 on a "
           "colocated box.\n";
    return 0;
}
