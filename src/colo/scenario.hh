/**
 * @file
 * Deterministic load scenarios for colocation experiments.
 *
 * A Scenario is a pure function of simulated time that yields the
 * *mean* offered load (as a fraction of a service's saturation
 * throughput) at that instant. The engine re-targets each service's
 * services::WorkloadGenerator with this value every tick, so the
 * stochastic texture of real traffic (mean-reverting noise, short
 * bursts) composes on top of the deterministic macro pattern.
 *
 * Five patterns cover the shapes datacenter consolidation studies
 * care about:
 *
 *  - Constant:   the paper's fixed offered load,
 *  - Diurnal:    a day/night sinusoid around the base load,
 *  - FlashCrowd: base -> linear ramp -> peak hold -> linear decay,
 *  - Step:       an abrupt, persistent change of the base load,
 *  - Trace:      piecewise-linear replay of measured (time, load)
 *                points, loadable from CSV.
 */

#ifndef PLIANT_COLO_SCENARIO_HH
#define PLIANT_COLO_SCENARIO_HH

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hh"

namespace pliant {
namespace colo {

/** The supported deterministic load patterns. */
enum class ScenarioKind { Constant, Diurnal, FlashCrowd, Step, Trace };

/** One knot of a Trace scenario's piecewise-linear load curve. */
struct LoadPoint
{
    sim::Time t = 0;
    double load = 0.0;
};

/** Printable name of a scenario kind. */
std::string scenarioName(ScenarioKind kind);

/**
 * A deterministic load trace. Field relevance depends on `kind`;
 * use the factory functions to build one without remembering which
 * fields each pattern reads.
 */
struct Scenario
{
    ScenarioKind kind = ScenarioKind::Constant;

    /** Mean offered load outside any excursion. */
    double baseLoad = 0.78;

    /** Diurnal: relative swing (load = base * (1 + a sin)). */
    double amplitude = 0.25;

    /** Diurnal: full day/night period. */
    sim::Time period = 240 * sim::kSecond;

    /** FlashCrowd / Step: when the excursion begins. */
    sim::Time at = 60 * sim::kSecond;

    /** FlashCrowd peak load; Step's post-step load. */
    double peakLoad = 0.95;

    /** FlashCrowd: base -> peak ramp duration. */
    sim::Time ramp = 5 * sim::kSecond;

    /** FlashCrowd: time spent at the peak. */
    sim::Time hold = 30 * sim::kSecond;

    /** FlashCrowd: peak -> base decay duration. */
    sim::Time decay = 20 * sim::kSecond;

    /**
     * Trace: knots of the piecewise-linear load curve, strictly
     * increasing in time. Before the first knot the first load
     * holds; after the last knot the last load holds.
     */
    std::vector<LoadPoint> points;

    /**
     * Mean offered-load fraction at simulated time t. Pure and
     * deterministic: the same (scenario, t) always yields the same
     * load, which is what keeps scenario-driven experiments
     * reproducible at any sweep thread count.
     */
    double loadAt(sim::Time t) const;

    static Scenario constant(double load);
    static Scenario diurnal(double base, double amplitude,
                            sim::Time period);
    static Scenario flashCrowd(double base, double peak, sim::Time at,
                               sim::Time ramp, sim::Time hold,
                               sim::Time decay);
    static Scenario step(double base, double level, sim::Time at);

    /**
     * Piecewise-linear replay of the given (time, load) knots.
     * Throws FatalError when the list is empty, times are not
     * strictly increasing, or a load is negative.
     */
    static Scenario trace(std::vector<LoadPoint> points);

    /**
     * Load a Trace scenario from CSV: one `t_seconds,load` pair per
     * line; blank lines, `#` comments, and a non-numeric header line
     * are skipped. Throws FatalError on malformed rows or when no
     * points remain.
     */
    static Scenario traceFromCsv(std::istream &in);

    /** traceFromCsv() over the named file. */
    static Scenario traceFromCsvFile(const std::string &path);
};

/**
 * Reject a scenario whose loads would reach the sampler as nonsense
 * (throws FatalError naming `tenant`): every load field the kind
 * reads — baseLoad; peakLoad for FlashCrowd and Step; every knot for
 * Trace (baseLoad when it has none) — must be finite and
 * non-negative, and a Diurnal amplitude must be finite.
 */
void validateScenarioLoads(const Scenario &scenario, std::string_view tenant);

} // namespace colo
} // namespace pliant

#endif // PLIANT_COLO_SCENARIO_HH
