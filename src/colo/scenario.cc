#include "colo/scenario.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <sstream>

#include "util/logging.hh"

namespace pliant {
namespace colo {

std::string
scenarioName(ScenarioKind kind)
{
    switch (kind) {
    case ScenarioKind::Constant:
        return "constant";
    case ScenarioKind::Diurnal:
        return "diurnal";
    case ScenarioKind::FlashCrowd:
        return "flash-crowd";
    case ScenarioKind::Step:
        return "step";
    case ScenarioKind::Trace:
        return "trace";
    }
    return "unknown";
}

double
Scenario::loadAt(sim::Time t) const
{
    switch (kind) {
    case ScenarioKind::Constant:
        return baseLoad;

    case ScenarioKind::Diurnal: {
        if (period <= 0)
            return baseLoad;
        const double phase = 2.0 * M_PI * sim::toSeconds(t) /
                             sim::toSeconds(period);
        return std::max(0.0,
                        baseLoad * (1.0 + amplitude * std::sin(phase)));
    }

    case ScenarioKind::FlashCrowd: {
        if (t < at)
            return baseLoad;
        sim::Time rel = t - at;
        if (rel < ramp) {
            const double f = static_cast<double>(rel) /
                             static_cast<double>(std::max<sim::Time>(
                                 ramp, 1));
            return baseLoad + (peakLoad - baseLoad) * f;
        }
        rel -= ramp;
        if (rel < hold)
            return peakLoad;
        rel -= hold;
        if (rel < decay) {
            const double f = static_cast<double>(rel) /
                             static_cast<double>(std::max<sim::Time>(
                                 decay, 1));
            return peakLoad + (baseLoad - peakLoad) * f;
        }
        return baseLoad;
    }

    case ScenarioKind::Step:
        return t < at ? baseLoad : peakLoad;

    case ScenarioKind::Trace: {
        if (points.empty())
            return baseLoad;
        if (t <= points.front().t)
            return points.front().load;
        if (t >= points.back().t)
            return points.back().load;
        // First knot strictly after t; interpolate on [prev, next].
        const auto next = std::upper_bound(
            points.begin(), points.end(), t,
            [](sim::Time lhs, const LoadPoint &p) { return lhs < p.t; });
        const auto prev = next - 1;
        const double f = static_cast<double>(t - prev->t) /
                         static_cast<double>(next->t - prev->t);
        return prev->load + (next->load - prev->load) * f;
    }
    }
    return baseLoad;
}

namespace {

void
requireLoad(double load, std::string_view tenant, ScenarioKind kind,
            const char *field)
{
    if (!(std::isfinite(load) && load >= 0.0))
        util::fatal("service '", tenant, "': ", scenarioName(kind),
                    " scenario ", field,
                    " must be finite and non-negative, got ", load);
}

} // namespace

void
validateScenarioLoads(const Scenario &scenario, std::string_view tenant)
{
    const ScenarioKind kind = scenario.kind;
    switch (kind) {
    case ScenarioKind::Constant:
        requireLoad(scenario.baseLoad, tenant, kind, "load");
        return;
    case ScenarioKind::Diurnal:
        requireLoad(scenario.baseLoad, tenant, kind, "base load");
        if (!std::isfinite(scenario.amplitude))
            util::fatal("service '", tenant,
                        "': diurnal scenario amplitude must be finite, got ",
                        scenario.amplitude);
        return;
    case ScenarioKind::FlashCrowd:
    case ScenarioKind::Step:
        requireLoad(scenario.baseLoad, tenant, kind, "base load");
        requireLoad(scenario.peakLoad, tenant, kind,
                    kind == ScenarioKind::Step ? "post-step load"
                                               : "peak load");
        return;
    case ScenarioKind::Trace:
        if (scenario.points.empty())
            requireLoad(scenario.baseLoad, tenant, kind, "base load");
        for (const LoadPoint &p : scenario.points)
            requireLoad(p.load, tenant, kind, "point load");
        return;
    }
}

Scenario
Scenario::constant(double load)
{
    Scenario s;
    s.kind = ScenarioKind::Constant;
    s.baseLoad = load;
    return s;
}

Scenario
Scenario::diurnal(double base, double amplitude, sim::Time period)
{
    Scenario s;
    s.kind = ScenarioKind::Diurnal;
    s.baseLoad = base;
    s.amplitude = amplitude;
    s.period = period;
    return s;
}

Scenario
Scenario::flashCrowd(double base, double peak, sim::Time at,
                     sim::Time ramp, sim::Time hold, sim::Time decay)
{
    Scenario s;
    s.kind = ScenarioKind::FlashCrowd;
    s.baseLoad = base;
    s.peakLoad = peak;
    s.at = at;
    s.ramp = ramp;
    s.hold = hold;
    s.decay = decay;
    return s;
}

Scenario
Scenario::step(double base, double level, sim::Time at)
{
    Scenario s;
    s.kind = ScenarioKind::Step;
    s.baseLoad = base;
    s.peakLoad = level;
    s.at = at;
    return s;
}

Scenario
Scenario::trace(std::vector<LoadPoint> points)
{
    if (points.empty())
        util::fatal("trace scenario needs at least one (time, load) "
                    "point");
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!std::isfinite(points[i].load))
            util::fatal("trace scenario point ", i,
                        " has non-finite load ", points[i].load);
        if (points[i].load < 0.0)
            util::fatal("trace scenario point ", i,
                        " has negative load ", points[i].load);
        if (i > 0 && points[i].t <= points[i - 1].t)
            util::fatal("trace scenario times must be strictly "
                        "increasing: point ",
                        i, " at ", sim::toSeconds(points[i].t),
                        " s does not follow ",
                        sim::toSeconds(points[i - 1].t), " s");
    }
    Scenario s;
    s.kind = ScenarioKind::Trace;
    s.points = std::move(points);
    s.baseLoad = s.points.front().load;
    return s;
}

Scenario
Scenario::traceFromCsv(std::istream &in)
{
    // sim::Time is int64 µs: |t| must stay below 2^63 µs for the
    // seconds -> Time conversion to be defined.
    constexpr double kTimeLimitUs = 0x1p63;
    std::vector<LoadPoint> points;
    std::string line;
    std::size_t lineno = 0;
    bool first_row = true;
    while (std::getline(in, line)) {
        ++lineno;
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::stringstream row(line);
        std::string t_field, load_field;
        if (!std::getline(row, t_field, ',') ||
            !std::getline(row, load_field))
            util::fatal("trace CSV line ", lineno,
                        ": expected 't_seconds,load', got '", line,
                        "'");
        // A field parses only if stod consumes everything up to
        // trailing whitespace — '30sec' or '0.5;0.9' is malformed,
        // not silently truncated.
        const auto consumed = [](const std::string &field,
                                 std::size_t end) {
            return field.find_first_not_of(" \t\r", end) ==
                   std::string::npos;
        };
        double t_s = 0.0, load = 0.0;
        bool numeric = false;
        try {
            std::size_t t_end = 0, load_end = 0;
            t_s = std::stod(t_field, &t_end);
            load = std::stod(load_field, &load_end);
            numeric =
                consumed(t_field, t_end) && consumed(load_field, load_end);
        } catch (const std::exception &) {
            numeric = false;
        }
        // Only the first non-comment line may be a header; any later
        // non-numeric line is a malformed row.
        const bool may_be_header = first_row;
        first_row = false;
        if (!numeric) {
            if (may_be_header)
                continue;
            util::fatal("trace CSV line ", lineno,
                        ": non-numeric fields in '", line, "'");
        }
        if (!std::isfinite(load))
            util::fatal("trace CSV line ", lineno, ": load '",
                        load_field, "' is not finite");
        const double t_us = t_s * static_cast<double>(sim::kSecond);
        if (!(t_us > -kTimeLimitUs && t_us < kTimeLimitUs))
            util::fatal("trace CSV line ", lineno, ": time '", t_field,
                        "' s is not finite or outside the simulated "
                        "time range");
        points.push_back({sim::fromSeconds(t_s), load});
    }
    if (points.empty())
        util::fatal("trace CSV contains no (time, load) points");
    return trace(std::move(points));
}

Scenario
Scenario::traceFromCsvFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        util::fatal("cannot open trace CSV '", path, "'");
    return traceFromCsv(in);
}

} // namespace colo
} // namespace pliant
