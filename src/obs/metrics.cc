/**
 * @file
 * MetricsRegistry implementation: registration, freezing,
 * snapshots and their merging, and the JSON/table exporters.
 */

#include "obs/metrics.hh"

#include <cmath>
#include <ostream>
#include <utility>

#include "util/logging.hh"

namespace pliant {
namespace obs {

namespace {

/** Emit a double the way the bench JSON writers do (round-trip). */
void
jsonNumber(std::ostream &os, double v)
{
    if (std::isfinite(v)) {
        const auto old = os.precision(17);
        os << v;
        os.precision(old);
    } else {
        // JSON has no inf/nan literals; an empty stat's min/max are
        // the only producers and export as null.
        os << "null";
    }
}

/**
 * A wall-time value in seconds, scaled to the largest of s/ms/µs/ns
 * it reaches, so µs-scale phase timers read as "3.200 µs" rather
 * than "0.0000". Table only: the JSON export stays in seconds.
 */
std::string
fmtSeconds(double s)
{
    const double mag = std::fabs(s);
    if (mag >= 1.0)
        return util::fmt(s, 3) + " s";
    if (mag >= 1e-3)
        return util::fmt(s * 1e3, 3) + " ms";
    if (mag >= 1e-6)
        return util::fmt(s * 1e6, 3) + " µs";
    return util::fmt(s * 1e9, 3) + " ns";
}

/** Whether a metric holds wall-clock seconds (the `_s` suffix). */
bool
isWallSeconds(const MetricValue &m)
{
    const std::string &n = m.name;
    return m.stability == Stability::WallTime && n.size() > 2 &&
           n.compare(n.size() - 2, 2, "_s") == 0;
}

void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

} // namespace

const char *
kindName(MetricKind kind)
{
    switch (kind) {
    case MetricKind::Counter:
        return "counter";
    case MetricKind::Gauge:
        return "gauge";
    case MetricKind::Stat:
        return "stat";
    case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

const char *
stabilityName(Stability stability)
{
    switch (stability) {
    case Stability::Deterministic:
        return "deterministic";
    case Stability::WallTime:
        return "wall_time";
    }
    return "?";
}

std::uint64_t
MetricValue::histCount() const
{
    std::uint64_t total = 0;
    for (std::uint64_t b : buckets)
        total += b;
    return total;
}

double
MetricValue::histQuantile(double q) const
{
    // Mirrors util::LogHistogram::quantile over the folded buckets.
    const std::uint64_t total = histCount();
    if (total == 0)
        return 0.0;
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    const auto lastRegular = buckets.size() - 2;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen > target) {
            if (i == 0)
                return histLo;
            if (i == buckets.size() - 1)
                return histLo *
                       std::pow(histBase,
                                static_cast<double>(lastRegular));
            return histLo *
                   std::pow(histBase, static_cast<double>(i - 1)) *
                   std::sqrt(histBase);
        }
    }
    return histLo *
           std::pow(histBase, static_cast<double>(lastRegular));
}

const MetricValue *
MetricsSnapshot::find(const std::string &name) const
{
    for (const MetricValue &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const MetricValue &theirs : other.metrics) {
        MetricValue *mine = nullptr;
        for (MetricValue &m : metrics)
            if (m.name == theirs.name) {
                mine = &m;
                break;
            }
        if (!mine) {
            metrics.push_back(theirs);
            continue;
        }
        PLIANT_ASSERT(mine->kind == theirs.kind,
                      "metric kind mismatch in snapshot merge: " +
                          theirs.name);
        switch (mine->kind) {
        case MetricKind::Counter:
            mine->count += theirs.count;
            break;
        case MetricKind::Gauge:
            mine->value += theirs.value;
            break;
        case MetricKind::Stat:
            mine->stat.merge(theirs.stat);
            break;
        case MetricKind::Histogram:
            PLIANT_ASSERT(mine->buckets.size() ==
                              theirs.buckets.size(),
                          "histogram shape mismatch in snapshot "
                          "merge: " +
                              theirs.name);
            for (std::size_t i = 0; i < mine->buckets.size(); ++i)
                mine->buckets[i] += theirs.buckets[i];
            break;
        }
    }
}

MetricId
MetricsRegistry::registerMetric(std::string name, MetricKind kind,
                                Stability stability,
                                std::uint32_t slot)
{
    PLIANT_ASSERT(!isFrozen,
                  "metric registered after freeze: " + name);
    const auto id = static_cast<MetricId>(names.size());
    names.push_back(std::move(name));
    kinds.push_back(kind);
    stabilities.push_back(stability);
    slotOf.push_back(slot);
    return id;
}

MetricId
MetricsRegistry::counter(std::string name, Stability stability)
{
    const auto slot = static_cast<std::uint32_t>(counters.size());
    counters.push_back(0);
    return registerMetric(std::move(name), MetricKind::Counter,
                          stability, slot);
}

MetricId
MetricsRegistry::gauge(std::string name, Stability stability)
{
    const auto slot = static_cast<std::uint32_t>(gauges.size());
    gauges.push_back(0.0);
    return registerMetric(std::move(name), MetricKind::Gauge,
                          stability, slot);
}

MetricId
MetricsRegistry::stat(std::string name, Stability stability)
{
    const auto slot = static_cast<std::uint32_t>(stats.size());
    stats.emplace_back();
    return registerMetric(std::move(name), MetricKind::Stat,
                          stability, slot);
}

MetricId
MetricsRegistry::histogram(std::string name, double lo, double base,
                           std::size_t buckets, Stability stability)
{
    const auto slot = static_cast<std::uint32_t>(hists.size());
    hists.emplace_back(lo, base, buckets);
    return registerMetric(std::move(name), MetricKind::Histogram,
                          stability, slot);
}

void
MetricsRegistry::freeze()
{
    PLIANT_ASSERT(!isFrozen, "metrics registry frozen twice");
    isFrozen = true;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    PLIANT_ASSERT(isFrozen, "snapshot of an unfrozen registry");
    MetricsSnapshot snap;
    snap.metrics.reserve(names.size());
    for (std::size_t id = 0; id < names.size(); ++id) {
        MetricValue m;
        m.name = names[id];
        m.kind = kinds[id];
        m.stability = stabilities[id];
        const std::uint32_t slot = slotOf[id];
        switch (m.kind) {
        case MetricKind::Counter:
            m.count = counters[slot];
            break;
        case MetricKind::Gauge:
            m.value = gauges[slot];
            break;
        case MetricKind::Stat:
            m.stat = stats[slot];
            break;
        case MetricKind::Histogram: {
            const util::LogHistogram &h = hists[slot];
            m.histLo = h.lo();
            m.histBase = h.base();
            m.buckets.assign(h.buckets().begin(), h.buckets().end());
            break;
        }
        }
        snap.metrics.push_back(std::move(m));
    }
    return snap;
}

void
writeMetricsJson(std::ostream &os, const MetricsSnapshot &snap)
{
    os << "{\n  \"schema\": \"pliant-metrics-v1\",\n"
       << "  \"metrics\": [\n";
    for (std::size_t i = 0; i < snap.metrics.size(); ++i) {
        const MetricValue &m = snap.metrics[i];
        os << "    {\"name\": ";
        jsonString(os, m.name);
        os << ", \"kind\": \"" << kindName(m.kind)
           << "\", \"stability\": \"" << stabilityName(m.stability)
           << "\"";
        switch (m.kind) {
        case MetricKind::Counter:
            os << ", \"count\": " << m.count;
            break;
        case MetricKind::Gauge:
            os << ", \"value\": ";
            jsonNumber(os, m.value);
            break;
        case MetricKind::Stat:
            os << ", \"count\": " << m.stat.count() << ", \"mean\": ";
            jsonNumber(os, m.stat.mean());
            os << ", \"stddev\": ";
            jsonNumber(os, m.stat.stddev());
            os << ", \"min\": ";
            jsonNumber(os, m.stat.min());
            os << ", \"max\": ";
            jsonNumber(os, m.stat.max());
            os << ", \"sum\": ";
            jsonNumber(os, m.stat.sum());
            break;
        case MetricKind::Histogram:
            os << ", \"count\": " << m.histCount()
               << ", \"p50\": ";
            jsonNumber(os, m.histQuantile(0.50));
            os << ", \"p99\": ";
            jsonNumber(os, m.histQuantile(0.99));
            os << ", \"lo\": ";
            jsonNumber(os, m.histLo);
            os << ", \"base\": ";
            jsonNumber(os, m.histBase);
            os << ", \"buckets\": [";
            for (std::size_t b = 0; b < m.buckets.size(); ++b)
                os << (b ? ", " : "") << m.buckets[b];
            os << "]";
            break;
        }
        os << "}" << (i + 1 < snap.metrics.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n}\n";
}

util::TextTable
metricsTable(const MetricsSnapshot &snap)
{
    util::TextTable table({"metric", "kind", "stability", "value"});
    for (const MetricValue &m : snap.metrics) {
        const auto num = [&m](double v) {
            return isWallSeconds(m) ? fmtSeconds(v) : util::fmt(v, 4);
        };
        std::string value;
        switch (m.kind) {
        case MetricKind::Counter:
            value = std::to_string(m.count);
            break;
        case MetricKind::Gauge:
            value = num(m.value);
            break;
        case MetricKind::Stat:
            value = "n=" + std::to_string(m.stat.count()) +
                    " mean=" + num(m.stat.mean()) +
                    " max=" + num(m.stat.max());
            break;
        case MetricKind::Histogram:
            value = "n=" + std::to_string(m.histCount()) +
                    " p50=" + util::fmt(m.histQuantile(0.50), 1) +
                    " p99=" + util::fmt(m.histQuantile(0.99), 1);
            break;
        }
        table.addRow({m.name, kindName(m.kind),
                      stabilityName(m.stability), value});
    }
    return table;
}

} // namespace obs
} // namespace pliant
