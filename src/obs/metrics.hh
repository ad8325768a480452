/**
 * @file
 * Deterministic metrics registry: named counters, gauges, running
 * stats, and log-histograms, registered once up front and updated
 * allocation-free afterwards.
 *
 * Determinism contract. Metrics fall into two stability classes,
 * tagged in every export:
 *
 *  - `deterministic`: pure simulation outputs. Each registry is
 *    written by one thread only (its engine's, or the cluster
 *    barrier thread), and cluster snapshots merge in fixed node
 *    order, so integer counts and doubles alike are identical at
 *    any pool-thread count.
 *  - `wall_time`: measured off std::chrono::steady_clock (phase
 *    timers, pool job latencies). These are the only
 *    nondeterministic values in an export and the tooling treats
 *    them as warn-only.
 *
 * Registration (counter()/gauge()/stat()/histogram()) happens at
 * engine/cluster construction and allocates; freeze() then closes
 * the roster. Every update on a frozen registry — add(), set(),
 * record(), histAdd() — is heap-allocation-free, which the warmed
 * tick loop's zero-allocation test relies on.
 */

#ifndef PLIANT_OBS_METRICS_HH
#define PLIANT_OBS_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/histogram.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace pliant {
namespace obs {

/**
 * Observability knobs carried by ColoConfig/ClusterConfig. The
 * default-constructed state means "off": no registry is built, no
 * instrumentation runs, and outputs are byte-identical to a build
 * without the subsystem.
 */
struct ObsConfig
{
    /** Build a MetricsRegistry and record engine/cluster metrics. */
    bool metrics = false;

    /**
     * When a TraceWriter is attached, also emit per-tick phase
     * spans (prelude/tenants/tasks). Off by default: a long run
     * emits hundreds of thousands of events on this track.
     */
    bool traceTickPhases = false;

    bool enabled() const { return metrics; }
};

/** What a metric measures; fixes the update API and export shape. */
enum class MetricKind
{
    Counter,   ///< monotone uint64
    Gauge,     ///< last-written double
    Stat,      ///< util::RunningStats
    Histogram, ///< util::LogHistogram
};

/** Stability class of a metric's value (see file header). */
enum class Stability
{
    Deterministic,
    WallTime,
};

const char *kindName(MetricKind kind);
const char *stabilityName(Stability stability);

/** Dense handle returned by registration; valid for registry life. */
using MetricId = std::uint32_t;

/**
 * One folded metric in a snapshot. Which fields are meaningful
 * depends on kind: Counter uses count; Gauge uses value; Stat uses
 * stat; Histogram uses buckets/histLo/histBase.
 */
struct MetricValue
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    Stability stability = Stability::Deterministic;

    std::uint64_t count = 0; ///< Counter total
    double value = 0.0;      ///< Gauge value
    util::RunningStats stat; ///< Stat accumulator

    /** Histogram folded counts: [under, b0..bN-1, over]. */
    std::vector<std::uint64_t> buckets;
    double histLo = 0.0;
    double histBase = 0.0;

    /** Total histogram observations (sum of buckets). */
    std::uint64_t histCount() const;

    /** Approximate histogram quantile (q in [0,1]) from buckets. */
    double histQuantile(double q) const;
};

/**
 * A folded, registry-independent copy of every metric, in
 * registration order. Snapshots merge across nodes by name; the
 * caller folds in fixed node order so the merged doubles are
 * thread-count-invariant.
 */
struct MetricsSnapshot
{
    std::vector<MetricValue> metrics;

    bool empty() const { return metrics.empty(); }

    /** Lookup by full name; null when absent. */
    const MetricValue *find(const std::string &name) const;

    /**
     * Fold another snapshot in: counters and histogram buckets add,
     * gauges add, stats Welford-merge. Metrics only present in
     * `other` are appended in their order.
     */
    void merge(const MetricsSnapshot &other);
};

/**
 * The registry. Registration fixes the metric roster and allocates
 * each metric's storage; freeze() ends registration. Not
 * thread-safe: one registry has one writer.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    MetricId counter(std::string name,
                     Stability stability = Stability::Deterministic);
    MetricId gauge(std::string name,
                   Stability stability = Stability::Deterministic);
    MetricId stat(std::string name,
                  Stability stability = Stability::Deterministic);
    MetricId histogram(std::string name, double lo, double base,
                       std::size_t buckets,
                       Stability stability = Stability::Deterministic);

    /** End registration. */
    void freeze();

    bool frozen() const { return isFrozen; }
    std::size_t size() const { return names.size(); }

    /** Counter add. Frozen-only. */
    void add(MetricId id, std::uint64_t delta = 1)
    {
        counters[slotOf[id]] += delta;
    }

    /** Gauge overwrite. Frozen-only. */
    void set(MetricId id, double v) { gauges[slotOf[id]] = v; }

    /** Gauge running-max. Frozen-only. */
    void setMax(MetricId id, double v)
    {
        double &g = gauges[slotOf[id]];
        if (v > g)
            g = v;
    }

    /** Stat observation. Frozen-only. */
    void record(MetricId id, double v) { stats[slotOf[id]].add(v); }

    /** Histogram add. Frozen-only. */
    void histAdd(MetricId id, double v) { hists[slotOf[id]].add(v); }

    /** Copy every metric into a registry-independent snapshot. */
    MetricsSnapshot snapshot() const;

  private:
    MetricId registerMetric(std::string name, MetricKind kind,
                            Stability stability, std::uint32_t slot);

    bool isFrozen = false;

    std::vector<std::string> names;
    std::vector<MetricKind> kinds;
    std::vector<Stability> stabilities;
    /** Per-kind slot index of each MetricId. */
    std::vector<std::uint32_t> slotOf;

    std::vector<std::uint64_t> counters;
    std::vector<double> gauges;
    std::vector<util::RunningStats> stats;
    std::vector<util::LogHistogram> hists;
};

/**
 * Write a snapshot as JSON: `{"schema": "pliant-metrics-v1",
 * "metrics": [...]}`, each metric carrying its kind and stability
 * tag so tooling can hard-fail deterministic drift while treating
 * wall_time fields as warn-only.
 */
void writeMetricsJson(std::ostream &os, const MetricsSnapshot &snap);

/** Render a snapshot as an aligned text table. */
util::TextTable metricsTable(const MetricsSnapshot &snap);

} // namespace obs
} // namespace pliant

#endif // PLIANT_OBS_METRICS_HH
