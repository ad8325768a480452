/**
 * @file
 * The benchmark program. Runs one workload, generated from a seed, for
 * a given number of seconds and prints one JSON object of raw
 * measurements on stdout: per-unit host times with the reference
 * kernel's rate beside each, the simulated outcomes, correctness
 * counts, and (traced pass only) the per-layer metrics. run.py turns
 * that into the reported metrics.
 *
 * Usage: perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--out-dir DIR]
 *
 * A unit is one full piece of work: build and validate the configs,
 * construct every Engine (or every Cluster, whose run() constructs its
 * node engines), then run everything to completion. The first unit is
 * a warm-up and
 * is not timed; on single-node workloads it advances each engine one
 * decision interval at a time with Engine::advanceUntil, and every
 * later unit (plain run()) must reproduce its outcome exactly.
 *
 * With --trace 1 the measuring time is split: untraced units, then
 * traced units (metrics registry plus TraceWriter on, benchmark-side
 * spans around every public call), then the layer probes. Spans stay
 * in memory and are written to --out-dir when the run ends.
 */

#include <cpuid.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "approx/profile.hh"
#include "cluster/cluster.hh"
#include "colo/engine.hh"
#include "obs/trace.hh"
#include "probes.hh"
#include "refkernel.hh"

namespace perfbench {

namespace {

using namespace pliant;
using Clock = std::chrono::steady_clock;
constexpr sim::Time kS = sim::kSecond;

/** Reference-kernel repetitions timed before and after each unit. */
constexpr int kRefReps = 12;

/** Repetitions timed between a unit's engines or clusters. */
constexpr int kRefInnerReps = 4;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}


double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

/** A seed for one generated input, derived from the run's seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t salt)
{
    util::SplitMix64 sm(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
    return sm.next();
}

/** FNV-1a over raw bytes, for exact outcome and input digests. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void *p, std::size_t n)
    {
        const unsigned char *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 0x100000001b3ULL;
        }
    }

    void add(double v) { bytes(&v, sizeof v); }
    void add(std::uint64_t v) { bytes(&v, sizeof v); }
    void add(const std::string &s) { bytes(s.data(), s.size()); }
};

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

enum class Kind { PaperColo, DenseNode, ClusterControl, Scale1000 };

struct Workload
{
    const char *name;
    Kind kind;
    bool cluster;
    std::size_t tenantsPerNode;
    /**
     * Setups per unit: a small setup takes microseconds, so it is
     * repeated (the last repetition's objects run) and the median
     * kept.
     */
    std::size_t setupRepeats;
    /** Independent replicas (derived seeds) run in one unit. */
    std::size_t replicas;
    /**
     * Whether a tenant is keyed by its engine (a paper_colo cell, a
     * cluster_control node): true where engines differ, false where
     * every engine is an instance of one node template (dense_node's
     * replicas, scale_1000's nodes).
     */
    bool tenantPerEngine;
};

const Workload kWorkloads[] = {
    {"paper_colo", Kind::PaperColo, false, 1, 31, 1, true},
    {"dense_node", Kind::DenseNode, false, 8, 51, 12, false},
    {"cluster_control", Kind::ClusterControl, true, 2, 81, 6, true},
    {"scale_1000", Kind::Scale1000, true, 10, 3, 1, false},
};

/**
 * The paper's Fig. 5 grid: 3 services x the 24 catalog apps under
 * Pliant, one tenant at load 0.78, each cell run to completion.
 */
std::vector<colo::ColoConfig>
paperColoConfigs(std::uint64_t seed)
{
    const services::ServiceKind kinds[] = {
        services::ServiceKind::Nginx,
        services::ServiceKind::Memcached,
        services::ServiceKind::MongoDb,
    };
    std::vector<colo::ColoConfig> cfgs;
    std::uint64_t cell = 0;
    for (auto kind : kinds)
        for (const std::string &app : approx::catalogNames())
            cfgs.push_back(colo::makeColoConfig(
                kind, {app}, core::RuntimeKind::Pliant,
                derive(seed, ++cell), 0.78));
    return cfgs;
}

/** perf_tick's flash_crowd_8 shape: 8 tenants, 2 flash-crowded. */
colo::ColoConfig
denseNodeConfig(std::uint64_t seed)
{
    std::vector<colo::ServiceSpec> specs;
    for (int i = 0; i < 8; ++i) {
        colo::ServiceSpec s;
        s.kind = i % 2 == 0 ? services::ServiceKind::Memcached
                            : services::ServiceKind::Nginx;
        s.name = (i % 2 == 0 ? "mc-" : "ngx-") + std::to_string(i);
        s.scenario = i < 2
            ? colo::Scenario::flashCrowd(0.45, 0.95, 20 * kS, 3 * kS,
                                         20 * kS, 10 * kS)
            : colo::Scenario::constant(0.45);
        specs.push_back(std::move(s));
    }
    colo::ColoConfig cfg = colo::makeMultiServiceConfig(
        std::move(specs), {"canneal", "bayesian"},
        core::RuntimeKind::Pliant, derive(seed, 0xd3));
    cfg.maxDuration = 120 * kS;
    return cfg;
}

/**
 * Four nodes of memcached + nginx; two memcached tenants see flash
 * crowds past saturation. QoS-aware placement migrates, QosShed with
 * adaptive batching sheds, a Proportional budget splits quality and
 * shed entitlement, and 2 pool threads advance the nodes.
 */
cluster::ClusterConfig
clusterControlConfig(std::uint64_t seed)
{
    cluster::ClusterConfigBuilder b;
    for (int n = 0; n < 4; ++n) {
        b.node();
        if (n < 2)
            b.service(services::ServiceKind::Memcached,
                      colo::Scenario::flashCrowd(
                          0.60, n == 0 ? 1.20 : 1.00,
                          (15 + 10 * n) * kS, 3 * kS, 15 * kS, 5 * kS));
        else
            b.service(services::ServiceKind::Memcached,
                      colo::Scenario::constant(0.55));
        b.service(services::ServiceKind::Nginx,
                  colo::Scenario::constant(0.60));
    }
    b.apps({"canneal", "bayesian", "snp", "kmeans", "raytrace",
            "streamcluster"})
        .runtime(core::RuntimeKind::Pliant)
        .placement(cluster::PlacementKind::QosAware)
        .admission(admission::AdmissionKind::QosShed,
                   admission::BatchingKind::Adaptive)
        .budget(budget::BudgetPolicy::Proportional, 0.16, 2.0)
        .epoch(5 * kS)
        .maxDuration(60 * kS)
        .seed(derive(seed, 0xc1))
        .threads(2);
    return b.build();
}

/** fig_scale's shape: 1000 nodes x 10 tenants, 12 static apps. */
cluster::ClusterConfig
scaleConfig(std::uint64_t seed)
{
    cluster::ClusterConfigBuilder b;
    for (std::size_t n = 0; n < 1000; ++n) {
        b.node();
        for (std::size_t s = 0; s < 10; ++s) {
            const bool mc = s % 2 == 0;
            const double load =
                0.40 + 0.03 * static_cast<double>((n + s) % 5);
            b.service((mc ? "mc-" : "ngx-") + std::to_string(s),
                      mc ? services::ServiceKind::Memcached
                         : services::ServiceKind::Nginx,
                      colo::Scenario::constant(load));
        }
    }
    b.apps({"canneal", "streamcluster", "bayesian", "kmeans", "snp",
            "raytrace", "fluidanimate", "water_nsquared", "birch",
            "genenet", "semphy", "plsa"})
        .runtime(core::RuntimeKind::Pliant)
        .placement(cluster::PlacementKind::Static)
        .tick(1 * kS)
        .decisionInterval(1 * kS)
        .epoch(5 * kS)
        .maxDuration(12 * kS)
        .seed(derive(seed, 0x5c))
        .threads(1);
    return b.build();
}

/** A single-node workload's engine configs for one unit. */
std::vector<colo::ColoConfig>
engineConfigs(const Workload &wl, std::uint64_t seed)
{
    if (wl.kind == Kind::PaperColo)
        return paperColoConfigs(seed);
    std::vector<colo::ColoConfig> cfgs;
    for (std::size_t k = 0; k < wl.replicas; ++k)
        cfgs.push_back(denseNodeConfig(derive(seed, k)));
    return cfgs;
}

/** A cluster workload's cluster configs for one unit. */
std::vector<cluster::ClusterConfig>
clusterConfigs(const Workload &wl, std::uint64_t seed)
{
    std::vector<cluster::ClusterConfig> cfgs;
    for (std::size_t k = 0; k < wl.replicas; ++k)
        cfgs.push_back(wl.kind == Kind::Scale1000
                           ? scaleConfig(derive(seed, k))
                           : clusterControlConfig(derive(seed, k)));
    return cfgs;
}

/** Digest of the generated inputs (what the seed changes). */
std::uint64_t
inputsDigest(const Workload &wl, std::uint64_t seed)
{
    Digest d;
    if (!wl.cluster) {
        for (const colo::ColoConfig &c : engineConfigs(wl, seed)) {
            d.add(c.seed);
            for (const std::string &a : c.apps)
                d.add(a);
            d.add(c.loadFraction);
        }
    } else {
        for (const cluster::ClusterConfig &c : clusterConfigs(wl, seed)) {
            d.add(c.seed);
            for (const std::string &a : c.apps)
                d.add(a);
        }
    }
    return d.h;
}

// ------------------------------------------------------------------
// Benchmark-side spans
// ------------------------------------------------------------------

/** One wall-clock span around a public call, kept in memory. */
struct Span
{
    const char *name;
    const char *module;
    double startUs;
    double endUs;
    int parent;
};

class SpanLog
{
  public:
    SpanLog() : origin(Clock::now()) {}

    int
    open(const char *name, const char *module)
    {
        spans.push_back({name, module, nowUs(), 0.0, current});
        current = static_cast<int>(spans.size()) - 1;
        return current;
    }

    void
    close(int id)
    {
        spans[id].endUs = nowUs();
        current = spans[id].parent;
    }

    /** Durations (µs) of every span with this name. */
    std::vector<double>
    durations(const char *name) const
    {
        std::vector<double> out;
        for (const Span &s : spans)
            if (std::strcmp(s.name, name) == 0)
                out.push_back(s.endUs - s.startUs);
        return out;
    }

    /** Self time (µs) summed per module: duration minus children. */
    std::vector<std::pair<std::string, double>>
    selfTimeByModule() const
    {
        std::vector<double> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i) {
            self[i] += spans[i].endUs - spans[i].startUs;
            if (spans[i].parent >= 0)
                self[spans[i].parent] -= spans[i].endUs - spans[i].startUs;
        }
        std::vector<std::pair<std::string, double>> out;
        for (const char *m : {"bench", "colo", "cluster"}) {
            double sum = 0.0;
            for (std::size_t i = 0; i < spans.size(); ++i)
                if (std::strcmp(spans[i].module, m) == 0)
                    sum += self[i];
            out.emplace_back(m, sum);
        }
        return out;
    }

    /** Chrome trace_event JSON of every span (wall-clock µs). */
    void
    writeChromeTrace(std::ostream &os) const
    {
        os << "[\n";
        os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
              "\"tid\": 0, \"args\": {\"name\": \"perfbench (host "
              "wall clock)\"}}";
        os.precision(3);
        os << std::fixed;
        for (const Span &s : spans)
            os << ",\n{\"name\": \"" << s.name << "\", \"cat\": \""
               << s.module << "\", \"ph\": \"X\", \"ts\": " << s.startUs
               << ", \"dur\": " << s.endUs - s.startUs
               << ", \"pid\": 0, \"tid\": 0}";
        os << "\n]\n";
        os << std::defaultfloat;
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin)
            .count();
    }

    Clock::time_point origin;
    std::vector<Span> spans;
    int current = -1;
};

/** RAII span; a no-op when no log is attached. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, const char *module)
        : log(log), id(log ? log->open(name, module) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log)
            log->close(id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log;
    int id;
};

// ------------------------------------------------------------------
// Units
// ------------------------------------------------------------------

/**
 * The reference kernel's rate over one unit, sampled before, during
 * (between the unit's engines or clusters) and after it, so CPU-speed
 * drift within the unit is caught too.
 */
class RefMeter
{
  public:
    /** Time `reps` repetitions; returns the seconds they took. */
    double
    sample(int reps)
    {
        const double s = reps / refKernelRate(reps, sink);
        seconds += s;
        total += reps;
        return s;
    }

    double rate() const { return total / seconds; }

    /** Checksum of the kernel's results (keeps them observable). */
    double sink = 0.0;

  private:
    double seconds = 0.0;
    double total = 0.0;
};

/** Samples taken between a unit's `n` runs: about a dozen. */
std::size_t
innerStride(std::size_t n)
{
    return std::max<std::size_t>(1, n / 12);
}

double
counterOf(const obs::MetricsSnapshot &s, const std::string &name)
{
    const obs::MetricValue *m = s.find(name);
    return m ? static_cast<double>(m->count) : 0.0;
}

double
gaugeOf(const obs::MetricsSnapshot &s, const std::string &name)
{
    const obs::MetricValue *m = s.find(name);
    return m ? m->value : 0.0;
}

const util::RunningStats *
statOf(const obs::MetricsSnapshot &s, const std::string &name)
{
    const obs::MetricValue *m = s.find(name);
    return m ? &m->stat : nullptr;
}

/** The simulated outcomes of one unit (deterministic per seed). */
struct Outcome
{
    double qosMetPct = 0.0;
    double worstQosMetPct = 0.0;
    double qualityLossPct = 0.0;
    double appRelExecTime = 0.0;
    double worstP99QosRatio = 0.0;
    double servedPct = 0.0;
    double shedPct = 0.0;
    std::uint64_t digest = 0;
};

/** One finished experiment and the prefix that names its tenants. */
struct Finished
{
    std::string prefix;
    const colo::ColoResult *result;
};

/**
 * Summarize a unit. A tenant is keyed by prefix + service name, so
 * every instance of one tenant of the workload's node template (the
 * same tenant across dense_node's replicas, a tenant slot across
 * scale_1000's nodes) is averaged before the worst tenant is taken:
 * that keeps the worst-case metrics a property of the workload rather
 * than of one seed's unluckiest draw. Engines that differ (paper_colo's
 * cells, cluster_control's nodes) get a prefix of their own.
 */
Outcome
summarize(const std::vector<Finished> &runs, std::size_t migrations)
{
    struct Tenant
    {
        double met = 0.0;
        double ratio = 0.0;
        double n = 0.0;
    };
    std::map<std::string, Tenant> tenants;
    Outcome o;
    Digest d;
    double met = 0.0, shed = 0.0, inacc = 0.0, rel = 0.0;
    std::size_t n_svc = 0, n_app = 0;
    for (const Finished &f : runs) {
        for (const colo::ServiceOutcome &s : f.result->services) {
            Tenant &t = tenants[f.prefix + "/" + s.name];
            t.met += s.qosMetFraction;
            t.ratio += s.meanIntervalP99Us / s.qosUs;
            t.n += 1.0;
            met += s.qosMetFraction;
            shed += s.shedFraction;
            ++n_svc;
            d.add(s.qosMetFraction);
            d.add(s.meanIntervalP99Us);
            d.add(s.steadyP99Us);
            d.add(s.overallP99Us);
            d.add(s.shedFraction);
        }
        for (const colo::AppOutcome &a : f.result->apps) {
            inacc += a.inaccuracy;
            rel += a.relativeExecTime;
            ++n_app;
            d.add(a.name);
            d.add(a.inaccuracy);
            d.add(a.relativeExecTime);
            d.add(static_cast<std::uint64_t>(a.finished));
        }
    }
    d.add(static_cast<std::uint64_t>(migrations));
    // The p99 ratio takes the p95 tenant, which is the worst one below
    // 11 tenants; over paper_colo's 72 cells the single worst cell's
    // ratio moved by 12% between seeds, its p95 by under 3%.
    double worst_met = 1.0;
    std::vector<double> ratios;
    for (const auto &[key, t] : tenants) {
        worst_met = std::min(worst_met, t.met / t.n);
        ratios.push_back(t.ratio / t.n);
    }
    const double worst_ratio = percentile(ratios, 0.95);
    const double ns = static_cast<double>(std::max<std::size_t>(n_svc, 1));
    const double na = static_cast<double>(std::max<std::size_t>(n_app, 1));
    o.qosMetPct = 100.0 * met / ns;
    o.worstQosMetPct = 100.0 * worst_met;
    o.qualityLossPct = 100.0 * inacc / na;
    o.appRelExecTime = rel / na;
    o.worstP99QosRatio = worst_ratio;
    o.shedPct = 100.0 * shed / ns;
    o.servedPct = 100.0 - o.shedPct;
    o.digest = d.h;
    return o;
}

/** How a unit is executed. */
enum class Mode
{
    Plain,   ///< run() / Cluster::run(), observability off
    Counted, ///< metrics registry on; single-node units are chunked
    Traced,  ///< Counted + TraceWriter + benchmark-side spans
};

struct UnitResult
{
    double setupS = 0.0;
    double runS = 0.0;
    /** Simulated node-ticks; 0 for a Plain cluster unit (unknown). */
    double nodeTicks = 0.0;
    Outcome outcome;
    /** Folded registry (Counted/Traced); node and replica gauges add. */
    obs::MetricsSnapshot metrics;
    /**
     * Pool gauges per cluster run, combined across replicas (mean of
     * the mean job wall, max of the maxima) since a fold adds them.
     */
    double poolJobMeanS = 0.0;
    double poolJobMaxS = 0.0;
    double poolDepthMax = 0.0;
    std::string simTrace;
    std::uint64_t traceEvents = 0;
};

UnitResult
runEngineUnit(const Workload &wl, std::uint64_t seed, Mode mode,
              SpanLog *spans, RefMeter *meter)
{
    const bool traced = mode == Mode::Traced;
    const bool counted = mode != Mode::Plain;
    UnitResult r;
    ScopedSpan unit(spans, "unit", "bench");

    std::vector<colo::ColoConfig> cfgs;
    std::vector<std::unique_ptr<colo::Engine>> engines;
    std::vector<double> setup_s;
    while (setup_s.size() < wl.setupRepeats) {
        engines.clear();
        const auto t0 = Clock::now();
        ScopedSpan setup(spans, "setup", "bench");
        cfgs = engineConfigs(wl, seed);
        // Engine's constructor validates each config.
        for (colo::ColoConfig &c : cfgs) {
            c.observability.metrics = counted;
            ScopedSpan s(spans, "Engine::Engine", "colo");
            engines.push_back(std::make_unique<colo::Engine>(c));
        }
        setup_s.push_back(secondsSince(t0));
    }
    r.setupS = median(setup_s);

    std::ostringstream trace_out;
    std::unique_ptr<obs::TraceWriter> writer;
    if (traced) {
        writer = std::make_unique<obs::TraceWriter>(trace_out);
        for (std::size_t i = 0; i < engines.size(); ++i)
            engines[i]->setTrace(writer.get(), static_cast<int>(i) + 1);
    }

    std::vector<colo::ColoResult> results;
    results.reserve(engines.size());
    double kernel_s = 0.0;
    const auto t1 = Clock::now();
    {
        ScopedSpan run(spans, "run", "bench");
        for (std::size_t i = 0; i < engines.size(); ++i) {
            colo::Engine &e = *engines[i];
            if (!counted) {
                results.push_back(e.run());
            } else {
                sim::Time t = 0;
                while (!e.done()) {
                    t += cfgs[i].decisionInterval;
                    ScopedSpan s(spans, "Engine::advanceUntil", "colo");
                    e.advanceUntil(t);
                }
                ScopedSpan s(spans, "Engine::finalize", "colo");
                results.push_back(e.finalize());
            }
            r.nodeTicks += static_cast<double>(e.now() / cfgs[i].tick);
            if (meter && (i + 1) % innerStride(engines.size()) == 0)
                kernel_s += meter->sample(kRefInnerReps);
        }
    }
    r.runS = secondsSince(t1) - kernel_s;

    std::vector<Finished> finished;
    for (std::size_t i = 0; i < results.size(); ++i) {
        finished.push_back(
            {wl.tenantPerEngine ? std::to_string(i) : "", &results[i]});
        if (counted)
            r.metrics.merge(results[i].metrics);
    }
    r.outcome = summarize(finished, 0);
    if (writer) {
        r.traceEvents = writer->eventCount();
        writer->finish();
        r.simTrace = trace_out.str();
    }
    return r;
}

UnitResult
runClusterUnit(const Workload &wl, std::uint64_t seed, Mode mode,
               SpanLog *spans, RefMeter *meter)
{
    const bool traced = mode == Mode::Traced;
    const bool counted = mode != Mode::Plain;
    UnitResult r;
    ScopedSpan unit(spans, "unit", "bench");

    // Setup is config build plus Cluster::Cluster only: Cluster::run
    // constructs the node engines, so their cost lands in the run time
    // (colo.engine_ctor_us times them apart, in clusterNodeProbe).
    std::vector<std::unique_ptr<cluster::Cluster>> clusters;
    std::vector<double> setup_s;
    while (setup_s.size() < wl.setupRepeats) {
        clusters.clear();
        const auto t0 = Clock::now();
        ScopedSpan setup(spans, "setup", "bench");
        for (cluster::ClusterConfig &cfg : clusterConfigs(wl, seed)) {
            cfg.observability.metrics = counted;
            ScopedSpan s(spans, "Cluster::Cluster", "cluster");
            clusters.push_back(
                std::make_unique<cluster::Cluster>(std::move(cfg)));
        }
        setup_s.push_back(secondsSince(t0));
    }
    r.setupS = median(setup_s);

    // One writer per replica (their pids would collide); the first
    // replica's trace is the one kept.
    std::vector<std::ostringstream> trace_out(clusters.size());
    std::vector<std::unique_ptr<obs::TraceWriter>> writers;
    if (traced)
        for (std::size_t k = 0; k < clusters.size(); ++k) {
            writers.push_back(
                std::make_unique<obs::TraceWriter>(trace_out[k]));
            clusters[k]->setTraceWriter(writers.back().get());
        }

    std::vector<cluster::ClusterResult> results;
    double kernel_s = 0.0;
    const auto t1 = Clock::now();
    for (auto &c : clusters) {
        {
            ScopedSpan run(spans, "Cluster::run", "cluster");
            results.push_back(c->run());
        }
        c.reset(); // free this replica's engines before the next runs
        if (meter && results.size() % innerStride(clusters.size()) == 0 &&
            results.size() < clusters.size())
            kernel_s += meter->sample(kRefInnerReps);
    }
    r.runS = secondsSince(t1) - kernel_s;

    std::vector<Finished> finished;
    std::size_t migrations = 0;
    for (const cluster::ClusterResult &res : results) {
        for (std::size_t i = 0; i < res.nodes.size(); ++i)
            finished.push_back({wl.tenantPerEngine ? std::to_string(i) : "",
                                &res.nodes[i].result});
        migrations += res.migrations.size();
        if (!counted)
            continue;
        r.metrics.merge(res.metrics);
        r.poolJobMeanS += gaugeOf(res.metrics, "pool.job_wall_mean_s") /
            static_cast<double>(results.size());
        r.poolJobMaxS = std::max(r.poolJobMaxS,
                                 gaugeOf(res.metrics, "pool.job_wall_max_s"));
        r.poolDepthMax = std::max(
            r.poolDepthMax, gaugeOf(res.metrics, "pool.max_queue_depth"));
    }
    r.outcome = summarize(finished, migrations);
    // Nodes whose apps finish mid-epoch stop early within it, so the
    // node-tick count is only known from the registry; Plain units
    // take it from the warm-up unit.
    if (counted)
        r.nodeTicks = counterOf(r.metrics, "engine.ticks");
    for (auto &w : writers) {
        r.traceEvents += w->eventCount();
        w->finish();
    }
    if (traced)
        r.simTrace = trace_out.front().str();
    return r;
}

UnitResult
runUnit(const Workload &wl, std::uint64_t seed, Mode mode,
        SpanLog *spans = nullptr, RefMeter *meter = nullptr)
{
    return wl.cluster ? runClusterUnit(wl, seed, mode, spans, meter)
                      : runEngineUnit(wl, seed, mode, spans, meter);
}

// ------------------------------------------------------------------
// Per-layer metrics of the traced pass
// ------------------------------------------------------------------

/** Layer values read from one traced unit's obs registry. */
Layers
obsLayers(const Workload &wl, const UnitResult &u)
{
    const obs::MetricsSnapshot &s = u.metrics;
    Layers l;
    const double ticks = counterOf(s, "engine.ticks");
    l["colo.ticks"] = ticks;
    l["colo.intervals"] = counterOf(s, "engine.intervals");
    double decisions = 0.0;
    for (int k = 0; k < 7; ++k)
        decisions += counterOf(
            s, "engine.decision." +
                   core::decisionName(
                       static_cast<core::Decision::Kind>(k)));
    l["core.decisions"] = decisions;
    l["core.actuations"] = counterOf(s, "engine.actuations");
    l["services.samples_per_tick"] = ticks > 0.0
        ? counterOf(s, "engine.samples") /
            (ticks * static_cast<double>(wl.tenantsPerNode))
        : 0.0;

    const char *phases[] = {"prelude", "tenants", "tasks", "interval"};
    double phase_sum[4] = {};
    double total = 0.0;
    for (int p = 0; p < 4; ++p) {
        const util::RunningStats *st =
            statOf(s, std::string("phase.") + phases[p] + "_wall_s");
        phase_sum[p] = st ? st->sum() : 0.0;
        total += phase_sum[p];
    }
    for (int p = 0; p < 4; ++p)
        l[std::string("colo.phase_") + phases[p] + "_share"] =
            total > 0.0 ? phase_sum[p] / total : 0.0;

    l["admission.gate_arms"] = gaugeOf(s, "admission.gate_arms");
    l["budget.slice_installs"] = counterOf(s, "budget.slice_installs");
    l["cluster.epochs"] = counterOf(s, "cluster.epochs");
    l["cluster.migrations"] = counterOf(s, "cluster.migrations");
    const util::RunningStats *epoch = statOf(s, "cluster.epoch_wall_s");
    l["cluster.epoch_wall_ms.mean"] = epoch ? 1e3 * epoch->mean() : 0.0;
    l["cluster.epoch_wall_ms.max"] = epoch ? 1e3 * epoch->max() : 0.0;
    l["driver.job_wall_us.mean"] = 1e6 * u.poolJobMeanS;
    l["driver.job_wall_us.max"] = 1e6 * u.poolJobMaxS;
    l["driver.queue_depth_max"] = u.poolDepthMax;
    l["driver.jobs"] = gaugeOf(s, "pool.jobs_executed");
    l["obs.trace_events"] = static_cast<double>(u.traceEvents);
    return l;
}

/**
 * Cluster workloads: construct a standalone Engine per node and drive
 * it one decision interval at a time (Cluster::run gives no handle on
 * its engines), timing the constructor, each advanceUntil and
 * finalize. These are per-node costs without the cluster around them:
 * no budget slices, no migrations, no pool. Repeats whole passes
 * until the interval sample is large enough for a p99.
 */
void
clusterNodeProbe(const Workload &wl, std::uint64_t seed,
                 std::vector<double> &ctor_us,
                 std::vector<double> &interval_us,
                 std::vector<double> &finalize_us)
{
    const cluster::Cluster c(clusterConfigs(wl, seed).front());
    const auto t0 = Clock::now();
    while (interval_us.size() < 2000 && secondsSince(t0) < 3.0) {
        for (std::size_t i = 0; i < c.nodeCount(); ++i) {
            const colo::ColoConfig &nc = c.nodeConfig(i);
            const auto k = Clock::now();
            colo::Engine e(nc);
            ctor_us.push_back(secondsSince(k) * 1e6);
            for (sim::Time t = nc.decisionInterval; t <= nc.maxDuration;
                 t += nc.decisionInterval) {
                const auto a = Clock::now();
                e.advanceUntil(t, /*keep_services_running=*/true);
                interval_us.push_back(secondsSince(a) * 1e6);
            }
            const auto f = Clock::now();
            const colo::ColoResult res = e.finalize();
            finalize_us.push_back(secondsSince(f) * 1e6);
        }
    }
}

/** The node shape the probes run at. */
Shape
probeShape(const Workload &wl, std::uint64_t seed,
           std::vector<std::string> &all_apps)
{
    Shape sh;
    sh.seed = derive(seed, 0x9b);
    sh.admission.enabled = true;
    sh.admission.policy = admission::AdmissionKind::QosShed;
    sh.admission.batching = admission::BatchingKind::Adaptive;
    sh.budget.enabled = true;
    sh.budget.policy = budget::BudgetPolicy::Proportional;
    sh.budget.qualityBudget = 0.16;
    sh.budget.shedBudget = 2.0;
    if (!wl.cluster) {
        // paper_colo: the first memcached cell.
        const colo::ColoConfig c = engineConfigs(wl, seed)[
            wl.kind == Kind::PaperColo ? 24 : 0];
        sh.tick = c.tick;
        sh.interval = c.decisionInterval;
        sh.spec = c.spec;
        sh.apps = c.apps;
        all_apps = c.apps;
        for (const colo::ServiceSpec &s : colo::validateConfig(c))
            sh.tenants.push_back({s.kind, s.scenario.loadAt(0)});
        return sh;
    }
    const cluster::Cluster c(clusterConfigs(wl, seed).front());
    const colo::ColoConfig &n0 = c.nodeConfig(0);
    sh.tick = n0.tick;
    sh.interval = n0.decisionInterval;
    sh.spec = n0.spec;
    sh.apps = n0.apps;
    sh.nodes = c.nodeCount();
    if (n0.admission.enabled)
        sh.admission = n0.admission;
    for (const colo::ServiceSpec &s : n0.services)
        sh.tenants.push_back({s.kind, s.scenario.loadAt(0)});
    for (std::size_t i = 0; i < c.nodeCount(); ++i)
        for (const std::string &a : c.nodeConfig(i).apps)
            all_apps.push_back(a);
    return sh;
}

// ------------------------------------------------------------------
// Fingerprint and output
// ------------------------------------------------------------------

std::string
cpuModel()
{
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

void
writeUnits(std::ostream &os, const std::vector<UnitResult> &units,
           const std::vector<double> &ref_rates)
{
    os << "[";
    for (std::size_t i = 0; i < units.size(); ++i)
        os << (i ? ", " : "") << "[" << units[i].setupS << ", "
           << units[i].runS << ", " << units[i].nodeTicks << ", "
           << ref_rates[i] << "]";
    os << "]";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--trace")
            a.trace = std::string(v) == "1";
        else if (k == "--out-dir")
            a.outDir = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

/** Measured units plus the reference-kernel rate around each. */
struct Timed
{
    std::vector<UnitResult> units;
    std::vector<double> refRates;
};

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                     "--trace 0|1 [--out-dir DIR]\n";
        return 2;
    }
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (args.workload == w.name)
            wl = &w;
    if (!wl) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }

    double sink = 0.0;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    auto fail = [&](const std::string &why) {
        ++failed;
        if (errors.size() < 8)
            errors.push_back(why);
    };

    // Warm-up unit, untimed, with the metrics registry on (and
    // chunked on single-node workloads): it counts the node-ticks,
    // and its outcome is the one every later unit must reproduce
    // exactly, which checks obs-off == obs-on and chunked == run().
    ++attempted;
    UnitResult warm;
    try {
        warm = runUnit(*wl, args.seed, Mode::Counted);
    } catch (const std::exception &e) {
        fail(std::string("warm-up unit: ") + e.what());
    }
    const Outcome expect = warm.outcome;

    // One timed unit, checked against the warm-up outcome.
    auto measure = [&](Timed &into, double budget_s, Mode mode,
                       SpanLog *spans, auto &&on_unit) {
        const auto t0 = Clock::now();
        while (into.units.size() < 3 ||
               (secondsSince(t0) < budget_s && into.units.size() < 2000)) {
            ++attempted;
            try {
                RefMeter meter;
                meter.sample(kRefReps);
                UnitResult u = runUnit(*wl, args.seed, mode, spans, &meter);
                meter.sample(kRefReps);
                sink += meter.sink;
                into.refRates.push_back(meter.rate());
                if (u.outcome.digest != expect.digest)
                    fail("unit outcome differs from the warm-up unit");
                if (mode == Mode::Plain && wl->cluster)
                    u.nodeTicks = warm.nodeTicks;
                else if (u.nodeTicks != warm.nodeTicks)
                    fail("unit node-ticks differ from the warm-up unit");
                on_unit(u);
                into.units.push_back(std::move(u));
            } catch (const std::exception &e) {
                fail(e.what());
                break;
            }
        }
    };

    // ru_maxrss is a high-water mark: read it after the first timed
    // unit, so the figure does not depend on how many units fit.
    Timed plain;
    double peak_rss_mb = 0.0;
    measure(plain, args.trace ? 0.4 * args.seconds : args.seconds,
            Mode::Plain, nullptr, [&](UnitResult &) {
                if (peak_rss_mb == 0.0)
                    peak_rss_mb = peakRssMb();
            });

    Timed traced;
    SpanLog spans;
    Layers layers;
    std::string sim_trace;
    if (args.trace) {
        std::vector<Layers> per_unit;
        measure(traced, 0.4 * args.seconds, Mode::Traced, &spans,
                [&](UnitResult &u) {
                    if (u.metrics.empty()) {
                        fail("traced unit produced no metrics");
                        return;
                    }
                    per_unit.push_back(obsLayers(*wl, u));
                    if (sim_trace.empty())
                        sim_trace = std::move(u.simTrace);
                    u.simTrace.clear();
                    u.metrics = obs::MetricsSnapshot{};
                });
        for (const auto &kv : per_unit.empty() ? Layers{} : per_unit[0]) {
            std::vector<double> v;
            for (const Layers &l : per_unit)
                v.push_back(l.at(kv.first));
            layers[kv.first] = median(v);
        }
        layers["admission.shed_pct"] = expect.shedPct;

        std::vector<double> interval_us = spans.durations(
            "Engine::advanceUntil");
        std::vector<double> finalize_us =
            spans.durations("Engine::finalize");
        std::vector<double> ctor_us = spans.durations("Engine::Engine");
        if (wl->cluster)
            clusterNodeProbe(*wl, args.seed, ctor_us, interval_us,
                             finalize_us);
        layers["colo.interval_host_us.p50"] = percentile(interval_us, 0.5);
        layers["colo.interval_host_us.p99"] =
            percentile(interval_us, 0.99);
        layers["colo.interval_host_us.samples"] =
            static_cast<double>(interval_us.size());
        layers["colo.finalize_us"] = median(finalize_us);
        layers["colo.engine_ctor_us"] = median(ctor_us);
        layers["cluster.ctor_ms"] =
            median(spans.durations("Cluster::Cluster")) / 1e3;
        const double n_traced =
            static_cast<double>(std::max<std::size_t>(traced.units.size(), 1));
        for (const auto &[module, us] : spans.selfTimeByModule())
            layers["self." + module + "_ms"] = us / 1e3 / n_traced;

        std::vector<std::string> all_apps;
        runProbes(probeShape(*wl, args.seed, all_apps), all_apps,
                  layers);

        if (!args.outDir.empty()) {
            std::filesystem::create_directories(args.outDir);
            const std::string base =
                args.outDir + "/" + wl->name + "-seed" +
                std::to_string(args.seed);
            std::ofstream spans_out(base + ".spans.json");
            spans.writeChromeTrace(spans_out);
            std::ofstream sim_out(base + ".sim_trace.json");
            sim_out << sim_trace;
        }
    }

    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\": " << jsonString(wl->name)
       << ", \"seed\": " << args.seed << ", \"fingerprint\": {"
       << "\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu_model\": " << jsonString(cpuModel())
       << ", \"compiler\": " << jsonString(std::string("gcc ") + __VERSION__)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << "}, \"inputs_digest\": \"" << hex(inputsDigest(*wl, args.seed))
       << "\", \"outcome_digest\": \"" << hex(expect.digest)
       << "\", \"outcome\": {"
       << "\"qos_met_pct\": " << expect.qosMetPct
       << ", \"worst_qos_met_pct\": " << expect.worstQosMetPct
       << ", \"quality_loss_pct\": " << expect.qualityLossPct
       << ", \"app_rel_exec_time\": " << expect.appRelExecTime
       << ", \"worst_p99_qos_ratio\": " << expect.worstP99QosRatio
       << ", \"served_pct\": " << expect.servedPct
       << "}, \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i)
        os << (i ? ", " : "") << jsonString(errors[i]);
    os << "], \"peak_rss_mb\": " << peak_rss_mb << ", \"units\": ";
    writeUnits(os, plain.units, plain.refRates);
    os << ", \"traced_units\": ";
    writeUnits(os, traced.units, traced.refRates);
    os << ", \"layers\": {";
    bool first = true;
    for (const auto &[name, value] : layers) {
        os << (first ? "" : ", ") << jsonString(name) << ": " << value;
        first = false;
    }
    os << "}, \"sink\": " << (sink != 0.0 ? 1 : 0) << "}";
    std::cout << os.str() << std::endl;
    return 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    // ru_maxrss survives execve, so a process started by a large
    // parent (the Python runner) would report the parent's RSS as its
    // floor. The work runs in a child forked from this still-small
    // process, and this one only waits for it.
    const pid_t pid = fork();
    if (pid <= 0)
        return perfbench::main(argc, argv);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
