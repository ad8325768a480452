/**
 * @file
 * Tick-loop performance harness: the repo's tracked perf trajectory.
 *
 * Runs a small set of pinned configurations spanning the engine's
 * hot-path regimes — the paper's single-service colocation (fig5
 * shape), a wide 8-tenant flash-crowd box, an admission-enabled
 * front-end, and a 3-node cluster — and reports wall time plus
 * simulated ticks per second for each. Results are written as
 * `BENCH_tick.json` (repo root when run from there; `--out` to
 * override) so every PR can compare against the previous trajectory
 * point.
 *
 * The configurations are deliberately frozen: changing them resets
 * the trajectory. Optimization PRs must keep each config's *output*
 * byte-identical (see the regression suites) while moving wall time;
 * this harness only measures, it does not validate.
 *
 * Usage: perf_tick [--quick] [--reps N] [--out FILE]
 *                  [--fast-sampling] [--metrics-summary]
 *                  [--metrics-out FILE]
 *   --quick   one repetition per config (CI smoke; timings noisy)
 *   --reps N  repetitions per config (default 3, 1..10000); best-of-N
 *             is reported to damp scheduler noise
 *   --out F   JSON output path (default BENCH_tick.json)
 *   --fast-sampling   adds a <config>@fast row per config
 *             (quantile-table samplers). NOT byte-identical —
 *             excluded from every golden; tracked here purely as a
 *             wall-clock point.
 *   --metrics-summary   after the timing reps, run each base config
 *             once more with the observability registry enabled,
 *             print its metrics table, and write the per-config
 *             exports as a metrics JSON. The extra passes are
 *             separate from the timed reps, so BENCH_tick.json rows
 *             are unaffected. scripts/check_bench_schema.py validates
 *             the file: deterministic values hard-fail on drift,
 *             wall_time values warn only.
 *   --metrics-out F     metrics JSON path (default metrics.json;
 *             implies --metrics-summary)
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "colo/engine.hh"
#include "obs/metrics.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

constexpr sim::Time kS = sim::kSecond;

const std::string kUsage =
    "usage: perf_tick [--quick] [--reps N] [--out FILE] "
    "[--fast-sampling] [--metrics-summary] [--metrics-out FILE]";

/** Wall-time measurement of one config set: best of `reps` runs. */
struct Measurement
{
    std::string name;
    std::string description;
    double wallSeconds = 0.0;
    std::uint64_t ticks = 0;
    bool fastSampling = false;

    double
    ticksPerSec() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(ticks) / wallSeconds
            : 0.0;
    }
};

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Single-engine config set: run to completion, count executed ticks
 * from the engine's clock (apps may finish before maxDuration).
 */
Measurement
runEngineSet(const std::string &name, const std::string &description,
             const colo::ColoConfig &cfg, int reps)
{
    Measurement m;
    m.name = name;
    m.description = description;
    m.fastSampling = cfg.fastSampling;
    for (int r = 0; r < reps; ++r) {
        colo::Engine engine(cfg);
        const double t0 = now();
        engine.run();
        const double dt = now() - t0;
        const std::uint64_t ticks =
            static_cast<std::uint64_t>(engine.now() / cfg.tick);
        if (r == 0 || dt < m.wallSeconds) {
            m.wallSeconds = dt;
            m.ticks = ticks;
        }
    }
    return m;
}

/** Cluster config set: every node runs its services to the horizon. */
Measurement
runClusterSet(const std::string &name,
              const std::string &description,
              const cluster::ClusterConfig &cfg, int reps)
{
    Measurement m;
    m.name = name;
    m.description = description;
    m.fastSampling = cfg.fastSampling;
    const std::uint64_t ticks =
        static_cast<std::uint64_t>(cfg.nodes.size()) *
        static_cast<std::uint64_t>(cfg.maxDuration / cfg.tick);
    for (int r = 0; r < reps; ++r) {
        cluster::Cluster c(cfg);
        const double t0 = now();
        c.run();
        const double dt = now() - t0;
        if (r == 0 || dt < m.wallSeconds) {
            m.wallSeconds = dt;
            m.ticks = ticks;
        }
    }
    return m;
}

/** The paper's fig5 cell shape: one memcached, one app, Pliant. */
colo::ColoConfig
fig5Config()
{
    return colo::makeColoConfig(services::ServiceKind::Memcached,
                                {"canneal"},
                                core::RuntimeKind::Pliant, 31);
}

/** Eight tenants on one box, two hit by a flash crowd. */
colo::ColoConfig
flashCrowd8Config()
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
        core::RuntimeKind::Pliant, 71);
    cfg.maxDuration = 120 * kS;
    return cfg;
}

/** Admission front-end engaged: QoS-guided shed + adaptive batching. */
colo::ColoConfig
admissionConfig()
{
    std::vector<colo::ServiceSpec> specs(2);
    specs[0].kind = services::ServiceKind::Memcached;
    specs[0].scenario = colo::Scenario::flashCrowd(
        0.45, 1.15, 10 * kS, 3 * kS, 25 * kS, 5 * kS);
    specs[1].kind = services::ServiceKind::Nginx;
    specs[1].scenario = colo::Scenario::constant(0.45);
    colo::ColoConfig cfg = colo::makeMultiServiceConfig(
        std::move(specs), {"canneal", "bayesian"},
        core::RuntimeKind::Pliant, 71);
    cfg.admission.enabled = true;
    cfg.admission.policy = admission::AdmissionKind::QosShed;
    cfg.admission.batching = admission::BatchingKind::Adaptive;
    cfg.maxDuration = 120 * kS;
    return cfg;
}

/** The fig_cluster quick shape: 3 nodes, QoS-aware placement. */
cluster::ClusterConfig
cluster3Config()
{
    cluster::ClusterConfigBuilder builder;
    for (int n = 0; n < 3; ++n) {
        builder.node();
        if (n == 0) {
            builder.service(services::ServiceKind::Memcached,
                            colo::Scenario::flashCrowd(
                                0.60, 0.95, 30 * kS, 3 * kS, 25 * kS,
                                10 * kS));
        } else {
            builder.service(services::ServiceKind::Memcached,
                            colo::Scenario::constant(0.60));
        }
        builder.service(services::ServiceKind::Nginx,
                        colo::Scenario::constant(0.65));
    }
    builder
        .apps({"canneal", "bayesian", "snp", "kmeans", "raytrace",
               "streamcluster"})
        .runtime(core::RuntimeKind::Pliant)
        .placement(cluster::PlacementKind::QosAware)
        .epoch(5 * kS)
        .seed(71)
        .maxDuration(90 * kS);
    return builder.build();
}

void
writeJson(const std::string &path,
          const std::vector<Measurement> &results, int reps)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write " << path << "\n";
        return;
    }
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"perf_tick\",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Measurement &m = results[i];
        out << "    {\n"
            << "      \"name\": \"" << m.name << "\",\n"
            << "      \"description\": \"" << m.description << "\",\n"
            << "      \"fast_sampling\": "
            << (m.fastSampling ? "true" : "false") << ",\n"
            << "      \"wall_s\": " << m.wallSeconds << ",\n"
            << "      \"ticks\": " << m.ticks << ",\n"
            << "      \"ticks_per_sec\": " << m.ticksPerSec() << "\n"
            << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

/** One obs-enabled pass of a frozen config: name + folded snapshot. */
struct MetricsRun
{
    std::string name;
    obs::MetricsSnapshot snap;
};

/**
 * Metrics JSON: one `pliant-metrics-v1` export per frozen config,
 * wrapped so the schema checker can pair configs by name.
 */
void
writeMetricsJsonFile(const std::string &path,
                     const std::vector<MetricsRun> &runs)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write " << path << "\n";
        return;
    }
    out << "{\n"
        << "  \"bench\": \"perf_tick_metrics\",\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        out << "    {\"name\": \"" << runs[i].name
            << "\", \"export\": ";
        obs::writeMetricsJson(out, runs[i].snap);
        out << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    int reps = 3;
    std::string out_path = "BENCH_tick.json";
    bool fast_axis = false;
    bool metrics_summary = false;
    std::string metrics_out = "metrics.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            reps = 1;
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = util::parseFlag("--reps", argv[++i], kUsage, 1, 10000);
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--fast-sampling") {
            fast_axis = true;
        } else if (arg == "--metrics-summary") {
            metrics_summary = true;
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
            metrics_summary = true;
        } else {
            std::cerr << kUsage << '\n';
            return 2;
        }
    }

    std::cout << "=== perf_tick: tick-loop performance trajectory ("
              << reps << " rep" << (reps > 1 ? "s" : "")
              << ", best-of) ===\n\n";

    struct EngineBench
    {
        std::string name;
        std::string description;
        colo::ColoConfig cfg;
    };
    const std::vector<EngineBench> engine_benches = {
        {"fig5_single_service",
         "memcached + canneal, Pliant, seed 31 (fig5 cell)",
         fig5Config()},
        {"flash_crowd_8_services",
         "8 tenants (2 flash-crowded) + 2 apps, Pliant, 120 s",
         flashCrowd8Config()},
        {"admission_qos_shed",
         "2 tenants, QosShed + adaptive batching, flash 1.15, 120 s",
         admissionConfig()},
    };
    const cluster::ClusterConfig cluster_base = cluster3Config();

    const std::string cluster_description =
        "3 nodes x (memcached + nginx) + 6 apps, QoS-aware, 90 s";

    std::vector<Measurement> results;
    for (const EngineBench &b : engine_benches) {
        results.push_back(
            runEngineSet(b.name, b.description, b.cfg, reps));
        if (fast_axis) {
            colo::ColoConfig cfg = b.cfg;
            cfg.fastSampling = true;
            results.push_back(runEngineSet(b.name + "@fast",
                                           b.description, cfg, reps));
        }
    }
    results.push_back(runClusterSet("cluster_3_node",
                                    cluster_description, cluster_base,
                                    reps));
    if (fast_axis) {
        cluster::ClusterConfig cfg = cluster_base;
        cfg.fastSampling = true;
        results.push_back(runClusterSet("cluster_3_node@fast",
                                        cluster_description, cfg,
                                        reps));
    }

    util::TextTable t({"config", "wall s", "ticks", "ticks/s"});
    for (const Measurement &m : results)
        t.addRow({m.name, util::fmt(m.wallSeconds, 3),
                  std::to_string(m.ticks),
                  util::fmt(m.ticksPerSec() / 1e3, 1) + "k"});
    t.print(std::cout);

    writeJson(out_path, results, reps);
    std::cout << "\nwrote " << out_path << "\n";

    if (metrics_summary) {
        // Obs-enabled passes run after (and separate from) the timed
        // reps, so the timing rows above never pay for the registry.
        // One pass per base config.
        std::vector<MetricsRun> mruns;
        for (const EngineBench &b : engine_benches) {
            colo::ColoConfig cfg = b.cfg;
            cfg.observability.metrics = true;
            colo::Engine engine(cfg);
            mruns.push_back({b.name, engine.run().metrics});
        }
        {
            cluster::ClusterConfig cfg = cluster_base;
            cfg.observability.metrics = true;
            cluster::Cluster c(cfg);
            mruns.push_back({"cluster_3_node", c.run().metrics});
        }
        for (const MetricsRun &mr : mruns) {
            std::cout << "\n--- metrics: " << mr.name << " ---\n";
            obs::metricsTable(mr.snap).print(std::cout);
        }
        writeMetricsJsonFile(metrics_out, mruns);
        std::cout << "\nwrote " << metrics_out << "\n";
    }
    return 0;
}
