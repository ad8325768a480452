/**
 * @file
 * Datacenter-scale streaming-aggregation sweep: 1000 nodes, 10k
 * interactive tenants, run with per-tick retention OFF so the only
 * per-node state the run accumulates is the online rollups
 * (RunningStats / P² sketches / reservoir — see util/stats.hh and
 * the colo::Engine streaming accumulators).
 *
 * The bench demonstrates two contracts at scale:
 *
 *  - memory: the sweep completes under a pinned RSS ceiling
 *    (--rss-limit-mb; CI pins it) because nothing retains the
 *    10k-tenant per-tick series;
 *  - determinism: the cluster rollups (worst service ratio, merged
 *    steady-state P² p99, QoS fractions, app outcomes) are exactly
 *    equal — double-for-double — between the serial run and an
 *    N-thread node pool.
 *
 * Like perf_tick, the configuration is frozen: the committed
 * BENCH_scale.json is generated with --quick (the CI shape) and the
 * schema checker hard-fails if any deterministic field moves.
 *
 * Usage: fig_scale [--quick] [--threads N] [--out FILE]
 *                  [--rss-limit-mb M]
 *   --quick          12 s simulated horizon (CI smoke; default 60 s)
 *   --threads N      node-worker threads of the pool row (default 4,
 *                    2..512)
 *   --out F          JSON output path (default BENCH_scale.json)
 *   --rss-limit-mb M exit 1 if the process peak RSS exceeds M MB
 *                    after all runs (0 = no check)
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

constexpr sim::Time kS = sim::kSecond;
constexpr std::size_t kNodes = 1000;
constexpr std::size_t kServicesPerNode = 10;

const std::string kUsage = "usage: fig_scale [--quick] [--threads N] "
                           "[--out FILE] [--rss-limit-mb M]";

/** Process peak RSS in MB (Linux ru_maxrss is in KB). */
double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * The frozen 1000-node, 10k-tenant shape: every node hosts 5
 * memcached + 5 nginx tenants at staggered constant loads, a dozen
 * catalog apps land via static placement (so all but 12 nodes are
 * app-less — the streaming summary path at scale), and the tick
 * equals the decision interval so the horizon stays tractable.
 */
cluster::ClusterConfig
scaleConfig(sim::Time horizon, unsigned pool_threads)
{
    cluster::ClusterConfigBuilder builder;
    for (std::size_t n = 0; n < kNodes; ++n) {
        builder.node();
        for (std::size_t s = 0; s < kServicesPerNode; ++s) {
            const bool mc = s % 2 == 0;
            // Staggered by (node, slot) so the tenant mix is not
            // uniform across nodes, but stays a pure function of the
            // indices (determinism: no clock, no global RNG).
            const double load =
                0.40 + 0.03 * static_cast<double>((n + s) % 5);
            builder.service((mc ? "mc-" : "ngx-") + std::to_string(s),
                            mc ? services::ServiceKind::Memcached
                               : services::ServiceKind::Nginx,
                            colo::Scenario::constant(load));
        }
    }
    builder
        .apps({"canneal", "streamcluster", "bayesian", "kmeans",
               "snp", "raytrace", "fluidanimate", "water_nsquared",
               "birch", "genenet", "semphy", "plsa"})
        .runtime(core::RuntimeKind::Pliant)
        .placement(cluster::PlacementKind::Static)
        .tick(1 * kS)
        .decisionInterval(1 * kS)
        .epoch(5 * kS)
        .maxDuration(horizon)
        .seed(97)
        .threads(pool_threads);
    return builder.build();
}

/** One matrix cell: a full cluster run plus its rollups. */
struct Measurement
{
    std::string name;
    std::string description;
    unsigned poolThreads = 1;
    double wallSeconds = 0.0;
    std::uint64_t ticks = 0;
    double peakRssMbAfter = 0.0;
    cluster::ClusterResult result;
    bool identicalToSerial = true;

    double
    ticksPerSec() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(ticks) / wallSeconds
            : 0.0;
    }
};

Measurement
runCell(const std::string &name, const std::string &description,
        sim::Time horizon, unsigned pool_threads)
{
    Measurement m;
    m.name = name;
    m.description = description;
    m.poolThreads = pool_threads;
    const cluster::ClusterConfig cfg = scaleConfig(horizon, pool_threads);
    m.ticks = static_cast<std::uint64_t>(cfg.nodes.size()) *
        static_cast<std::uint64_t>(cfg.maxDuration / cfg.tick);
    cluster::Cluster c(cfg);
    const double t0 = now();
    m.result = c.run();
    m.wallSeconds = now() - t0;
    // ru_maxrss is a process-lifetime high-water mark: later cells
    // can only report >= earlier ones. The ceiling check uses the
    // final value, which is exactly the quantity CI pins.
    m.peakRssMbAfter = peakRssMb();
    return m;
}

/**
 * Exact comparison of every scalar rollup against the serial cell.
 * These are doubles out of the simulation, not timings: the
 * streaming-aggregation contract is == at any thread count.
 */
bool
rollupsEqual(const cluster::ClusterResult &a,
             const cluster::ClusterResult &b)
{
    return a.worstServiceRatio == b.worstServiceRatio &&
        a.steadyP99Us == b.steadyP99Us &&
        a.meanQosMetFraction == b.meanQosMetFraction &&
        a.meanInaccuracy == b.meanInaccuracy &&
        a.meanRelativeExecTime == b.meanRelativeExecTime &&
        a.appsFinished == b.appsFinished &&
        a.appsTotal == b.appsTotal &&
        a.totalMaxCoresReclaimed == b.totalMaxCoresReclaimed &&
        a.migrations.size() == b.migrations.size();
}

void
writeJson(const std::string &path,
          const std::vector<Measurement> &results)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write " << path << "\n";
        return;
    }
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"fig_scale\",\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Measurement &m = results[i];
        out << "    {\n"
            << "      \"name\": \"" << m.name << "\",\n"
            << "      \"description\": \"" << m.description << "\",\n"
            << "      \"nodes\": " << kNodes << ",\n"
            << "      \"tenants\": " << kNodes * kServicesPerNode
            << ",\n"
            << "      \"pool_threads\": " << m.poolThreads << ",\n"
            << "      \"ticks\": " << m.ticks << ",\n"
            << "      \"steady_p99_us\": " << m.result.steadyP99Us
            << ",\n"
            << "      \"worst_ratio\": " << m.result.worstServiceRatio
            << ",\n"
            << "      \"identical_to_serial\": "
            << (m.identicalToSerial ? "true" : "false") << ",\n"
            << "      \"wall_s\": " << m.wallSeconds << ",\n"
            << "      \"ticks_per_sec\": " << m.ticksPerSec() << ",\n"
            << "      \"peak_rss_mb\": " << m.peakRssMbAfter << "\n"
            << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    sim::Time horizon = 60 * kS;
    unsigned threads = 4;
    double rss_limit_mb = 0.0;
    std::string out_path = "BENCH_scale.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            horizon = 12 * kS;
        } else if (arg == "--threads" && i + 1 < argc) {
            threads =
                util::parseFlag("--threads", argv[++i], kUsage, 2U, 512U);
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--rss-limit-mb" && i + 1 < argc) {
            rss_limit_mb =
                util::parseFlag("--rss-limit-mb", argv[++i], kUsage, 0.0);
        } else {
            std::cerr << kUsage << '\n';
            return 2;
        }
    }

    std::cout << "=== fig_scale: " << kNodes << "-node, "
              << kNodes * kServicesPerNode
              << "-tenant streaming-aggregation sweep ===\n\n";

    const std::string shape = std::to_string(kNodes) + " nodes x " +
        std::to_string(kServicesPerNode) +
        " tenants, 12 static apps, streaming rollups";
    std::vector<Measurement> results;
    results.push_back(
        runCell("scale_serial", shape + ", serial", horizon, 1));
    results.push_back(
        runCell("scale_pool", shape + ", node pool", horizon, threads));
    for (Measurement &m : results)
        m.identicalToSerial =
            rollupsEqual(m.result, results.front().result);

    util::TextTable t({"config", "pool", "wall s", "ticks/s",
                       "steady p99", "worst ratio", "rss MB",
                       "== serial"});
    for (const Measurement &m : results)
        t.addRow({m.name, std::to_string(m.poolThreads),
                  util::fmt(m.wallSeconds, 2),
                  util::fmt(m.ticksPerSec() / 1e3, 1) + "k",
                  util::fmt(m.result.steadyP99Us, 1),
                  util::fmt(m.result.worstServiceRatio, 4),
                  util::fmt(m.peakRssMbAfter, 1),
                  m.identicalToSerial ? "yes" : "NO"});
    t.print(std::cout);

    writeJson(out_path, results);
    std::cout << "\nwrote " << out_path << "\n";

    bool ok = true;
    for (const Measurement &m : results)
        if (!m.identicalToSerial) {
            std::cerr << "FAIL: " << m.name
                      << " rollups differ from scale_serial — the "
                         "streaming aggregation is not "
                         "thread-count-invariant\n";
            ok = false;
        }
    const double peak = peakRssMb();
    if (rss_limit_mb > 0.0 && peak > rss_limit_mb) {
        std::cerr << "FAIL: peak RSS " << peak << " MB exceeds the "
                  << rss_limit_mb << " MB ceiling\n";
        ok = false;
    }
    return ok ? 0 : 1;
}
