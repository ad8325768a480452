/**
 * @file
 * Datacenter-scale streaming-aggregation sweep: 1000 nodes, 10k
 * interactive tenants, run with per-tick retention OFF so the only
 * per-node state the run accumulates is the online rollups
 * (plain sums / P² sketches / reservoir — see util/stats.hh and
 * the colo::Engine streaming accumulators).
 *
 * The bench demonstrates two contracts at scale:
 *
 *  - memory: the sweep completes under a pinned RSS ceiling
 *    (--rss-limit-mb; CI pins it) because nothing retains the
 *    10k-tenant per-tick series and each tenant's monitor window
 *    reserves only what one 1 s interval can offer (60 samples);
 *  - determinism: the cluster rollups (worst service ratio, merged
 *    steady-state P² p99, QoS fractions, app outcomes) are exactly
 *    equal — double-for-double — between the serial run and an
 *    N-thread node pool.
 *
 * The configuration is frozen: the committed BENCH_scale.json is
 * generated with --quick (the CI shape) and the schema checker
 * hard-fails if any deterministic field moves.
 * `ticks` counts the node-ticks the nodes executed: the full 60 s
 * run stops near 40 s, once every app has finished.
 *
 * Each row also records the process CPU seconds over its run
 * (cpu_s), parallelism = cpu_s / wall_s, and host_starved when
 * parallelism is under half the pool threads: such a row's wall
 * time reflects a host that did not grant the cores, not the code.
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

/** Process CPU seconds so far, user + system, over every thread. */
double
cpuSeconds()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
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
    double cpuSeconds = 0.0; ///< process user + system over the run
    /** Node-ticks executed (the run may stop before the horizon). */
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

    /** Cores the run kept busy on average: CPU time over wall time. */
    double
    parallelism() const
    {
        return wallSeconds > 0.0 ? cpuSeconds / wallSeconds : 0.0;
    }

    /**
     * The host granted under half the pool's threads, so this row's
     * wall time says more about the host than about the code.
     */
    bool
    hostStarved() const
    {
        return parallelism() < static_cast<double>(poolThreads) / 2.0;
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
    cluster::Cluster c(scaleConfig(horizon, pool_threads));
    const double t0 = now();
    const double cpu0 = cpuSeconds();
    m.result = c.run();
    m.wallSeconds = now() - t0;
    m.cpuSeconds = cpuSeconds() - cpu0;
    // Every app may finish before the horizon, and the run stops at
    // that epoch barrier: count the ticks the nodes really executed.
    for (const cluster::NodeResult &nr : m.result.nodes)
        m.ticks += nr.ticks;
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
            << "      \"cpu_s\": " << m.cpuSeconds << ",\n"
            << "      \"parallelism\": " << m.parallelism() << ",\n"
            << "      \"host_starved\": "
            << (m.hostStarved() ? "true" : "false") << ",\n"
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

    util::TextTable t({"config", "pool", "wall s", "cpu/wall", "ticks/s",
                       "steady p99", "worst ratio", "rss MB",
                       "== serial"});
    for (const Measurement &m : results)
        t.addRow({m.name, std::to_string(m.poolThreads),
                  util::fmt(m.wallSeconds, 2),
                  util::fmt(m.parallelism(), 2) +
                      (m.hostStarved() ? " starved" : ""),
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
