/**
 * @file
 * Google-benchmark microbenchmarks of cluster setup at growing node
 * counts: validateClusterConfig on a built config, and
 * Cluster::Cluster (validation, initial placement and the per-node
 * ColoConfigs). Every node has the 1000-node scale workload's shape:
 * ten named memcached/nginx tenants at constant loads, twelve
 * catalog apps placed statically, 1 s ticks and intervals. Both
 * should grow linearly with the node count; each reports a fitted
 * complexity.
 */

#include <cstddef>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "cluster/cluster.hh"

namespace {

using namespace pliant;

/** A `nodes`-node cluster of the scale workload's node shape. */
cluster::ClusterConfig
scaleShapedConfig(std::size_t nodes)
{
    constexpr sim::Time kS = sim::kSecond;
    cluster::ClusterConfig cfg;
    cfg.nodes.resize(nodes);
    for (std::size_t n = 0; n < nodes; ++n) {
        for (std::size_t s = 0; s < 10; ++s) {
            const bool mc = s % 2 == 0;
            const double load =
                0.40 + 0.03 * static_cast<double>((n + s) % 5);
            cfg.nodes[n].services.push_back(
                {mc ? services::ServiceKind::Memcached
                    : services::ServiceKind::Nginx,
                 colo::Scenario::constant(load),
                 (mc ? "mc-" : "ngx-") + std::to_string(s)});
        }
    }
    cfg.apps = {"canneal", "streamcluster", "bayesian", "kmeans",
                "snp", "raytrace", "fluidanimate", "water_nsquared",
                "birch", "genenet", "semphy", "plsa"};
    cfg.runtime = core::RuntimeKind::Pliant;
    cfg.placement = cluster::PlacementKind::Static;
    cfg.tick = 1 * kS;
    cfg.decisionInterval = 1 * kS;
    cfg.epoch = 5 * kS;
    cfg.maxDuration = 12 * kS;
    cfg.seed = 11;
    cfg.threads = 1;
    return cfg;
}

void
BM_ValidateClusterConfig(benchmark::State &state)
{
    const std::size_t nodes = static_cast<std::size_t>(state.range(0));
    const cluster::ClusterConfig cfg = scaleShapedConfig(nodes);
    for (auto _ : state)
        cluster::validateClusterConfig(cfg);
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ValidateClusterConfig)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

/** The constructor alone: the config copy and teardown are untimed. */
void
BM_ClusterCtor(benchmark::State &state)
{
    const std::size_t nodes = static_cast<std::size_t>(state.range(0));
    const cluster::ClusterConfig cfg = scaleShapedConfig(nodes);
    for (auto _ : state) {
        state.PauseTiming();
        cluster::ClusterConfig copy = cfg;
        state.ResumeTiming();
        auto c = std::make_unique<cluster::Cluster>(std::move(copy));
        state.PauseTiming();
        benchmark::DoNotOptimize(c->nodeCount());
        c.reset();
        state.ResumeTiming();
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClusterCtor)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

} // namespace

BENCHMARK_MAIN();
