/**
 * @file
 * Google-benchmark microbenchmarks of the monitor: on the per-sample
 * path, one P2Quantile::add and PerformanceMonitor::observe on
 * 32-sample spans (one tenant tick's worth) with and without the
 * steady-state sketch, each reported per sample; at the interval
 * close, PerformanceMonitor::closeInterval on a filled window.
 *
 * The latency samples the monitor is fed are drawn first:
 * BM_FillLognormal times one stream's Rng::fillLognormal, and
 * BM_NormalBatches the same lognormal batches for several streams
 * drawn by one Rng::normalBatches call, as a node's tenant group
 * draws them. Both report time per sample.
 */

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/monitor.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace {

using pliant::core::PerformanceMonitor;
using pliant::util::P2Quantile;

/** Samples per observe call: one tenant tick's batch. */
constexpr std::size_t kSpan = 32;
/** Ticks per decision interval: the window stays under budget. */
constexpr std::size_t kTicksPerInterval = 100;

/** A fixed lognormal latency stream (mean 100 us, cv 0.8). */
const std::vector<double> &
latencies()
{
    static const std::vector<double> xs = [] {
        pliant::util::Rng rng(7);
        std::vector<double> v(1 << 16);
        for (double &x : v)
            x = rng.lognormalMeanCv(100.0, 0.8);
        return v;
    }();
    return xs;
}

void
reportPerSample(benchmark::State &state, std::size_t per_iteration)
{
    // An inverted rate: time per sample (printed as e.g. "23.4ns").
    state.counters["per_sample"] = benchmark::Counter(
        static_cast<double>(state.iterations() * per_iteration),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_P2Add(benchmark::State &state)
{
    const std::vector<double> &xs = latencies();
    P2Quantile sketch(0.99);
    std::size_t i = 0;
    for (auto _ : state) {
        sketch.add(xs[i]);
        i = (i + 1) & (xs.size() - 1);
    }
    benchmark::DoNotOptimize(sketch.value());
    reportPerSample(state, 1);
}
BENCHMARK(BM_P2Add);

/** Arg 0: plain observe; arg 1: observe with steady_state set. */
void
BM_ObserveSpan(benchmark::State &state)
{
    const std::vector<double> &xs = latencies();
    const bool steady_state = state.range(0) != 0;
    PerformanceMonitor mon(4096, 11);
    std::size_t off = 0;
    std::size_t ticks = 0;
    for (auto _ : state) {
        mon.observe(std::span<const double>(xs.data() + off, kSpan),
                    steady_state);
        off = (off + kSpan) & (xs.size() - 1);
        if (++ticks == kTicksPerInterval) {
            ticks = 0;
            state.PauseTiming();
            benchmark::DoNotOptimize(mon.closeInterval());
            state.ResumeTiming();
        }
    }
    benchmark::DoNotOptimize(mon.longRunP99());
    benchmark::DoNotOptimize(mon.steadySketch().value());
    reportPerSample(state, kSpan);
}
BENCHMARK(BM_ObserveSpan)->ArgName("steady")->Arg(0)->Arg(1);

/** Lognormal parameters of the sample batches (mu, sigma). */
constexpr double kMu = 4.6;
constexpr double kSigma = 0.77;

/** Arg: samples per batch. One stream, one fillLognormal call. */
void
BM_FillLognormal(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    pliant::util::Rng rng(17);
    std::vector<double> buf(n);
    for (auto _ : state) {
        rng.fillLognormal(buf.data(), n, kMu, kSigma);
        benchmark::DoNotOptimize(buf.data());
    }
    reportPerSample(state, n);
}
BENCHMARK(BM_FillLognormal)->ArgName("samples")->Arg(33)->Arg(61);

/**
 * Args: streams, samples per stream. One normalBatches call draws
 * every stream's normals, then each batch is scaled and exponentiated
 * as fillLognormal does.
 */
void
BM_NormalBatches(benchmark::State &state)
{
    const std::size_t streams = static_cast<std::size_t>(state.range(0));
    const std::size_t n = static_cast<std::size_t>(state.range(1));
    std::vector<pliant::util::Rng> rngs;
    for (std::size_t k = 0; k < streams; ++k)
        rngs.emplace_back(17 + k);
    std::vector<double> buf(streams * n);
    std::vector<pliant::util::Rng::NormalRequest> requests;
    for (std::size_t k = 0; k < streams; ++k)
        requests.push_back({&rngs[k], buf.data() + k * n, n});
    for (auto _ : state) {
        pliant::util::Rng::normalBatches(requests);
        for (double &x : buf)
            x = std::exp(kMu + kSigma * x);
        benchmark::DoNotOptimize(buf.data());
    }
    reportPerSample(state, streams * n);
}
BENCHMARK(BM_NormalBatches)
    ->ArgNames({"streams", "samples"})
    ->ArgsProduct({{1, 2, 8, 10}, {33, 61}});

/**
 * Arg: window size. Times only closeInterval (the p99 of the
 * window); refilling the window between closes is untimed. Each
 * close reads a different slice of the latency stream.
 */
void
BM_CloseInterval(benchmark::State &state)
{
    const std::vector<double> &xs = latencies();
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    PerformanceMonitor mon(n, 13);
    std::size_t off = 0;
    for (auto _ : state) {
        state.PauseTiming();
        mon.observe(std::span<const double>(xs.data() + off, n), false);
        off = (off + n) % (xs.size() - n);
        state.ResumeTiming();
        benchmark::DoNotOptimize(mon.closeInterval());
    }
}
BENCHMARK(BM_CloseInterval)
    ->ArgName("window")
    ->Arg(60)
    ->Arg(480)
    ->Arg(3600)
    ->Arg(4096);

} // namespace

BENCHMARK_MAIN();
