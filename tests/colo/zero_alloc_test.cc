/**
 * @file
 * A warmed-up colo::Engine tick loop performs zero heap allocations,
 * with the metrics registry off and on, and so do its decision-
 * interval closes when the timeline is not retained — with the
 * admission front-end on as well, and at the 1000-node sweep's
 * tick = interval shape, whose monitor windows are sized to one
 * tick's samples; at that shape even a fresh engine's first tick
 * allocates nothing. Every per-tick and per-close buffer
 * is sized at construction or reaches its steady capacity during
 * warmup, so the steady-state loop only reuses memory.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "admission/admission.hh"
#include "colo/engine.hh"

// ---------------------------------------------------------------------
// Global allocation counter. Each *_test.cc builds into its own
// binary, so overriding the global allocation functions here observes
// every heap allocation in the process. Every replaceable form is
// intercepted — throwing and nothrow, plain and aligned — so nothing
// allocated here is ever freed by an allocator that did not make it.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(size);
    } else {
        // aligned_alloc requires size to be a multiple of alignment.
        const std::size_t rounded = (size + align - 1) / align * align;
        p = std::aligned_alloc(align, rounded);
    }
    return p;
}

void *
countedAllocOrThrow(std::size_t size, std::size_t align)
{
    void *p = countedAlloc(size, align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAllocOrThrow(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size)
{
    return countedAllocOrThrow(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAllocOrThrow(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAllocOrThrow(size, static_cast<std::size_t>(align));
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

using namespace pliant;
using namespace pliant::colo;

constexpr sim::Time kS = sim::kSecond;

/** Three constant-load tenants (two memcached shards) + two apps. */
ColoConfig
threeTenantConfig()
{
    return makeMultiServiceConfig(
        {{services::ServiceKind::Memcached, Scenario::constant(0.70),
          "mc-a"},
         {services::ServiceKind::Memcached, Scenario::constant(0.60),
          "mc-b"},
         {services::ServiceKind::Nginx, Scenario::constant(0.55), "ng"}},
        {"canneal", "bayesian"}, core::RuntimeKind::Pliant, 5);
}

TEST(ZeroAllocTest, CounterSeesNothrowAllocations)
{
    // std::stable_sort's temporary buffer, for one, is a nothrow
    // allocation; an uncounted form would hide it from the tests
    // below and be freed by an allocator that did not make it.
    for (const bool aligned : {false, true}) {
        const std::uint64_t before =
            g_allocations.load(std::memory_order_relaxed);
        void *p = aligned ? ::operator new(64, std::align_val_t{64},
                                           std::nothrow)
                          : ::operator new(64, std::nothrow);
        const std::uint64_t after =
            g_allocations.load(std::memory_order_relaxed);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(after - before, 1U) << "aligned=" << aligned;
        if (aligned)
            ::operator delete(p, std::align_val_t{64}, std::nothrow);
        else
            ::operator delete(p, std::nothrow);
    }
}

TEST(ZeroAllocTest, WarmTickLoopPerformsZeroHeapAllocations)
{
    // Constant-load tenants keep each tick's sample-vector size
    // fixed, so after warmup every per-tick buffer has reached its
    // steady capacity. The measured window (10.2s -> 10.9s) crosses
    // no decision-interval close — the next timeline append (which
    // legitimately allocates) happens at 11s.
    const ColoConfig cfg = threeTenantConfig();
    Engine engine(cfg);
    engine.advanceUntil(sim::Time(10.2 * kS));

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    engine.advanceUntil(sim::Time(10.9 * kS));
    const std::uint64_t after =
        g_allocations.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0U)
        << "warm tick loop allocated " << (after - before)
        << " times between 10.2s and 10.9s";
}

TEST(ZeroAllocTest, WarmTickLoopStaysZeroAllocWithMetricsEnabled)
{
    // The observability contract: the registry allocates at
    // construction (registration) and at snapshot, never per update.
    // Same window as the test above, now with counters/stats/phase
    // timers recording every tick.
    ColoConfig cfg = threeTenantConfig();
    cfg.observability.metrics = true;
    Engine engine(cfg);
    engine.advanceUntil(sim::Time(10.2 * kS));

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    engine.advanceUntil(sim::Time(10.9 * kS));
    const std::uint64_t after =
        g_allocations.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0U)
        << "metrics-enabled warm tick loop allocated "
        << (after - before) << " times between 10.2s and 10.9s";
}

TEST(ZeroAllocTest, TickEqualsIntervalWithFlashCrowdAllocatesNothing)
{
    // The 1000-node sweep's shape: tick = interval = 1 s, so every
    // tick is a close and each monitor window is reserved for one
    // tick's samples (kMaxSamplesPerTick). A 1 s tick already emits
    // the cap; the flash crowd (15 s .. 30 s) drives the load, and
    // the tail, to its peak inside the measured window.
    ColoConfig cfg = makeMultiServiceConfig(
        {{services::ServiceKind::Memcached,
          Scenario::flashCrowd(0.45, 0.97, 15 * kS, 3 * kS, 8 * kS,
                               4 * kS),
          "mc-crowd"},
         {services::ServiceKind::Memcached, Scenario::constant(0.50),
          "mc-b"},
         {services::ServiceKind::Nginx, Scenario::constant(0.55), "ng"}},
        {"canneal", "bayesian"}, core::RuntimeKind::Pliant, 97);
    cfg.tick = kS;
    cfg.decisionInterval = kS;
    Engine engine(cfg);
    engine.advanceUntil(10 * kS);

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    engine.advanceUntil(32 * kS);
    const std::uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;

    ASSERT_FALSE(engine.appsFinished());
    EXPECT_EQ(engine.now(), 32 * kS);
    EXPECT_EQ(allocs, 0U)
        << "tick = interval warm loop allocated " << allocs
        << " times between 10s and 32s";
}

TEST(ZeroAllocTest, FirstTickAtTickEqualsIntervalAllocatesNothing)
{
    // A freshly built engine at the 1000-node sweep's node shape: ten
    // tenants, tick = interval = 1 s. The engine's one sample buffer
    // is reserved at construction, so the first tick (a close too)
    // grows no per-tenant buffer on whatever pool thread runs it.
    std::vector<ServiceSpec> specs;
    for (int s = 0; s < 10; ++s) {
        const bool mc = s % 2 == 0;
        specs.push_back({mc ? services::ServiceKind::Memcached
                            : services::ServiceKind::Nginx,
                         Scenario::constant(0.40 + 0.03 * (s % 5)),
                         (mc ? "mc-" : "ngx-") + std::to_string(s)});
    }
    ColoConfig cfg = makeMultiServiceConfig(
        std::move(specs), {"canneal"}, core::RuntimeKind::Pliant, 97);
    cfg.tick = kS;
    cfg.decisionInterval = kS;
    Engine engine(cfg);

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    engine.advanceUntil(kS);
    const std::uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;

    EXPECT_EQ(engine.now(), kS);
    EXPECT_EQ(allocs, 0U) << "the first tick allocated " << allocs << " times";
}

/** A live timeline consumer that only counts what it is sent. */
class CountingSink : public TimelineSink
{
  public:
    void onRoster(const RosterEvent &) override {}
    void onPoint(const TimePoint &) override { ++points; }

    int points = 0;
};

TEST(ZeroAllocTest, IntervalClosesWithAdmissionAllocateNothing)
{
    // The window 10.2s -> 20.9s spans ten closes (11s .. 20s). Each
    // close refills the engine's TimePoint (for the live sink) and
    // relief buffer in place, and the QosShed front-end reads the
    // runtime's relief floor at every close (non-empty under the
    // learned runtime). The first tenant's name is longer than any
    // short-string buffer, so a close that copied it into a fresh
    // string would allocate.
    for (const auto runtime :
         {core::RuntimeKind::Pliant, core::RuntimeKind::Learned}) {
        for (const bool metrics : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "runtime " << static_cast<int>(runtime)
                         << ", metrics " << metrics);
            ColoConfig cfg = makeMultiServiceConfig(
                {{services::ServiceKind::Memcached,
                  Scenario::constant(0.70), "memcached-primary-tenant"},
                 {services::ServiceKind::Memcached,
                  Scenario::constant(0.60), "mc-b"},
                 {services::ServiceKind::Nginx, Scenario::constant(0.55),
                  "ng"}},
                {"canneal", "bayesian"}, runtime, 5);
            cfg.admission.enabled = true;
            cfg.admission.policy = admission::AdmissionKind::QosShed;
            cfg.admission.batching = admission::BatchingKind::Adaptive;
            cfg.observability.metrics = metrics;
            Engine engine(cfg);
            CountingSink sink;
            engine.setTimelineSink(&sink);
            engine.advanceUntil(sim::Time(10.2 * kS));
            const int points_before = sink.points;
            const std::uint64_t before =
                g_allocations.load(std::memory_order_relaxed);
            engine.advanceUntil(sim::Time(20.9 * kS));
            const std::uint64_t allocs =
                g_allocations.load(std::memory_order_relaxed) - before;
            ASSERT_FALSE(engine.appsFinished());
            EXPECT_EQ(sink.points - points_before, 10);
            EXPECT_EQ(engine.now(), sim::Time(20.9 * kS));
            if (runtime == core::RuntimeKind::Learned) {
                std::vector<core::ServiceRelief> relief;
                engine.reliefPredictions(relief);
                EXPECT_FALSE(relief.empty());
            }
            EXPECT_EQ(allocs, 0U)
                << "warm loop with ten interval closes allocated "
                << allocs << " times between 10.2s and 20.9s";
        }
    }
}

} // namespace
