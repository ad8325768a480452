/**
 * @file
 * The memory high-water of a many-node cluster run is pinned: the
 * live heap a Cluster::run() adds at its peak, and what it still
 * holds when it returns, stay within a per-node bound. Node engines
 * are freed as each one finalizes (so engines and results never
 * stack up), and an engine keeps one sample buffer and no second
 * copy of its tenants' specs.
 *
 * The bounds count glibc's usable bytes per block
 * (malloc_usable_size), and the blocks are libstdc++'s containers,
 * so they depend on the toolchain: they hold with glibc and
 * libstdc++ and leave room for their version drift, not for a
 * different allocator or standard library.
 */

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster.hh"

// ---------------------------------------------------------------------
// Global live-heap tracker. Each *_test.cc builds into its own binary,
// so replacing the global allocation functions here observes every
// heap allocation in the process. Every replaceable form is
// intercepted, and every block is sized by malloc_usable_size at both
// ends, so a block's bytes leave the count exactly as they entered.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void *
trackedAlloc(std::size_t size, std::size_t align)
{
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
    if (p == nullptr)
        return nullptr;
    const std::size_t bytes = malloc_usable_size(p);
    const std::size_t live =
        g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::size_t peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
    }
    return p;
}

void *
trackedAllocOrThrow(std::size_t size, std::size_t align)
{
    void *p = trackedAlloc(size, align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void
trackedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
    std::free(p);
}
} // namespace

void *
operator new(std::size_t size)
{
    return trackedAllocOrThrow(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size)
{
    return trackedAllocOrThrow(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return trackedAllocOrThrow(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return trackedAllocOrThrow(size, static_cast<std::size_t>(align));
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return trackedAlloc(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return trackedAlloc(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return trackedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return trackedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    trackedFree(p);
}

void
operator delete[](void *p) noexcept
{
    trackedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    trackedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    trackedFree(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    trackedFree(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    trackedFree(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    trackedFree(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    trackedFree(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    trackedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    trackedFree(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    trackedFree(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    trackedFree(p);
}

namespace {

using namespace pliant;

constexpr sim::Time kS = sim::kSecond;
constexpr std::size_t kNodes = 200;
constexpr std::size_t kServicesPerNode = 10;
constexpr std::size_t kKiB = 1024;

/**
 * fig_scale's shape at 200 nodes: 5 memcached + 5 nginx tenants per
 * node at staggered constant loads, four static-placed apps, tick =
 * decision interval = 1 s, a 12 s horizon and one pool thread.
 */
cluster::ClusterConfig
scaleShape()
{
    cluster::ClusterConfigBuilder builder;
    for (std::size_t n = 0; n < kNodes; ++n) {
        builder.node();
        for (std::size_t s = 0; s < kServicesPerNode; ++s) {
            const bool mc = s % 2 == 0;
            const double load =
                0.40 + 0.03 * static_cast<double>((n + s) % 5);
            builder.service((mc ? "mc-" : "ngx-") + std::to_string(s),
                            mc ? services::ServiceKind::Memcached
                               : services::ServiceKind::Nginx,
                            colo::Scenario::constant(load));
        }
    }
    builder.apps({"canneal", "streamcluster", "bayesian", "kmeans"});
    builder.runtime(core::RuntimeKind::Pliant);
    builder.placement(cluster::PlacementKind::Static);
    builder.tick(1 * kS);
    builder.decisionInterval(1 * kS);
    builder.epoch(5 * kS);
    builder.maxDuration(12 * kS);
    builder.seed(97);
    builder.threads(1);
    return builder.build();
}

/** `bytes` in KiB per node, for the failure messages. */
double
kibPerNode(std::size_t bytes)
{
    return static_cast<double>(bytes) / static_cast<double>(kNodes * kKiB);
}

TEST(ClusterMemoryTest, RunHighWaterStaysWithinPerNodeBound)
{
    cluster::Cluster c(scaleShape());

    const std::size_t before = g_live.load(std::memory_order_relaxed);
    g_peak.store(before, std::memory_order_relaxed);
    const cluster::ClusterResult r = c.run();
    const std::size_t peak = g_peak.load(std::memory_order_relaxed);
    const std::size_t after = g_live.load(std::memory_order_relaxed);

    ASSERT_EQ(r.nodes.size(), kNodes);
    ASSERT_EQ(r.nodes[0].result.services.size(), kServicesPerNode);
    EXPECT_EQ(r.nodes[0].ticks, 12U);

    // Every node's engine is alive for the whole tick loop; freeing
    // each one as it finalizes keeps the results from stacking on
    // top of the engines. Kept to the end, the engines peak near 31
    // KiB per node at this shape; freed, near 21.
    EXPECT_LE(peak - before, kNodes * 24 * kKiB)
        << "run() peaked " << kibPerNode(peak - before)
        << " KiB per node above the live heap before it";

    // What run() still holds when it returns is the result: one
    // ColoResult per node (about 3.4 KiB), no engine.
    ASSERT_GE(after, before);
    EXPECT_LE(after - before, kNodes * 8 * kKiB)
        << "run() returned holding " << kibPerNode(after - before)
        << " KiB per node above the live heap before it";
}

} // namespace
