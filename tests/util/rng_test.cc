/**
 * @file
 * Tests for the deterministic PRNG and its distributions.
 */

#include "util/rng.hh"

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using pliant::util::Rng;
using pliant::util::SplitMix64;

TEST(SplitMix64Test, DeterministicForSeed)
{
    SplitMix64 a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer)
{
    SplitMix64 a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(RngTest, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(RngTest, UniformMeanIsCentered)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntInRange)
{
    Rng rng(13);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.uniformInt(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    // All 7 values should appear in 10k draws.
    EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntOneIsAlwaysZero)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.uniformInt(1), 0u);
}

TEST(RngTest, CoinProbability)
{
    Rng rng(17);
    int heads = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        heads += rng.coin(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(RngTest, NormalMoments)
{
    Rng rng(23);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalWithParams)
{
    Rng rng(29);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, LognormalMeanCvMatchesRequestedMean)
{
    Rng rng(31);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.lognormalMeanCv(3.0, 0.5);
    EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, LognormalIsPositive)
{
    Rng rng(37);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(rng.lognormalMeanCv(1.0, 1.0), 0.0);
}

TEST(RngTest, NormalBatchMatchesScalarStream)
{
    // The batch API must consume the exact same Xoshiro stream as n
    // scalar normal() calls: same values, same order, bit-identical.
    Rng scalar(91), batch(91);
    std::vector<double> got(64);
    batch.normalBatch(got.data(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], scalar.normal()) << "index " << i;
    // The streams must remain aligned afterwards.
    EXPECT_EQ(batch.next(), scalar.next());
}

TEST(RngTest, NormalBatchOddSizePreservesSpare)
{
    // An odd-length batch leaves the Box-Muller spare cached, just
    // like an odd number of scalar calls would. Interleave uniform()
    // draws to prove the spare survives unrelated stream use.
    Rng scalar(93), batch(93);
    std::vector<double> got(7);
    batch.normalBatch(got.data(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], scalar.normal());
    EXPECT_EQ(batch.uniform(), scalar.uniform());
    // Next normal on each side must be the cached spare.
    EXPECT_EQ(batch.normal(), scalar.normal());
    // And a second odd batch starting from a spare-loaded state.
    std::vector<double> more(5);
    batch.normalBatch(more.data(), more.size());
    for (std::size_t i = 0; i < more.size(); ++i)
        EXPECT_EQ(more[i], scalar.normal());
    EXPECT_EQ(batch.next(), scalar.next());
}

TEST(RngTest, NormalBatchZeroLengthIsNoOp)
{
    Rng a(95), b(95);
    a.normalBatch(nullptr, 0);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, FillLognormalMatchesScalarLognormal)
{
    // fillLognormal(mu, sigma) must equal exp(mu + sigma * z) over
    // the same normal stream, including across odd/even boundaries.
    const double mu = 1.7, sigma = 0.42;
    Rng scalar(97), batch(97);
    std::vector<double> got(33);
    batch.fillLognormal(got.data(), got.size(), mu, sigma);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], std::exp(mu + sigma * scalar.normal()));
    EXPECT_EQ(batch.normal(), scalar.normal());
}

/** Bit pattern of a double, so comparisons are exact (NaN-proof). */
std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/**
 * Run normalBatches over `streams` with the given counts and check
 * every request against normalBatch on a copy of its stream, bit for
 * bit, then the next normal() and uniform() of every stream.
 */
void
expectBatchesMatchPerStream(std::vector<Rng> streams,
                            const std::vector<std::size_t> &counts,
                            const std::string &label)
{
    std::vector<Rng> reference = streams;
    std::vector<std::vector<double>> got(streams.size());
    std::vector<Rng::NormalRequest> requests;
    for (std::size_t k = 0; k < streams.size(); ++k) {
        got[k].assign(counts[k], -1.0);
        requests.push_back({&streams[k], got[k].data(), counts[k]});
    }
    Rng::normalBatches(requests);
    for (std::size_t k = 0; k < streams.size(); ++k) {
        std::vector<double> want(counts[k]);
        reference[k].normalBatch(want.data(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(bits(got[k][i]), bits(want[i]))
                << label << ", stream " << k << ", normal " << i;
        ASSERT_EQ(bits(streams[k].normal()), bits(reference[k].normal()))
            << label << ", stream " << k << ": next normal()";
        ASSERT_EQ(bits(streams[k].uniform()),
                  bits(reference[k].uniform()))
            << label << ", stream " << k << ": next uniform()";
    }
}

TEST(RngTest, NormalBatchesMatchPerStreamNormalBatch)
{
    // Random groups of 1-12 streams, 0-61 normals each (the engine's
    // tenant groups are up to 8 x 61), some entering with a pending
    // spare. 12 x 61 normals is past the internal pair capacity, so
    // the larger groups also run the mid-group flush.
    SplitMix64 sm(20261019);
    bool flushed = false;
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t n_streams = 1 + sm.next() % 12;
        std::vector<Rng> streams;
        std::vector<std::size_t> counts;
        std::size_t total = 0;
        for (std::size_t k = 0; k < n_streams; ++k) {
            streams.emplace_back(sm.next());
            // An odd number of scalar draws leaves a spare pending.
            for (std::uint64_t d = sm.next() % 4; d > 0; --d)
                streams.back().normal();
            counts.push_back(sm.next() % 2 == 0 ? 61 : sm.next() % 62);
            total += counts.back();
        }
        flushed = flushed || total > 600;
        expectBatchesMatchPerStream(std::move(streams), counts,
                                    "trial " + std::to_string(trial));
    }
    EXPECT_TRUE(flushed) << "no trial went past the pair capacity";
}

TEST(RngTest, NormalBatchesFlushInsideOneLongRequest)
{
    // One request past the pair capacity on its own, beside an empty
    // and an odd one: the flush lands in the middle of a stream.
    std::vector<Rng> streams{Rng(5), Rng(6), Rng(7)};
    streams[1].normal();
    expectBatchesMatchPerStream(streams, {1001, 0, 3}, "long request");
    expectBatchesMatchPerStream(streams, {0, 0, 0}, "empty requests");
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator)
{
    static_assert(Rng::min() == 0);
    static_assert(Rng::max() == ~0ULL);
    Rng rng(1);
    EXPECT_NE(rng(), rng());
}

/** Chi-square uniformity across 16 buckets at various seeds. */
class RngUniformityTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngUniformityTest, BucketsAreBalanced)
{
    Rng rng(GetParam());
    const int buckets = 16;
    const int n = 64000;
    std::vector<int> count(buckets, 0);
    for (int i = 0; i < n; ++i)
        ++count[static_cast<std::size_t>(rng.uniformInt(buckets))];
    const double expected = static_cast<double>(n) / buckets;
    double chi2 = 0.0;
    for (int c : count)
        chi2 += (c - expected) * (c - expected) / expected;
    // 15 dof; P(chi2 > 37.7) ~= 0.001.
    EXPECT_LT(chi2, 37.7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngUniformityTest,
                         ::testing::Values(1, 2, 3, 42, 1234, 99999));

} // namespace
