/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * Every stochastic element in the Pliant testbed (arrival processes,
 * service-time noise, burst phases, calibration jitter) draws from a
 * seeded Rng so that experiments are exactly reproducible run-to-run.
 */

#ifndef PLIANT_UTIL_RNG_HH
#define PLIANT_UTIL_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pliant {
namespace util {

/**
 * Inverse standard-normal CDF (Acklam's rational approximation
 * refined by one Halley step on erfc), accurate to ~1e-15 over
 * (0, 1). Used to build the fast-sampling quantile tables and to
 * evaluate their exact tails; clamps p to avoid the infinities at 0
 * and 1.
 */
double inverseNormalCdf(double p);

/**
 * Precomputed quantile table of the standard normal: kKnots
 * uniformly-spaced inverse-CDF knots with linear interpolation in
 * the central region and exact (inverseNormalCdf) evaluation in the
 * outer 2/kKnots tail mass. sample(u) maps a uniform draw to a
 * normal variate with one multiply and a table lookup instead of
 * exp/log/sincos — the table-driven path behind
 * Rng::normalBatchFast. Deliberately NOT bit-identical to the
 * Box-Muller stream: callers opt in (ColoConfig.fastSampling) and
 * the goldens exclude it; statistical equivalence is pinned by the
 * KS/moment tests.
 */
class NormalQuantileTable
{
  public:
    NormalQuantileTable();

    /** Inverse-CDF lookup for u in [0, 1). */
    double
    sample(double u) const
    {
        const double x = u * static_cast<double>(kKnots);
        const std::size_t i = static_cast<std::size_t>(x);
        if (i < 1 || i >= kKnots - 1)
            return inverseNormalCdf(u);
        const double frac = x - static_cast<double>(i);
        return knots[i] + frac * (knots[i + 1] - knots[i]);
    }

    /** Shared immutable instance (thread-safe static init). */
    static const NormalQuantileTable &shared();

    static constexpr std::size_t kKnots = 4096;

  private:
    std::vector<double> knots; ///< knots[i] = Phi^-1(i / kKnots)
};

/**
 * Quantile table of exp(sigma * Z), Z standard normal — the
 * sigma-parameterized factor of a lognormal sample. Built once per
 * (service, sigma) pair, it turns the per-sample exp(mu + sigma * z)
 * into table lookups plus one exp(mu) per batch: sample(u) already
 * returns exp(sigma * Phi^-1(u)), exactly in the rare tails and
 * linearly interpolated (in the exp domain) in the central region.
 */
class LognormalQuantileTable
{
  public:
    explicit LognormalQuantileTable(double sigma);

    /** Inverse-CDF lookup of exp(sigma * Z) for u in [0, 1). */
    double
    sample(double u) const
    {
        const double x = u * static_cast<double>(kKnots);
        const std::size_t i = static_cast<std::size_t>(x);
        if (i < 1 || i >= kKnots - 1)
            return std::exp(sigmaZ * inverseNormalCdf(u));
        const double frac = x - static_cast<double>(i);
        return knots[i] + frac * (knots[i + 1] - knots[i]);
    }

    double sigma() const { return sigmaZ; }

    static constexpr std::size_t kKnots = 4096;

  private:
    double sigmaZ;
    std::vector<double> knots; ///< exp(sigma * Phi^-1(i / kKnots))
};

/**
 * SplitMix64 generator, used to seed Xoshiro and for cheap hashing.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Advance and return the next 64-bit value. */
    std::uint64_t next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * Xoshiro256** PRNG with convenience distributions.
 *
 * Satisfies UniformRandomBitGenerator so it can also be plugged into
 * <random> distributions where needed.
 *
 * Stream invariant: the normal-variate stream is *call-order
 * dependent*. Box-Muller produces variates in pairs and normal()
 * hands out the second ("spare") value of a pair on the next call
 * without touching the underlying uniform stream; any interleaved
 * uniform()/next() draw therefore lands at a different stream
 * position depending on the spare's parity. Replaying a run requires
 * replaying the exact call sequence — and normalBatch(dst, n) is
 * guaranteed to consume the stream bit-identically to n scalar
 * normal() calls (spare included), which is what lets hot loops
 * batch their draws without changing a single sampled value (pinned
 * by the stream-parity tests).
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        SplitMix64 sm(seed);
        for (auto &word : s)
            word = sm.next();
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    result_type operator()() { return next(); }

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t uniformInt(std::uint64_t n)
    {
        // Lemire's multiply-shift rejection method.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        std::uint64_t l = static_cast<std::uint64_t>(m);
        if (l < n) {
            std::uint64_t t = -n % n;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * n;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Bernoulli trial with success probability p. */
    bool coin(double p) { return uniform() < p; }

    /**
     * Standard normal via Box-Muller (one value per call).
     *
     * See the class comment: the spare makes this stream call-order
     * dependent, and normalBatch() is the only other consumer that
     * preserves it.
     */
    double normal()
    {
        if (hasSpare) {
            hasSpare = false;
            return spare;
        }
        double primary;
        boxMullerPair(primary, spare);
        hasSpare = true;
        return primary;
    }

    /** Normal variate with given mean and standard deviation. */
    double normal(double mean, double sd) { return mean + sd * normal(); }

    /**
     * Fill dst[0..n) with standard normal variates, consuming the
     * underlying stream bit-identically to n scalar normal() calls:
     * a pending Box-Muller spare is emitted first, pairs are drawn
     * in scalar order, and an odd count leaves the trailing spare
     * pending exactly as the scalar path would. The pair loop is a
     * straight-line array fill, so hot paths can batch a tick's
     * draws and let the compiler vectorize the surrounding
     * arithmetic without perturbing any replayed stream.
     */
    void normalBatch(double *dst, std::size_t n)
    {
        std::size_t i = 0;
        if (n == 0)
            return;
        if (hasSpare) {
            hasSpare = false;
            dst[i++] = spare;
        }
        while (n - i >= 2) {
            boxMullerPair(dst[i], dst[i + 1]);
            i += 2;
        }
        if (i < n) {
            boxMullerPair(dst[i], spare);
            hasSpare = true;
        }
    }

    /**
     * Fill dst[0..n) with exp(mu + sigma * z), z standard normal —
     * the lognormal sample batch the interactive-service model draws
     * every tick. Bit-identical to the scalar loop
     * `dst[i] = exp(mu + sigma * normal())` (same stream, same
     * arithmetic), but the normals land in dst in one pass so the
     * scale-and-exp sweep runs over a contiguous array.
     */
    void fillLognormal(double *dst, std::size_t n, double mu, double sigma)
    {
        normalBatch(dst, n);
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = std::exp(mu + sigma * dst[i]);
    }

    /**
     * Table-driven standard normal batch: one uniform draw per
     * variate mapped through the shared NormalQuantileTable. Opt-in
     * fast path — it consumes ONE uniform per sample (vs one pair
     * per two samples for Box-Muller) and produces different (but
     * statistically equivalent) values, so it must never run inside
     * a golden-pinned configuration; ColoConfig.fastSampling gates
     * every production use. A pending Box-Muller spare is left
     * untouched.
     */
    void
    normalBatchFast(double *dst, std::size_t n)
    {
        const NormalQuantileTable &table = NormalQuantileTable::shared();
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = table.sample(uniform());
    }

    /**
     * Table-driven lognormal batch: dst[i] = exp(mu) * table(u_i)
     * where table already encodes exp(sigma * Phi^-1(u)). One exp
     * per call instead of per sample; same gating caveats as
     * normalBatchFast. The caller owns the sigma-matched table.
     */
    void
    fillLognormalFast(double *dst, std::size_t n, double mu,
                      const LognormalQuantileTable &table)
    {
        const double scale = std::exp(mu);
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = scale * table.sample(uniform());
    }

    /**
     * Lognormal variate parameterized by the desired mean and
     * coefficient of variation of the *resulting* distribution
     * (convenient for service-time modeling).
     */
    double lognormalMeanCv(double mean, double cv)
    {
        const double sigma2 = std::log(1.0 + cv * cv);
        const double mu = std::log(mean) - 0.5 * sigma2;
        return std::exp(normal(mu, std::sqrt(sigma2)));
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /**
     * One Box-Muller transform: `first` receives the cosine leg
     * (what a fresh normal() call returns), `second` the sine leg
     * (what becomes the spare). glibc's sincos() computes both legs
     * through the same kernels as sin()/cos(), so the combined call
     * is bit-identical to the two separate ones (pinned by the
     * engine regression suites) while sharing the argument
     * reduction.
     */
    void boxMullerPair(double &first, double &second)
    {
        double u1 = uniform();
        if (u1 <= 0.0)
            u1 = 0x1.0p-53;
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 6.283185307179586476925286766559 * u2;
#if defined(__GLIBC__)
        double sin_leg, cos_leg;
        ::sincos(theta, &sin_leg, &cos_leg);
        first = r * cos_leg;
        second = r * sin_leg;
#else
        first = r * std::cos(theta);
        second = r * std::sin(theta);
#endif
    }

    std::uint64_t s[4];
    double spare = 0.0;
    bool hasSpare = false;
};

} // namespace util
} // namespace pliant

#endif // PLIANT_UTIL_RNG_HH
