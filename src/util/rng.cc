#include "util/rng.hh"

namespace pliant {
namespace util {

namespace {

/** Smallest p the inverse CDF evaluates (uniform() can return 0). */
constexpr double kPFloor = 0x1.0p-53;

/**
 * Box-Muller pairs normalBatches() holds before it computes them: a
 * node's tick group (at most 512 normals) fits in one flush.
 */
constexpr std::size_t kPairCapacity = 256;

/** Angle buckets of normalBatches()' counting sort. */
constexpr std::size_t kAngleBuckets = 64;

/**
 * Acklam's rational approximation of the inverse normal CDF
 * (relative error < 1.15e-9 before refinement). Split at
 * p = 0.02425 between the central rational in r = q^2 and the tail
 * rational in q = sqrt(-2 log p).
 */
double
acklam(double p)
{
    static const double a[6] = {
        -3.969683028665376e+01, 2.209460984245205e+02,
        -2.759285104469687e+02, 1.383577518672690e+02,
        -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[5] = {
        -5.447609879822406e+01, 1.615858368580409e+02,
        -1.556989798598866e+02, 6.680131188771972e+01,
        -1.328068155288572e+01};
    static const double c[6] = {
        -7.784894002430293e-03, -3.223964580411365e-01,
        -2.400758277161838e+00, -2.549732539343734e+00,
        4.374664141464968e+00, 2.938163982698783e+00};
    static const double d[4] = {
        7.784695709041462e-03, 3.224671290700398e-01,
        2.445134137142996e+00, 3.754408661907416e+00};
    constexpr double p_low = 0.02425;

    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
                 c[4]) *
                    q +
                c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p > 1.0 - p_low) {
        const double q = std::sqrt(-2.0 * std::log(1.0 - p));
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
                  c[4]) *
                     q +
                 c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) *
                r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) *
                r +
            1.0);
}

} // namespace

void
Rng::normalBatches(std::span<const NormalRequest> requests)
{
    // Pending pairs, as structure-of-arrays on the stack: u1 (then
    // the radius), the angle and its bucket, and where the two legs
    // go. A trailing odd pair's sine leg goes to its stream's spare.
    double radius[kPairCapacity];
    double theta[kPairCapacity];
    std::uint8_t bucket[kPairCapacity];
    double *first[kPairCapacity];
    double *second[kPairCapacity];
    std::size_t pending = 0;

    const auto flush = [&] {
        for (std::size_t i = 0; i < pending; ++i)
            radius[i] = boxMullerRadius(radius[i]);
        std::size_t start[kAngleBuckets] = {};
        for (std::size_t i = 0; i < pending; ++i)
            ++start[bucket[i]];
        std::size_t sum = 0;
        for (std::size_t &b : start) {
            const std::size_t count = b;
            b = sum;
            sum += count;
        }
        std::uint16_t order[kPairCapacity];
        for (std::size_t i = 0; i < pending; ++i)
            order[start[bucket[i]]++] = static_cast<std::uint16_t>(i);
        for (std::size_t j = 0; j < pending; ++j) {
            const std::size_t i = order[j];
            boxMullerLegs(radius[i], theta[i], *first[i], *second[i]);
        }
        pending = 0;
    };

    // Same layout as normalBatch(): the pending spare first, pairs
    // in stream order, an odd tail's sine leg left as the spare.
    for (const NormalRequest &req : requests) {
        Rng &rng = *req.rng;
        std::size_t i = 0;
        if (req.n == 0)
            continue;
        if (rng.hasSpare) {
            rng.hasSpare = false;
            req.dst[i++] = rng.spare;
        }
        while (i < req.n) {
            if (pending == kPairCapacity)
                flush();
            const double u1 = rng.uniform();
            const double u2 = rng.uniform();
            radius[pending] = u1;
            theta[pending] = boxMullerAngle(u2);
            bucket[pending] = static_cast<std::uint8_t>(
                u2 * static_cast<double>(kAngleBuckets));
            first[pending] = &req.dst[i];
            if (req.n - i >= 2) {
                second[pending] = &req.dst[i + 1];
                i += 2;
            } else {
                second[pending] = &rng.spare;
                rng.hasSpare = true;
                i += 1;
            }
            ++pending;
        }
    }
    flush();
}

double
inverseNormalCdf(double p)
{
    if (p < kPFloor)
        p = kPFloor;
    if (p > 1.0 - kPFloor)
        p = 1.0 - kPFloor;
    double x = acklam(p);
    // One Halley step against the exact CDF (erfc) takes the
    // rational approximation to ~1e-15: e is the CDF residual, u the
    // Newton step scaled by the density.
    const double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
    const double u = e * 2.5066282746310002 // sqrt(2 pi)
                     * std::exp(x * x / 2.0);
    x = x - u / (1.0 + x * u / 2.0);
    return x;
}

NormalQuantileTable::NormalQuantileTable() : knots(kKnots + 1, 0.0)
{
    for (std::size_t i = 1; i < kKnots; ++i)
        knots[i] = inverseNormalCdf(static_cast<double>(i) /
                                    static_cast<double>(kKnots));
    // The unused endpoint slots mirror their neighbors so an
    // out-of-contract read stays finite.
    knots[0] = knots[1];
    knots[kKnots] = knots[kKnots - 1];
}

const NormalQuantileTable &
NormalQuantileTable::shared()
{
    static const NormalQuantileTable table;
    return table;
}

LognormalQuantileTable::LognormalQuantileTable(double sigma)
    : sigmaZ(sigma), knots(kKnots + 1, 0.0)
{
    for (std::size_t i = 1; i < kKnots; ++i) {
        // Exact inverse CDF at the knot (not the normal table's
        // interpolation) so table error stays one-lerp deep.
        const double z = inverseNormalCdf(static_cast<double>(i) /
                                          static_cast<double>(kKnots));
        knots[i] = std::exp(sigmaZ * z);
    }
    knots[0] = knots[1];
    knots[kKnots] = knots[kKnots - 1];
}

} // namespace util
} // namespace pliant
