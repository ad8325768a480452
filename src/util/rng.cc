#include "util/rng.hh"

namespace pliant {
namespace util {

namespace {

/**
 * Box-Muller pairs normalBatches() holds before it computes them: a
 * node's tick group (at most 512 normals) fits in one flush.
 */
constexpr std::size_t kPairCapacity = 256;

/** Angle buckets of normalBatches()' counting sort. */
constexpr std::size_t kAngleBuckets = 64;

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

} // namespace util
} // namespace pliant
