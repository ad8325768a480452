/**
 * @file
 * Shared-resource interference model.
 *
 * Maps the aggregate pressure of all colocated tasks onto a
 * service-time inflation factor for each interactive service,
 * through three contention channels:
 *
 *  - LLC occupancy: total working sets vs cache capacity (smooth
 *    conflict-miss growth, not a hard threshold),
 *  - memory bandwidth: total demand vs peak channel bandwidth,
 *  - compute: frequency/power coupling between pinned containers.
 *
 * Each interactive service weighs these channels with its own
 * sensitivity vector — memcached is the most contention-sensitive,
 * NGINX close behind, MongoDB I/O-bound and least sensitive — which
 * is exactly the behavioural ordering the paper reports.
 */

#ifndef PLIANT_SERVER_INTERFERENCE_HH
#define PLIANT_SERVER_INTERFERENCE_HH

#include <vector>

#include "approx/variant.hh"
#include "server/partition.hh"
#include "server/spec.hh"

namespace pliant {
namespace server {

/** Per-channel interference sensitivity of an interactive service. */
struct Sensitivity
{
    double llc = 0.20;
    double membw = 0.16;
    double compute = 0.06;

    /**
     * Sensitivity to the mere presence of active co-runners (shared
     * kernel, network stack, scheduler, and prefetcher effects that
     * exist below the LLC/bandwidth thresholds). Scales with the
     * co-runners' activity level, so approximation relieves it too.
     */
    double base = 0.05;
};

/** Decomposed contention levels, each roughly in [0, ~1.6]. */
struct ContentionBreakdown
{
    double llc = 0.0;
    double membw = 0.0;
    double compute = 0.0;

    /** Aggregate co-runner activity driving the base penalty. */
    double activity = 0.0;

    /** Sensitivity-weighted total contention. */
    double weighted(const Sensitivity &s) const
    {
        return s.llc * llc + s.membw * membw + s.compute * compute +
               s.base * activity;
    }
};

/**
 * Stateless interference calculator over a ServerSpec.
 */
class InterferenceModel
{
  public:
    explicit InterferenceModel(const ServerSpec &spec);

    /**
     * Contention levels given the interactive service's own pressure
     * and the co-runners' aggregate pressure.
     */
    ContentionBreakdown contention(
        const approx::PressureVector &service_pressure,
        const std::vector<approx::PressureVector> &corunners) const;

    /**
     * Contention under an LLC way partition (Section 6.5 extension).
     * Ways isolated for the service remove its LLC contention
     * channel entirely (its partition is private) at the cost of
     * amplified co-runner memory-bandwidth demand; an unpartitioned
     * CachePartition degenerates to contention().
     */
    ContentionBreakdown contentionPartitioned(
        const approx::PressureVector &service_pressure,
        const std::vector<approx::PressureVector> &corunners,
        const CachePartition &partition) const;

    /**
     * Contention one service experiences in a multi-tenant
     * colocation: `peers` are the *other* latency-critical services
     * (inside the service-side way partition when one is active) and
     * `tasks` are the approximate co-runners (outside it). Without
     * partitioning this equals contention() over peers+tasks; with
     * partitioning the peers share the isolated ways with `self`
     * (their working sets count against the service-side capacity
     * and their bandwidth is not amplified) while only the tasks are
     * squeezed into the remaining ways. With no peers this
     * degenerates exactly to contention()/contentionPartitioned().
     */
    ContentionBreakdown contentionMulti(
        const approx::PressureVector &self,
        const std::vector<approx::PressureVector> &peers,
        const std::vector<approx::PressureVector> &tasks,
        const CachePartition &partition) const;

    /**
     * Pointer/length form of contentionMulti for callers whose
     * peer/task lists are not std::vectors. Aggregation order (and
     * therefore every floating point intermediate) is identical to
     * the vector overload, which simply forwards here — the
     * byte-identity suites hold across both entry points.
     */
    ContentionBreakdown contentionMulti(
        const approx::PressureVector &self,
        const approx::PressureVector *peers, std::size_t n_peers,
        const approx::PressureVector *tasks, std::size_t n_tasks,
        const CachePartition &partition) const;

    /**
     * Service-time inflation factor (>= 1) for a service with the
     * given sensitivity under the given contention.
     */
    double
    inflation(const ContentionBreakdown &c, const Sensitivity &s) const
    {
        return 1.0 + c.weighted(s);
    }

    double llcCapacityMb() const { return llcMb; }
    double peakBwGbs() const { return peakBw; }

  private:
    double llcMb;
    double peakBw;
};

} // namespace server
} // namespace pliant

#endif // PLIANT_SERVER_INTERFERENCE_HH
