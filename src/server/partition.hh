/**
 * @file
 * Way-based LLC partitioning (the Section 6.5 "trading off other
 * resources, such as cache" extension).
 *
 * Intel CAT-style allocation: the last-level cache's ways are split
 * between the interactive service and the approximate co-runners.
 * Isolating ways for the service removes LLC interference on it, but
 * squeezing the co-runners into fewer ways makes them miss more,
 * which shows up as extra memory-bandwidth demand (the classic
 * partitioning trade-off Heracles/Ubik document).
 */

#ifndef PLIANT_SERVER_PARTITION_HH
#define PLIANT_SERVER_PARTITION_HH

#include "server/spec.hh"

namespace pliant {
namespace server {

/**
 * State of the way partition between the interactive service and
 * everyone else. Ways not assigned to the service are shared by the
 * co-runners.
 */
class CachePartition
{
  public:
    /**
     * @param spec platform (provides total ways and LLC size).
     * @param service_ways initial ways isolated for the service;
     *        0 means no partitioning (everything shared).
     */
    explicit CachePartition(const ServerSpec &spec, int service_ways = 0);

    int serviceWays() const { return svcWays; }

    /** Whether partitioning is active at all. */
    bool isolated() const { return svcWays > 0; }

    /**
     * Grow the service's partition by one way.
     * @return false when at the maximum (must leave the co-runners
     *         at least minCorunnerWays ways).
     */
    bool grow();

    /** Shrink the service's partition by one way (towards shared). */
    bool shrink();

    /** LLC capacity (MB) available to the service. */
    double serviceCapacityMb() const;

    /** LLC capacity (MB) available to the co-runners. */
    double corunnerCapacityMb() const;

    /**
     * Bandwidth-amplification factor for the co-runners: squeezing
     * their working sets into a smaller partition converts capacity
     * misses into extra DRAM traffic. 1.0 when unpartitioned.
     *
     * @param corun_llc_mb combined co-runner working-set size.
     */
    double corunnerBwAmplification(double corun_llc_mb) const;

    /** Minimum ways that must remain for the co-runners. */
    static constexpr int minCorunnerWays = 4;

  private:
    double llcMb;
    int total;
    int svcWays;
};

} // namespace server
} // namespace pliant

#endif // PLIANT_SERVER_PARTITION_HH
