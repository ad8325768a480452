/**
 * @file
 * Layer probes: each one drives a single public function of one
 * src/ module with inputs generated for a workload's shape and
 * reports its host time per call. They run only in the traced pass.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "admission/admission.hh"
#include "budget/budget.hh"
#include "server/spec.hh"
#include "services/interactive.hh"
#include "sim/time.hh"

namespace perfbench {

/** Per-layer metric values by name. */
using Layers = std::map<std::string, double>;

/** One tenant of a node, as the probes see it. */
struct TenantShape
{
    pliant::services::ServiceKind kind;
    double load = 0.0;
};

/** The shape of one node of a workload, plus its cluster context. */
struct Shape
{
    std::vector<TenantShape> tenants;
    std::vector<std::string> apps;
    pliant::sim::Time tick = 0;
    pliant::sim::Time interval = 0;
    std::size_t nodes = 1;
    /** The workload's front-end; a default QosShed one if disabled. */
    pliant::admission::AdmissionConfig admission;
    /** The workload's budgets; a default Proportional one if disabled. */
    pliant::budget::BudgetConfig budget;
    pliant::server::ServerSpec spec;
    std::uint64_t seed = 1;
};

/**
 * Run every probe at `shape` and add its metrics to `out`:
 * core.close_interval_us, core.observe_ns, services.tick_ns,
 * util.lognormal_ns_per_sample, server.contention_multi_ns,
 * admission.tick_ns, budget.allocate_us and cluster.rebalance_us.
 * `all_apps` are the workload's apps, spread round-robin over the
 * nodes for the placement probe.
 */
void runProbes(const Shape &shape,
               const std::vector<std::string> &all_apps, Layers &out);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
