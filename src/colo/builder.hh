/**
 * @file
 * Fluent, validated construction of colocation configs.
 *
 * ConfigBuilder is the experiment-facing way to assemble a
 * ColoConfig: chained calls describe the tenants, apps, and runtime,
 * and build() runs the full up-front validation pass
 * (colo::checkConfig), so a bad config fails at build time with a
 * pointed message instead of deep inside the tick loop. Raw
 * ColoConfig structs remain valid input to colo::Engine — the
 * builder is sugar plus early errors, not a new semantic. The
 * controller's fixed constants (the 10% revert slack, the admission
 * shed and batching constants) have no setter here: they are named
 * constants in the layers that use them.
 */

#ifndef PLIANT_COLO_BUILDER_HH
#define PLIANT_COLO_BUILDER_HH

#include <string>
#include <vector>

#include "colo/engine.hh"

namespace pliant {
namespace colo {

/**
 * Builder for ColoConfig. Example:
 *
 *   ColoConfig cfg =
 *       ConfigBuilder()
 *           .service(services::ServiceKind::Memcached,
 *                    Scenario::flashCrowd(0.6, 0.95, 30 * sim::kSecond,
 *                                         3 * sim::kSecond,
 *                                         20 * sim::kSecond,
 *                                         10 * sim::kSecond))
 *           .service("nginx-edge", services::ServiceKind::Nginx,
 *                    Scenario::constant(0.65))
 *           .apps({"canneal", "bayesian"})
 *           .runtime(core::RuntimeKind::Pliant)
 *           .seed(71)
 *           .build();
 */
class ConfigBuilder
{
  public:
    ConfigBuilder() = default;

    /** Append an interactive tenant named after its kind. */
    ConfigBuilder &service(services::ServiceKind kind,
                           Scenario scenario);

    /** Append a named interactive tenant (enables same-kind shards). */
    ConfigBuilder &service(std::string name,
                           services::ServiceKind kind,
                           Scenario scenario);

    /** Append one approximate app, starting precise. */
    ConfigBuilder &app(const std::string &name);

    /** Append one approximate app pinned to a starting variant. */
    ConfigBuilder &app(const std::string &name, int initialVariant);

    /** Append several apps, all starting precise. */
    ConfigBuilder &apps(const std::vector<std::string> &names);

    ConfigBuilder &runtime(core::RuntimeKind kind);
    ConfigBuilder &arbiter(core::ArbiterKind kind);

    /** Learned runtime: vector-conditioned (default) vs worst-ratio. */
    ConfigBuilder &learnedVector(bool enable = true);
    ConfigBuilder &decisionInterval(sim::Time interval);
    ConfigBuilder &tick(sim::Time tick);
    ConfigBuilder &maxDuration(sim::Time duration);
    ConfigBuilder &seed(std::uint64_t seed);
    ConfigBuilder &spec(server::ServerSpec spec);
    ConfigBuilder &cachePartitioning(bool enable = true);

    /**
     * Table-driven samplers (NOT byte-identical; keep off for
     * golden-pinned runs).
     */
    ConfigBuilder &fastSampling(bool enable = true);

    /**
     * Enable the admission front-end with the given (possibly
     * customized) config; build() validates its fields. (Types are
     * spelled via pliant:: because the method name `admission`
     * hides the namespace inside this class scope.)
     */
    ConfigBuilder &
    admission(pliant::admission::AdmissionConfig cfg);

    /** Enable admission with the given policies, defaults elsewhere. */
    ConfigBuilder &
    admission(pliant::admission::AdmissionKind policy,
              pliant::admission::BatchingKind batching =
                  pliant::admission::BatchingKind::None);

    /**
     * Observability knobs (metrics registry, opt-in tick-phase
     * spans). Default-off; a disabled config runs the exact pre-obs
     * code path.
     */
    ConfigBuilder &observability(obs::ObsConfig cfg);

    /** Enable the metrics registry with default knobs. */
    ConfigBuilder &observability(bool metrics = true);

    /**
     * Validate and return the config. Throws util::FatalError with
     * the first problem found (duplicate tenants/apps, unknown
     * catalog names, out-of-range variants, fair-core starvation).
     */
    ColoConfig build() const;

  private:
    ColoConfig cfg;
    /** Tracks whether any app() carried an explicit variant. */
    bool anyVariantPinned = false;
};

} // namespace colo
} // namespace pliant

#endif // PLIANT_COLO_BUILDER_HH
