#include "colo/builder.hh"

#include "util/logging.hh"

namespace pliant {
namespace colo {

ConfigBuilder &
ConfigBuilder::service(services::ServiceKind kind, Scenario scenario)
{
    return service("", kind, std::move(scenario));
}

ConfigBuilder &
ConfigBuilder::service(std::string name, services::ServiceKind kind,
                       Scenario scenario)
{
    ServiceSpec spec;
    spec.kind = kind;
    spec.scenario = std::move(scenario);
    spec.name = std::move(name);
    cfg.services.push_back(std::move(spec));
    return *this;
}

ConfigBuilder &
ConfigBuilder::app(const std::string &name)
{
    cfg.apps.push_back(name);
    cfg.initialVariants.push_back(0);
    return *this;
}

ConfigBuilder &
ConfigBuilder::app(const std::string &name, int initialVariant)
{
    cfg.apps.push_back(name);
    cfg.initialVariants.push_back(initialVariant);
    anyVariantPinned = true;
    return *this;
}

ConfigBuilder &
ConfigBuilder::apps(const std::vector<std::string> &names)
{
    for (const auto &name : names)
        app(name);
    return *this;
}

ConfigBuilder &
ConfigBuilder::runtime(core::RuntimeKind kind)
{
    cfg.runtime = kind;
    return *this;
}

ConfigBuilder &
ConfigBuilder::arbiter(core::ArbiterKind kind)
{
    cfg.arbiter = kind;
    return *this;
}

ConfigBuilder &
ConfigBuilder::learnedVector(bool enable)
{
    cfg.learnedVector = enable;
    return *this;
}

ConfigBuilder &
ConfigBuilder::decisionInterval(sim::Time interval)
{
    cfg.decisionInterval = interval;
    return *this;
}

ConfigBuilder &
ConfigBuilder::tick(sim::Time tick)
{
    cfg.tick = tick;
    return *this;
}

ConfigBuilder &
ConfigBuilder::maxDuration(sim::Time duration)
{
    cfg.maxDuration = duration;
    return *this;
}

ConfigBuilder &
ConfigBuilder::seed(std::uint64_t seed)
{
    cfg.seed = seed;
    return *this;
}

ConfigBuilder &
ConfigBuilder::spec(server::ServerSpec spec)
{
    cfg.spec = std::move(spec);
    return *this;
}

ConfigBuilder &
ConfigBuilder::cachePartitioning(bool enable)
{
    cfg.enableCachePartitioning = enable;
    return *this;
}

ConfigBuilder &
ConfigBuilder::fastSampling(bool enable)
{
    cfg.fastSampling = enable;
    return *this;
}

ConfigBuilder &
ConfigBuilder::admission(pliant::admission::AdmissionConfig admission_cfg)
{
    cfg.admission = std::move(admission_cfg);
    cfg.admission.enabled = true;
    return *this;
}

ConfigBuilder &
ConfigBuilder::admission(pliant::admission::AdmissionKind policy,
                         pliant::admission::BatchingKind batching)
{
    cfg.admission.enabled = true;
    cfg.admission.policy = policy;
    cfg.admission.batching = batching;
    return *this;
}

ConfigBuilder &
ConfigBuilder::observability(obs::ObsConfig obs_cfg)
{
    cfg.observability = obs_cfg;
    return *this;
}

ConfigBuilder &
ConfigBuilder::observability(bool metrics)
{
    cfg.observability.metrics = metrics;
    return *this;
}

ColoConfig
ConfigBuilder::build() const
{
    ColoConfig built = cfg;
    // An all-precise variant list is the engine's default; only keep
    // the list when a caller actually pinned something, so built
    // configs stay byte-identical to hand-written ones.
    if (!anyVariantPinned)
        built.initialVariants.clear();
    // checkConfig covers timing (positivity, interval >= tick) as
    // of the tick-loop-safety pass, so raw structs and built configs
    // fail with the same messages.
    checkConfig(built);
    return built;
}

} // namespace colo
} // namespace pliant
