#include "core/learned.hh"

#include <algorithm>
#include <cstddef>
#include <limits>

namespace pliant {
namespace core {

namespace {

/** EWMA smoothing factor of the per-variant latency estimates. */
constexpr double kAlpha = 0.4;

/** Safety margin under QoS a learned variant must clear. */
constexpr double kMargin = 0.10;

/** One EWMA update of a model slot at variant v. */
void
observeSlot(approx::ModelSlot &slot, std::size_t v, double ratio)
{
    if (slot.samples[v] == 0)
        slot.ratio[v] = ratio;
    else
        slot.ratio[v] =
            kAlpha * ratio + (1.0 - kAlpha) * slot.ratio[v];
    ++slot.samples[v];
}

/** A zeroed slot sized for `variants` entries. */
approx::ModelSlot
emptySlot(std::string key, std::size_t variants)
{
    approx::ModelSlot slot;
    slot.key = std::move(key);
    slot.ratio.assign(variants, 0.0);
    slot.samples.assign(variants, 0);
    return slot;
}

} // namespace

LearnedRuntime::LearnedRuntime(Actuator &actuator, LearnedParams params,
                               std::uint64_t seed)
    : act(actuator), prm(params), rng(seed)
{
    models.resize(static_cast<std::size_t>(act.taskCount()));
    for (int t = 0; t < act.taskCount(); ++t)
        models[static_cast<std::size_t>(t)].worst =
            emptySlot("", variantCountOf(t));
    rrPointer = act.taskCount() > 0
        ? static_cast<int>(rng.uniformInt(
              static_cast<std::uint64_t>(act.taskCount())))
        : 0;
}

std::size_t
LearnedRuntime::variantCountOf(int t) const
{
    return static_cast<std::size_t>(act.mostApproxOf(t)) + 1;
}

void
LearnedRuntime::onTaskRemoved(int idx)
{
    models.erase(models.begin() + idx);
    adjustCursorAfterRemoval(rrPointer, idx, act.taskCount());
}

void
LearnedRuntime::onTaskAdded(const approx::TaskState &state)
{
    // The migrant keeps the model it learned on the source node:
    // slots are keyed by service name, so estimates transfer exactly
    // to same-named tenants here and stay dormant (relearned lazily)
    // for tenants this node does not host. Slots whose variant count
    // does not match the catalog are dropped defensively.
    TaskModel model;
    const int t = act.taskCount() - 1;
    const std::size_t variants = variantCountOf(t);
    model.worst = emptySlot("", variants);
    for (const approx::ModelSlot &slot : state.runtimeModel) {
        if (slot.ratio.size() != variants ||
            slot.samples.size() != variants)
            continue;
        if (slot.key.empty())
            model.worst = slot;
        else
            model.slots.push_back(slot);
    }
    models.push_back(std::move(model));
}

void
LearnedRuntime::exportModel(int idx, approx::TaskState &state) const
{
    const TaskModel &model = models[static_cast<std::size_t>(idx)];
    state.runtimeModel.clear();
    state.runtimeModel.push_back(model.worst);
    for (const approx::ModelSlot &slot : model.slots)
        state.runtimeModel.push_back(slot);
}

approx::ModelSlot &
LearnedRuntime::slotFor(TaskModel &model, const std::string &service,
                        std::size_t variants)
{
    for (approx::ModelSlot &slot : model.slots)
        if (slot.key == service)
            return slot;
    model.slots.push_back(emptySlot(service, variants));
    return model.slots.back();
}

const approx::ModelSlot *
LearnedRuntime::findSlot(const TaskModel &model,
                         const std::string &service) const
{
    for (const approx::ModelSlot &slot : model.slots)
        if (slot.key == service)
            return &slot;
    return nullptr;
}

double
LearnedRuntime::estimate(int task, int variant) const
{
    return models[static_cast<std::size_t>(task)]
        .worst.ratio[static_cast<std::size_t>(variant)];
}

bool
LearnedRuntime::explored(int task, int variant) const
{
    return models[static_cast<std::size_t>(task)]
               .worst.samples[static_cast<std::size_t>(variant)] > 0;
}

double
LearnedRuntime::estimate(int task, int variant,
                         const std::string &service) const
{
    const approx::ModelSlot *slot =
        findSlot(models[static_cast<std::size_t>(task)], service);
    return slot ? slot->ratio[static_cast<std::size_t>(variant)] : 0.0;
}

bool
LearnedRuntime::explored(int task, int variant,
                         const std::string &service) const
{
    const approx::ModelSlot *slot =
        findSlot(models[static_cast<std::size_t>(task)], service);
    return slot &&
           slot->samples[static_cast<std::size_t>(variant)] > 0;
}

void
LearnedRuntime::observe(const std::vector<ServiceReport> &services)
{
    const double worst = worstRatio(services);
    for (int t = 0; t < act.taskCount(); ++t) {
        if (act.taskFinished(t))
            continue;
        auto &model = models[static_cast<std::size_t>(t)];
        const std::size_t v =
            static_cast<std::size_t>(act.variantOf(t));
        observeSlot(model.worst, v, worst);
        if (!prm.vectorConditioned)
            continue;
        const std::size_t variants = variantCountOf(t);
        for (const ServiceReport &svc : services)
            observeSlot(slotFor(model, svc.name, variants), v,
                        svc.ratio());
    }
}

double
LearnedRuntime::predictedMaxRatio(int t, int v, bool &known) const
{
    const TaskModel &model = models[static_cast<std::size_t>(t)];
    const std::size_t vi = static_cast<std::size_t>(v);
    double worst = 0.0;
    known = true;
    for (const std::string &svc : serviceNames) {
        const approx::ModelSlot *slot = findSlot(model, svc);
        if (!slot || slot->samples[vi] == 0) {
            known = false;
            continue;
        }
        worst = std::max(worst, slot->ratio[vi]);
    }
    return worst;
}

Decision
LearnedRuntime::onInterval(const std::vector<ServiceReport> &services)
{
    ++intervalCount;
    // Tenant names are fixed for a run; refresh the cached list only
    // if the vector actually changed (cheap compares, no steady-state
    // allocations).
    bool namesChanged = serviceNames.size() != services.size();
    for (std::size_t s = 0; !namesChanged && s < services.size(); ++s)
        namesChanged = serviceNames[s] != services[s].name;
    if (namesChanged) {
        serviceNames.clear();
        for (const ServiceReport &svc : services)
            serviceNames.push_back(svc.name);
    }
    vectorActive = prm.vectorConditioned && services.size() > 1;

    const double ratio = worstRatio(services);
    observe(services);

    if (ratio > 1.0) {
        slackStreak = 0;
        return vectorActive ? escalateVector() : escalate();
    }
    const double slack = 1.0 - ratio;
    if (slack > kSlackThreshold) {
        if (++slackStreak >= prm.revertHysteresis) {
            slackStreak = 0;
            return vectorActive ? deescalateVector() : deescalate();
        }
    } else {
        slackStreak = 0;
    }
    return Decision{};
}

double
LearnedRuntime::qualityInUse() const
{
    double in_use = 0.0;
    for (int t = 0; t < act.taskCount(); ++t)
        if (!act.taskFinished(t))
            in_use += act.inaccuracyOf(t);
    return in_use;
}

int
LearnedRuntime::effectiveMost(int t) const
{
    const int most = act.mostApproxOf(t);
    if (qualityCap < 0.0)
        return most; // unlimited: the full catalog is in play
    const int cur = act.variantOf(t);
    const double headroom = qualityCap - qualityInUse();
    const double current = act.inaccuracyOf(t);
    // Variants are ordered toward more approximation; the bound is
    // the last consecutive one whose additional inaccuracy fits.
    int eff = cur;
    for (int v = cur + 1; v <= most; ++v) {
        if (act.inaccuracyAt(t, v) - current > headroom)
            break;
        eff = v;
    }
    return eff;
}

Decision
LearnedRuntime::reclaimAny()
{
    // Everyone at most-approximate: reclaim cores, Pliant-style.
    const int n = act.taskCount();
    for (int i = 0; i < n; ++i) {
        const int t = (rrPointer + i) % n;
        if (!act.taskFinished(t) && act.reclaimCore(t)) {
            rrPointer = (t + 1) % n;
            return {Decision::Kind::ReclaimCore, t};
        }
    }
    return Decision{};
}

Decision
LearnedRuntime::escalate()
{
    const double target = 1.0 - kMargin;
    const int n = act.taskCount();
    for (int i = 0; i < n; ++i) {
        const int t = (rrPointer + i) % n;
        if (act.taskFinished(t))
            continue;
        const int cur = act.variantOf(t);
        // The search is bounded by the budget slice: under an
        // unlimited cap this is the catalog's most approximate
        // variant, byte-identical to the ungated controller.
        const int most = effectiveMost(t);
        if (cur >= most)
            continue;

        // Prefer the least-approximate *learned-safe* variant deeper
        // than the current one; fall back to probing the next
        // unexplored step.
        int choice = -1;
        for (int v = cur + 1; v <= most; ++v) {
            if (explored(t, v) && estimate(t, v) <= target) {
                choice = v;
                break;
            }
        }
        if (choice < 0) {
            // No known-safe deeper variant: probe the next step (if
            // unexplored) or jump to the deepest unexplored one.
            choice = cur + 1;
            while (choice < most && explored(t, choice) &&
                   estimate(t, choice) > target) {
                ++choice;
            }
        }
        act.switchVariant(t, choice);
        rrPointer = (t + 1) % n;
        return {Decision::Kind::SwitchToMost, t};
    }
    return reclaimAny();
}

Decision
LearnedRuntime::escalateVector()
{
    const double target = 1.0 - kMargin;
    const int n = act.taskCount();
    for (int i = 0; i < n; ++i) {
        const int t = (rrPointer + i) % n;
        if (act.taskFinished(t))
            continue;
        const int cur = act.variantOf(t);
        // Budget-bounded like the scalar path: candidates beyond the
        // node's quality slice are never considered.
        const int most = effectiveMost(t);
        if (cur >= most)
            continue;

        // 1. The least-approximate deeper variant whose learned
        //    per-service vector clears the target on EVERY tenant —
        //    all-tenant slack, not worst-case-mixture slack.
        int choice = -1;
        for (int v = cur + 1; v <= most; ++v) {
            bool known = false;
            if (predictedMaxRatio(t, v, known) <= target && known) {
                choice = v;
                break;
            }
        }
        if (choice < 0) {
            // 2. Probe the shallowest deeper variant any tenant has
            //    not observed yet.
            int probe = cur + 1;
            bool known = false;
            while (probe < most) {
                predictedMaxRatio(t, probe, known);
                if (!known)
                    break;
                ++probe;
            }
            predictedMaxRatio(t, probe, known);
            if (!known) {
                choice = probe;
            } else {
                // 3. Fully learned and nothing clears the target:
                //    take the variant minimizing the predicted
                //    max-ratio over the tenant vector.
                double best = std::numeric_limits<double>::max();
                for (int v = cur + 1; v <= most; ++v) {
                    const double pred =
                        predictedMaxRatio(t, v, known);
                    if (pred < best) {
                        best = pred;
                        choice = v;
                    }
                }
            }
        }
        act.switchVariant(t, choice);
        rrPointer = (t + 1) % n;
        return {Decision::Kind::SwitchToMost, t};
    }
    return reclaimAny();
}

Decision
LearnedRuntime::deescalate()
{
    const double target = 1.0 - kMargin;
    const int n = act.taskCount();

    // Cores first, mirroring Pliant's revert ordering.
    for (int i = 0; i < n; ++i) {
        const int t = (rrPointer + i) % n;
        if (!act.taskFinished(t) && act.reclaimedFrom(t) > 0 &&
            act.returnCore(t)) {
            rrPointer = (t + 1) % n;
            return {Decision::Kind::ReturnCore, t};
        }
    }

    // Step toward precise only when the shallower variant is either
    // unexplored (optimistic probe) or learned to be safe.
    for (int i = 0; i < n; ++i) {
        const int t = (rrPointer + i) % n;
        if (act.taskFinished(t))
            continue;
        const int cur = act.variantOf(t);
        if (cur == 0)
            continue;
        const int next = cur - 1;
        if (!explored(t, next) || estimate(t, next) <= target) {
            act.switchVariant(t, next);
            rrPointer = (t + 1) % n;
            return {Decision::Kind::StepDown, t};
        }
    }
    return Decision{};
}

Decision
LearnedRuntime::deescalateVector()
{
    const double target = 1.0 - kMargin;
    const int n = act.taskCount();

    // Cores first, mirroring Pliant's revert ordering.
    for (int i = 0; i < n; ++i) {
        const int t = (rrPointer + i) % n;
        if (!act.taskFinished(t) && act.reclaimedFrom(t) > 0 &&
            act.returnCore(t)) {
            rrPointer = (t + 1) % n;
            return {Decision::Kind::ReturnCore, t};
        }
    }

    // Step toward precise only when the shallower variant is an
    // optimistic probe (some tenant never saw it) or its learned
    // per-service vector clears the target on every tenant. The
    // scalar model would happily step down into a variant that is
    // fine for the tenant that dominated the worst-ratio mixture but
    // known-bad for another.
    for (int i = 0; i < n; ++i) {
        const int t = (rrPointer + i) % n;
        if (act.taskFinished(t))
            continue;
        const int cur = act.variantOf(t);
        if (cur == 0)
            continue;
        const int next = cur - 1;
        bool known = false;
        const double pred = predictedMaxRatio(t, next, known);
        if (!known || pred <= target) {
            act.switchVariant(t, next);
            rrPointer = (t + 1) % n;
            return {Decision::Kind::StepDown, t};
        }
    }
    return Decision{};
}

void
LearnedRuntime::reliefPredictions(std::vector<ServiceRelief> &out) const
{
    // For every *hosted* service the models have data on: the lowest
    // learned ratio reachable by deepening any single unfinished
    // task from its current variant (the single-lever optimistic
    // floor — task interactions are not modeled, consistent with the
    // rest of the controller). Dormant slots a migrant carried in
    // for services this node does not host are skipped: publishing
    // them would make the placement layer read another node's past
    // pressure as this node's floor.
    // The first `n` entries are this call's; the ones past them are
    // reused in place (names assigned into their existing strings),
    // so a caller's buffer stops allocating once it has held every
    // hosted service.
    std::size_t n = 0;
    for (int t = 0; t < act.taskCount(); ++t) {
        if (act.taskFinished(t))
            continue;
        const TaskModel &model = models[static_cast<std::size_t>(t)];
        const int cur = act.variantOf(t);
        const int most = act.mostApproxOf(t);
        for (const approx::ModelSlot &slot : model.slots) {
            if (std::find(serviceNames.begin(), serviceNames.end(),
                          slot.key) == serviceNames.end())
                continue;
            double best = std::numeric_limits<double>::max();
            for (int v = cur; v <= most; ++v) {
                const std::size_t vi = static_cast<std::size_t>(v);
                if (slot.samples[vi] > 0)
                    best = std::min(best, slot.ratio[vi]);
            }
            if (best == std::numeric_limits<double>::max())
                continue;
            const auto end = out.begin() + static_cast<std::ptrdiff_t>(n);
            auto it = std::find_if(out.begin(), end,
                                   [&](const ServiceRelief &r) {
                                       return r.service == slot.key;
                                   });
            if (it != end) {
                it->predictedRatio =
                    std::min(it->predictedRatio, best);
            } else if (n < out.size()) {
                out[n].service = slot.key;
                out[n].predictedRatio = best;
                ++n;
            } else {
                out.push_back({slot.key, best});
                ++n;
            }
        }
    }
    out.resize(n);
}

} // namespace core
} // namespace pliant
