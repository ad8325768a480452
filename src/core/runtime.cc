#include "core/runtime.hh"

#include <algorithm>
#include <cstring>
#include <limits>

namespace pliant {
namespace core {

namespace {

/** Cap of the backed-off revert streak (see RuntimeParams). */
constexpr int kMaxRevertStreak = 16;

/** Consecutive met intervals that decay the streak by one. */
constexpr int kDecayInterval = 12;

} // namespace

double
worstRatio(const std::vector<ServiceReport> &services)
{
    double worst = 0.0;
    for (const auto &svc : services)
        worst = std::max(worst, svc.ratio());
    return worst;
}

Decision
Runtime::onInterval(double p99_us, double qos_us)
{
    std::vector<ServiceReport> one(1);
    one[0].interval.p99Us = p99_us;
    one[0].qosUs = qos_us;
    return onInterval(one);
}

const char *
decisionEventName(Decision::Kind kind)
{
    switch (kind) {
    case Decision::Kind::None:
        return "decision:none";
    case Decision::Kind::SwitchToMost:
        return "decision:switch-to-most";
    case Decision::Kind::ReclaimCore:
        return "decision:reclaim-core";
    case Decision::Kind::ReturnCore:
        return "decision:return-core";
    case Decision::Kind::StepDown:
        return "decision:step-down";
    case Decision::Kind::GrowPartition:
        return "decision:grow-partition";
    case Decision::Kind::ShrinkPartition:
        return "decision:shrink-partition";
    }
    return "decision:unknown";
}

std::string
decisionName(Decision::Kind kind)
{
    // The event name without its "decision:" prefix.
    return decisionEventName(kind) + std::strlen("decision:");
}

PliantRuntime::PliantRuntime(Actuator &actuator, RuntimeParams params,
                             std::uint64_t seed)
    : act(actuator), prm(params), rng(seed)
{
    // First victim is selected randomly (Section 4.4); subsequent
    // selections proceed round-robin from there.
    rrPointer = act.taskCount() > 0
        ? static_cast<int>(rng.uniformInt(
              static_cast<std::uint64_t>(act.taskCount())))
        : 0;
    requiredStreak = prm.revertHysteresis;
}

Decision
PliantRuntime::onInterval(const std::vector<ServiceReport> &services)
{
    ++sinceRevert;
    // The control signal is the *most violated* service's normalized
    // tail: any tenant above its QoS puts the whole box in violation,
    // and reverts need slack on every tenant at once. With a single
    // service this degenerates to the paper's p99-vs-QoS comparison.
    const double ratio = worstRatio(services);

    // Evaluate the outcome of a partition grow from the previous
    // interval: if latency did not improve meaningfully, growing the
    // partition is futile for this workload (the contention is not
    // LLC-bound) and the violation path falls through to cores.
    if (ratioAtLastGrow >= 0.0) {
        if (ratio > 0.97 * ratioAtLastGrow)
            ++futileGrows;
        else
            futileGrows = 0;
        ratioAtLastGrow = -1.0;
    }
    lastRatio = ratio;

    if (ratio > 1.0) {
        slackStreak = 0;
        metStreak = 0;
        // A violation right after a revert means the reverted state
        // was not actually safe: back off before trying again.
        if (sinceRevert <= prm.punishWindow) {
            requiredStreak =
                std::min(requiredStreak * 2, kMaxRevertStreak);
        }
        return actOnViolation();
    }

    if (++metStreak >= kDecayInterval) {
        metStreak = 0;
        requiredStreak =
            std::max(prm.revertHysteresis, requiredStreak - 1);
    }

    const double slack = 1.0 - ratio;
    if (slack > kSlackThreshold) {
        if (++slackStreak >= requiredStreak) {
            slackStreak = 0;
            const Decision d = actOnSlack();
            if (d.kind != Decision::Kind::None)
                sinceRevert = 0;
            return d;
        }
        return Decision{};
    }
    slackStreak = 0;
    return Decision{};
}

void
adjustCursorAfterRemoval(int &cursor, int removed_idx, int task_count)
{
    if (cursor > removed_idx)
        --cursor;
    if (task_count == 0)
        cursor = 0;
    else if (cursor >= task_count)
        cursor %= task_count;
}

void
PliantRuntime::onTaskRemoved(int idx)
{
    adjustCursorAfterRemoval(rrPointer, idx, act.taskCount());
}

double
PliantRuntime::qualityInUse() const
{
    double in_use = 0.0;
    for (int t = 0; t < act.taskCount(); ++t)
        if (!act.taskFinished(t))
            in_use += act.inaccuracyOf(t);
    return in_use;
}

int
PliantRuntime::affordableTarget(int t) const
{
    if (act.taskFinished(t))
        return -1;
    const int cur = act.variantOf(t);
    const int most = act.mostApproxOf(t);
    if (cur >= most)
        return -1;
    if (qualityCap < 0.0)
        return most; // unlimited: the paper's jump-to-most
    // The deepest variant whose *additional* inaccuracy still fits
    // under the node's quality slice. Variants are ordered toward
    // more approximation, so the scan stops at the first one that
    // does not fit.
    const double headroom = qualityCap - qualityInUse();
    const double current = act.inaccuracyOf(t);
    int target = -1;
    for (int v = cur + 1; v <= most; ++v) {
        if (act.inaccuracyAt(t, v) - current > headroom)
            break;
        target = v;
    }
    return target;
}

bool
PliantRuntime::canEscalate(int t) const
{
    return affordableTarget(t) >= 0;
}

bool
PliantRuntime::canReclaim(int t) const
{
    // Only reclaim from fully-approximated, still-running tasks.
    return !act.taskFinished(t) &&
           act.variantOf(t) == act.mostApproxOf(t);
}

bool
PliantRuntime::canReclaimAny(int t) const
{
    // Budget-blocked fallback: when the quality cap forbids the
    // approximation that would normally precede core reclamation,
    // any unfinished task is a donor (reclaimCore still refuses at
    // the task's minimum).
    return !act.taskFinished(t);
}

bool
PliantRuntime::canReturn(int t) const
{
    return !act.taskFinished(t) && act.reclaimedFrom(t) > 0;
}

bool
PliantRuntime::canStepDown(int t) const
{
    return !act.taskFinished(t) && act.variantOf(t) > 0;
}

int
PliantRuntime::nextTask(int &pointer,
                        bool (PliantRuntime::*eligible)(int) const) const
{
    const int n = act.taskCount();
    for (int i = 0; i < n; ++i) {
        const int t = (pointer + i) % n;
        if ((this->*eligible)(t)) {
            pointer = (t + 1) % n;
            return t;
        }
    }
    return -1;
}

int
PliantRuntime::pickEscalationTarget()
{
    if (prm.arbiter == ArbiterKind::RoundRobin)
        return nextTask(rrPointer, &PliantRuntime::canEscalate);

    // Impact-aware: maximize contention relief per unit quality loss.
    int best = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    for (int t = 0; t < act.taskCount(); ++t) {
        if (!canEscalate(t))
            continue;
        const double cost = std::max(act.qualityCost(t), 1e-9);
        const double score = act.reliefPotential(t) / cost;
        if (score > best_score) {
            best_score = score;
            best = t;
        }
    }
    return best;
}

int
PliantRuntime::pickReclaimTarget(bool relaxed)
{
    const auto eligible = relaxed ? &PliantRuntime::canReclaimAny
                                  : &PliantRuntime::canReclaim;
    if (prm.arbiter == ArbiterKind::RoundRobin)
        return nextTask(rrPointer, eligible);

    // Impact-aware: reclaim from the task currently exerting the
    // least relief potential (its approximation helped least, so its
    // cores are the cheapest contention fix).
    int best = -1;
    double best_score = std::numeric_limits<double>::infinity();
    for (int t = 0; t < act.taskCount(); ++t) {
        if (!(this->*eligible)(t))
            continue;
        const double score = act.reliefPotential(t);
        if (score < best_score) {
            best_score = score;
            best = t;
        }
    }
    return best;
}

Decision
PliantRuntime::actOnViolation()
{
    // First line of defense: approximation. Any task not yet at its
    // most approximate variant is escalated straight there — or, under
    // a binding quality cap, to the deepest variant the node's budget
    // slice affords.
    const int victim = pickEscalationTarget();
    if (victim >= 0) {
        act.switchVariant(victim, affordableTarget(victim));
        return {Decision::Kind::SwitchToMost, victim};
    }

    // Cache-trading extension: before taking cores, try to isolate
    // one more LLC way for the interactive service — but only while
    // growing keeps helping (two non-improving grows in a row stop
    // the episode; core reclamation takes over).
    if (prm.enableCachePartitioning && futileGrows < 2 &&
        act.growServicePartition()) {
        ratioAtLastGrow = lastRatio;
        return {Decision::Kind::GrowPartition, -1};
    }

    // All tasks fully approximated: reclaim one core per interval.
    // Under a binding quality cap "fully approximated" may be
    // unreachable, so the budget-gated path relaxes the donor
    // condition: cores are the lever the budget does not ration.
    const int donor = pickReclaimTarget(/*relaxed=*/qualityCap >= 0.0);
    if (donor >= 0 && act.reclaimCore(donor))
        return {Decision::Kind::ReclaimCore, donor};
    return Decision{};
}

Decision
PliantRuntime::actOnSlack()
{
    // Revert in reverse order: return reclaimed cores first, ...
    const int receiver = nextTask(rrPointer, &PliantRuntime::canReturn);
    if (receiver >= 0 && act.returnCore(receiver))
        return {Decision::Kind::ReturnCore, receiver};

    // ... then release isolated LLC ways, ...
    if (prm.enableCachePartitioning && act.servicePartitionWays() > 0 &&
        act.shrinkServicePartition()) {
        futileGrows = 0; // fresh episode next time
        return {Decision::Kind::ShrinkPartition, -1};
    }

    // ... then step approximation back toward precise, one variant
    // per interval, so the minimum quality is sacrificed.
    const int beneficiary =
        nextTask(rrPointer, &PliantRuntime::canStepDown);
    if (beneficiary >= 0) {
        act.switchVariant(beneficiary, act.variantOf(beneficiary) - 1);
        return {Decision::Kind::StepDown, beneficiary};
    }
    return Decision{};
}

} // namespace core
} // namespace pliant
