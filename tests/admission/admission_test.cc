/**
 * @file
 * Tests for the request-level admission control & batching
 * subsystem:
 *
 *  - AdmissionQueue unit behavior: request conservation, policy
 *    semantics (accept-all never sheds, drop-tail bounds the queue,
 *    prob-shed engages above its fill threshold, qos-shed gates on
 *    the QoS feedback and relief floor), batching amortization, and
 *    jitter determinism;
 *  - config validation (every invalid field throws);
 *  - a budget slice caps deliberate shedding under every policy;
 *  - engine integration: counters flow into ServiceReport /
 *    ServiceOutcome / the timeline, and the CSV writers grow their
 *    columns only when admission ran;
 *  - the QoS-aware placement fold: a node that only meets QoS by
 *    shedding is a migration source;
 *  - the acceptance pin: on the flash-1.15 frontier scenario,
 *    QoS-guided shedding strictly beats the approximate-only
 *    baseline on worst-service QoS *and* on app quality, without
 *    touching a single core.
 *
 * That a disabled front-end with every field set is byte-identical
 * to the default config, and reports neutral counters, is checked
 * over random configs by the equivalence harness in
 * tests/colo/builder_property_test.cc.
 */

#include "admission/admission.hh"

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "cluster/placement.hh"
#include "colo/trace.hh"
#include "util/logging.hh"

namespace {

using namespace pliant;
using admission::AdmissionConfig;
using admission::AdmissionKind;
using admission::AdmissionQueue;
using admission::BatchingKind;

constexpr sim::Time kS = sim::kSecond;
constexpr sim::Time kTick = 10 * sim::kMillisecond;

AdmissionConfig
enabledConfig(AdmissionKind policy,
              BatchingKind batching = BatchingKind::None)
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.policy = policy;
    cfg.batching = batching;
    return cfg;
}

/** A memcached-like tenant: 600k QPS saturation, 200 us QoS. */
AdmissionQueue
makeQueue(AdmissionConfig cfg, std::uint64_t seed = 7)
{
    return AdmissionQueue(cfg, 600e3, 200.0, seed);
}

TEST(AdmissionConfigTest, DisabledConfigIsNeverValidated)
{
    AdmissionConfig cfg;
    cfg.enabled = false;
    cfg.queueBoundQos = -3.0; // nonsense, but inert
    EXPECT_NO_THROW(admission::validateAdmissionConfig(cfg));
}

TEST(AdmissionConfigTest, EveryInvalidFieldThrows)
{
    const auto invalid = [](auto mutate) {
        AdmissionConfig cfg;
        cfg.enabled = true;
        mutate(cfg);
        EXPECT_THROW(admission::validateAdmissionConfig(cfg),
                     util::FatalError);
    };
    invalid([](AdmissionConfig &c) { c.queueBoundQos = 0.0; });
    invalid([](AdmissionConfig &c) { c.queueBoundQos = -1.0; });
    invalid([](AdmissionConfig &c) { c.batchSize = 0; });
    invalid([](AdmissionConfig &c) { c.batchTimeoutUs = 0.0; });
}

TEST(AdmissionQueueTest, RequestConservationHoldsOverTheRun)
{
    AdmissionQueue q = makeQueue(
        enabledConfig(AdmissionKind::DropTail));
    for (int i = 0; i < 500; ++i)
        q.tick(/*offeredLoad=*/1.3, /*capacityFraction=*/1.0, kTick);
    const admission::AdmissionStats life = q.lifetime();
    EXPECT_GT(life.arrivedRequests, 0.0);
    EXPECT_NEAR(life.arrivedRequests,
                life.shedRequests + life.dispatchedRequests +
                    q.queueDepthRequests(),
                1e-6 * life.arrivedRequests);
}

TEST(AdmissionQueueTest, AcceptAllNeverShedsAndQueuesUnbounded)
{
    AdmissionQueue q = makeQueue(
        enabledConfig(AdmissionKind::AcceptAll));
    for (int i = 0; i < 1000; ++i)
        q.tick(1.5, 1.0, kTick);
    EXPECT_EQ(q.lifetime().shedRequests, 0.0);
    // Sustained 1.5x overload against the 0.85 utilization target:
    // the backlog far exceeds any bounded policy's buffer.
    EXPECT_GT(q.queueDepthRequests(),
              10.0 * q.config().queueBoundQos * 200.0 * 1e-6 * 600e3);
}

TEST(AdmissionQueueTest, DropTailBoundsTheQueueAndShedsOverflow)
{
    AdmissionQueue q = makeQueue(
        enabledConfig(AdmissionKind::DropTail));
    for (int i = 0; i < 1000; ++i) {
        q.tick(1.5, 1.0, kTick);
        EXPECT_LE(q.queueDepthRequests(),
                  q.queueBoundRequests() + 1e-9);
    }
    EXPECT_GT(q.lifetime().shedRequests, 0.0);
}

TEST(AdmissionQueueTest, ProbabilisticShedEngagesAboveThreshold)
{
    AdmissionQueue q = makeQueue(
        enabledConfig(AdmissionKind::ProbabilisticShed));
    // Below the fill threshold nothing is deliberately shed.
    admission::AdmissionOutcome out = q.tick(0.5, 1.0, kTick);
    EXPECT_EQ(out.shedFraction, 0.0);
    // Drive the fill past the threshold, then observe shedding
    // before the buffer is anywhere near full.
    for (int i = 0; i < 200; ++i)
        out = q.tick(1.2, 1.0, kTick);
    EXPECT_GT(out.shedFraction, 0.0);
    EXPECT_LT(q.queueDepthRequests(), q.queueBoundRequests());
}

TEST(AdmissionQueueTest, ShedCapClampsProbabilisticShed)
{
    // A budget slice caps every deliberate shed, whatever the policy;
    // a slice of 0 disarms it. Only a tick that leaves the buffer full
    // may shed past the cap (drop-tail overflow). 1 ms ticks at a
    // slight overload fill the buffer over a few ticks, so the policy
    // wants to shed well before it overflows.
    constexpr sim::Time kShortTick = sim::kMillisecond;
    for (const double cap : {0.0, 0.05}) {
        AdmissionQueue capped = makeQueue(
            enabledConfig(AdmissionKind::ProbabilisticShed));
        AdmissionQueue uncapped = makeQueue(
            enabledConfig(AdmissionKind::ProbabilisticShed));
        capped.setShedCap(cap);
        bool binds = false;
        for (int i = 0; i < 300; ++i) {
            const double shed =
                capped.tick(0.95, 1.0, kShortTick).shedFraction;
            const double unclamped =
                uncapped.tick(0.95, 1.0, kShortTick).shedFraction;
            if (capped.queueDepthRequests() >= capped.queueBoundRequests())
                continue;
            EXPECT_LE(shed, cap) << "cap " << cap << ", tick " << i;
            binds |= unclamped > cap;
        }
        EXPECT_TRUE(binds) << "cap " << cap << " never bound";
    }
}

TEST(AdmissionQueueTest, QosShedGatesOnFeedbackAndReliefFloor)
{
    AdmissionQueue q = makeQueue(enabledConfig(AdmissionKind::QosShed));
    // No feedback yet: overload queues (up to the bound) but is not
    // deliberately shed.
    for (int i = 0; i < 100; ++i)
        q.tick(1.3, 1.0, kTick);
    const double shed_before = q.lifetime().shedRequests;

    // Violation, but the runtime predicts approximation will clear
    // it (floor < 1): still no deliberate shedding.
    q.onQosFeedback(/*ratio=*/1.5, /*reliefRatio=*/0.8);
    admission::AdmissionOutcome out = q.tick(1.3, 1.0, kTick);
    const double drop_tail_only =
        out.shedFraction; // bound overflow may still drop

    // Violation the predicted floor cannot clear: the gate arms and
    // the queue sheds the capacity excess.
    q.onQosFeedback(/*ratio=*/1.5, /*reliefRatio=*/1.4);
    double shed_frac = 0.0;
    for (int i = 0; i < 100; ++i)
        shed_frac = std::max(
            shed_frac, q.tick(1.3, 1.0, kTick).shedFraction);
    EXPECT_GT(shed_frac, drop_tail_only);
    EXPECT_GT(shed_frac, 0.1);
    EXPECT_GT(q.lifetime().shedRequests, shed_before);

    // Once the overload ends the gate releases: after the idle
    // window, sub-capacity arrivals are admitted untouched.
    for (int i = 0; i < 200; ++i)
        out = q.tick(0.4, 1.0, kTick);
    EXPECT_EQ(out.shedFraction, 0.0);
    EXPECT_LT(q.queueDepthRequests(), 1.0);
}

TEST(AdmissionQueueTest, BatchingAmortizationRaisesDispatchCapacity)
{
    AdmissionQueue plain = makeQueue(
        enabledConfig(AdmissionKind::AcceptAll));
    AdmissionQueue batched = makeQueue(
        enabledConfig(AdmissionKind::AcceptAll, BatchingKind::Fixed));
    for (int i = 0; i < 300; ++i) {
        plain.tick(1.4, 1.0, kTick);
        batched.tick(1.4, 1.0, kTick);
    }
    // A full fixed batch of 16 amortizes ~23% of per-request demand,
    // so the batched queue dispatches strictly more...
    EXPECT_GT(batched.lifetime().dispatchedRequests,
              1.1 * plain.lifetime().dispatchedRequests);
    EXPECT_GT(batched.lifetime().meanBatchSize, 10.0);
    EXPECT_EQ(plain.lifetime().meanBatchSize, 1.0);
    // ... while every dispatched request pays a formation wait.
    AdmissionQueue idle = makeQueue(
        enabledConfig(AdmissionKind::AcceptAll, BatchingKind::Fixed));
    const admission::AdmissionOutcome out = idle.tick(0.4, 1.0, kTick);
    EXPECT_GT(out.queueDelayUs, 0.0);
}

TEST(AdmissionQueueTest, AdaptiveBatchWaitIsTimeoutBounded)
{
    AdmissionConfig cfg =
        enabledConfig(AdmissionKind::AcceptAll, BatchingKind::Adaptive);
    cfg.batchTimeoutUs = 50.0;
    AdmissionQueue q = makeQueue(cfg);
    for (int i = 0; i < 50; ++i) {
        const admission::AdmissionOutcome out = q.tick(0.5, 1.0, kTick);
        // Sub-capacity: the only delay is the formation wait, which
        // the timeout bounds (mean wait <= timeout / 2).
        EXPECT_LE(out.queueDelayUs, cfg.batchTimeoutUs / 2.0 + 1e-9);
    }
    EXPECT_GT(q.lifetime().meanBatchSize, 1.0);
    EXPECT_LE(q.lifetime().meanBatchSize, admission::kMaxBatchSize);
}

TEST(AdmissionQueueTest, JitterIsDeterministicPerSeed)
{
    AdmissionQueue a = makeQueue(
        enabledConfig(AdmissionKind::DropTail), 42);
    AdmissionQueue b = makeQueue(
        enabledConfig(AdmissionKind::DropTail), 42);
    AdmissionQueue c = makeQueue(
        enabledConfig(AdmissionKind::DropTail), 43);
    bool differed = false;
    for (int i = 0; i < 200; ++i) {
        // Sub-capacity load: dispatch tracks the jittered arrivals
        // instead of the (seed-independent) capacity cap.
        const auto oa = a.tick(0.5, 1.0, kTick);
        const auto ob = b.tick(0.5, 1.0, kTick);
        const auto oc = c.tick(0.5, 1.0, kTick);
        EXPECT_EQ(oa.dispatchedLoad, ob.dispatchedLoad);
        EXPECT_EQ(oa.queueDelayUs, ob.queueDelayUs);
        EXPECT_EQ(oa.shedFraction, ob.shedFraction);
        differed |= oa.dispatchedLoad != oc.dispatchedLoad;
    }
    EXPECT_TRUE(differed) << "different seeds must jitter differently";
}

TEST(AdmissionQueueTest, IntervalWindowResetsWhileLifetimeAccumulates)
{
    AdmissionQueue q = makeQueue(
        enabledConfig(AdmissionKind::DropTail));
    for (int i = 0; i < 100; ++i)
        q.tick(1.2, 1.0, kTick);
    const admission::AdmissionStats first = q.closeInterval();
    EXPECT_GT(first.arrivedRequests, 0.0);
    const admission::AdmissionStats empty = q.closeInterval();
    EXPECT_EQ(empty.arrivedRequests, 0.0);
    EXPECT_EQ(empty.meanBatchSize, 1.0);
    EXPECT_GE(q.lifetime().arrivedRequests, first.arrivedRequests);
}

// --------------------------------------------------------------
// Engine integration.
// --------------------------------------------------------------

/** The frontier scenario fig_admission pins: quiet box, 1.15 crowd. */
colo::ColoConfig
frontierConfig()
{
    colo::ServiceSpec mc;
    mc.kind = services::ServiceKind::Memcached;
    mc.scenario = colo::Scenario::flashCrowd(0.45, 1.15, 10 * kS,
                                             3 * kS, 25 * kS, 5 * kS);
    colo::ServiceSpec ngx;
    ngx.kind = services::ServiceKind::Nginx;
    ngx.scenario = colo::Scenario::constant(0.45);
    colo::ColoConfig cfg = colo::makeMultiServiceConfig(
        {mc, ngx}, {"canneal", "bayesian"}, core::RuntimeKind::Pliant,
        71);
    cfg.maxDuration = 240 * kS;
    return cfg;
}

/** Run `cfg`, recording its per-interval series into `recorder`. */
colo::ColoResult
runRecorded(const colo::ColoConfig &cfg, colo::TimelineRecorder &recorder)
{
    colo::Engine engine(cfg);
    engine.setTimelineSink(&recorder);
    return engine.run();
}

TEST(AdmissionEngineTest, InvalidAdmissionConfigFailsAtConstruction)
{
    colo::ColoConfig cfg = frontierConfig();
    cfg.admission.enabled = true;
    cfg.admission.queueBoundQos = -1.0;
    EXPECT_THROW(colo::Engine engine(cfg), util::FatalError);
}

TEST(AdmissionEngineTest, CountersFlowIntoOutcomesAndTimeline)
{
    colo::ColoConfig cfg = frontierConfig();
    cfg.admission.enabled = true;
    cfg.admission.policy = AdmissionKind::QosShed;
    colo::TimelineRecorder recorder;
    const colo::ColoResult r = runRecorded(cfg, recorder);

    EXPECT_TRUE(r.admissionEnabled);
    // The crowd forces deliberate shedding on memcached...
    EXPECT_GT(r.services[0].shedFraction, 0.0);
    // ... and some timeline interval records it, with queue delay.
    bool any_shed = false, any_delay = false;
    for (const auto &tp : recorder.points) {
        for (const auto &svc : tp.services) {
            any_shed |= svc.shedFraction > 0.0;
            any_delay |= svc.queueDelayUs > 0.0;
        }
    }
    EXPECT_TRUE(any_shed);
    EXPECT_TRUE(any_delay);

    // With adaptive batching on a 120 s horizon the run lasts 3981
    // ticks.
    cfg.admission.batching = BatchingKind::Adaptive;
    cfg.maxDuration = 120 * kS;
    colo::Engine adaptive(cfg);
    adaptive.run();
    EXPECT_EQ(adaptive.now(), 3981 * cfg.tick);
}

TEST(AdmissionEngineTest, CsvColumnsAppearOnlyWhenAdmissionRan)
{
    colo::ColoConfig off = frontierConfig();
    colo::ColoConfig on = frontierConfig();
    on.admission.enabled = true;
    on.admission.policy = AdmissionKind::DropTail;

    // Timelines stream through live sinks sized from each config.
    std::ostringstream t_off, t_on, s_off, s_on;
    colo::Engine e_off(off), e_on(on);
    colo::CsvTimelineSink sink_off =
        colo::CsvTimelineSink::forConfig(t_off, off);
    colo::CsvTimelineSink sink_on =
        colo::CsvTimelineSink::forConfig(t_on, on);
    e_off.setTimelineSink(&sink_off);
    e_on.setTimelineSink(&sink_on);
    const colo::ColoResult r_off = e_off.run();
    const colo::ColoResult r_on = e_on.run();

    colo::writeSummaryCsv(s_off, r_off);
    colo::writeSummaryCsv(s_on, r_on);

    EXPECT_EQ(t_off.str().find("_shed"), std::string::npos);
    EXPECT_NE(t_on.str().find("memcached_shed"), std::string::npos);
    EXPECT_NE(t_on.str().find("nginx_qdelay_us"), std::string::npos);
    EXPECT_EQ(s_off.str().find("shed_fraction"), std::string::npos);
    EXPECT_NE(s_on.str().find("shed_fraction"), std::string::npos);
    EXPECT_NE(s_on.str().find("mean_batch_size"), std::string::npos);
}

TEST(AdmissionEngineTest, CheckConfigValidatesOnlyAnEnabledFrontEnd)
{
    colo::ColoConfig cfg = colo::makeColoConfig(
        services::ServiceKind::Memcached, {"canneal"},
        core::RuntimeKind::Pliant, 1, 0.6);
    cfg.admission.enabled = true;
    cfg.admission.policy = AdmissionKind::QosShed;
    cfg.admission.batching = BatchingKind::Adaptive;
    EXPECT_NO_THROW(colo::checkConfig(cfg));

    cfg.admission.batchSize = -2;
    EXPECT_THROW(colo::checkConfig(cfg), util::FatalError);
    // A disabled front-end is inert whatever its fields hold.
    cfg.admission.enabled = false;
    EXPECT_NO_THROW(colo::checkConfig(cfg));
}

/**
 * The acceptance pin behind fig_admission's frontier claim: on the
 * flash-1.15 scenario, QoS-guided shedding strictly beats the
 * approximate-only baseline on the worst service's QoS-met fraction
 * AND on app quality (mean inaccuracy), and does it without
 * reclaiming a single core.
 */
TEST(AdmissionEngineTest, QosShedBeatsApproximateOnlyOnTheFrontier)
{
    colo::ColoConfig base = frontierConfig();
    colo::ColoConfig shed = frontierConfig();
    shed.admission.enabled = true;
    shed.admission.policy = AdmissionKind::QosShed;

    const colo::ColoResult r_base = colo::Engine(base).run();
    const colo::ColoResult r_shed = colo::Engine(shed).run();

    const auto worst_met = [](const colo::ColoResult &r) {
        double met = 1.0;
        for (const auto &svc : r.services)
            met = std::min(met, svc.qosMetFraction);
        return met;
    };
    const auto mean_inacc = [](const colo::ColoResult &r) {
        double acc = 0.0;
        for (const auto &app : r.apps)
            acc += app.inaccuracy;
        return acc / static_cast<double>(r.apps.size());
    };

    // Equal-or-better QoS — strictly better on the worst service.
    EXPECT_GT(worst_met(r_shed), worst_met(r_base));
    // Strictly better app quality.
    EXPECT_LT(mean_inacc(r_shed), mean_inacc(r_base));
    // And the front-end carried the crowd, not the core allocator.
    EXPECT_EQ(r_shed.maxCoresReclaimedTotal, 0);
    EXPECT_GT(r_base.maxCoresReclaimedTotal, 0);
    // The win came from actually shedding part of the crowd.
    EXPECT_GT(r_shed.services[0].shedFraction, 0.05);
}

// --------------------------------------------------------------
// Placement integration: admission pressure makes sources.
// --------------------------------------------------------------

TEST(AdmissionPlacementTest, SheddingNodeBecomesMigrationSource)
{
    cluster::QosAwarePlacement policy;

    cluster::NodeStatus masked;
    masked.node = 0;
    masked.name = "masked";
    masked.worstRatio = 0.95; // under QoS — but only by shedding
    masked.admissionShedFraction = 0.4;
    cluster::AppStatus app;
    app.name = "canneal";
    app.finished = false;
    app.remainingWorkSeconds = 30.0;
    masked.apps.push_back(app);

    cluster::NodeStatus calm;
    calm.node = 1;
    calm.name = "calm";
    calm.worstRatio = 0.5;

    const auto decisions =
        policy.rebalance({masked, calm}, 10 * kS);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].app, "canneal");
    EXPECT_EQ(decisions[0].from, 0u);
    EXPECT_EQ(decisions[0].to, 1u);

    // Control: the same picture without the shed fraction is a
    // healthy node — no migration.
    cluster::QosAwarePlacement fresh;
    masked.admissionShedFraction = 0.0;
    EXPECT_TRUE(fresh.rebalance({masked, calm}, 10 * kS).empty());
}

} // namespace
