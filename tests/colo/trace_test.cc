/**
 * @file
 * Tests for the CSV trace exporter and the partition/learned runtime
 * integration through the colocation harness.
 */

#include "colo/trace.hh"

#include <sstream>

#include <gtest/gtest.h>

#include "colo/engine.hh"

namespace {

using namespace pliant;
using namespace pliant::colo;

ColoConfig
sampleConfig(core::RuntimeKind kind = core::RuntimeKind::Pliant,
             bool partitioning = false)
{
    ColoConfig cfg = makeColoConfig(services::ServiceKind::Memcached,
                                    {"canneal"}, kind, 33);
    cfg.enableCachePartitioning = partitioning;
    return cfg;
}

ColoResult
sampleRun(core::RuntimeKind kind = core::RuntimeKind::Pliant,
          bool partitioning = false)
{
    Engine exp(sampleConfig(kind, partitioning));
    return exp.run();
}

/** Timeline CSV text of one run of `cfg`, streamed by a live sink. */
std::string
timelineCsv(const ColoConfig &cfg)
{
    Engine engine(cfg);
    std::ostringstream os;
    CsvTimelineSink sink = CsvTimelineSink::forConfig(os, cfg);
    engine.setTimelineSink(&sink);
    engine.run();
    return os.str();
}

TEST(TraceTest, TimelineCsvHasHeaderAndRows)
{
    const ColoConfig cfg = sampleConfig();
    std::istringstream is(timelineCsv(cfg));
    std::string header;
    std::getline(is, header);
    EXPECT_NE(header.find("t_s"), std::string::npos);
    EXPECT_NE(header.find("canneal_variant"), std::string::npos);
    std::size_t rows = 0;
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            ++rows;

    // One row per point the same run delivers to a recorder.
    Engine engine(cfg);
    TimelineRecorder recorder;
    engine.setTimelineSink(&recorder);
    engine.run();
    EXPECT_EQ(rows, recorder.points.size());
    EXPECT_GT(rows, 0u);
}

TEST(TraceTest, AttachingASinkSendsTheLiveRoster)
{
    // A sink attached mid-run gets one roster event (now, live apps)
    // and then only the points that close after it.
    const sim::Time s = sim::kSecond;
    ColoConfig cfg = sampleConfig();
    cfg.apps = {"canneal", "bayesian"};
    Engine engine(cfg);
    engine.advanceUntil(3 * s);
    TimelineRecorder recorder;
    engine.setTimelineSink(&recorder);
    ASSERT_EQ(recorder.rosters.size(), 1u);
    EXPECT_EQ(recorder.rosters[0].t, 3 * s);
    EXPECT_EQ(recorder.rosters[0].apps, cfg.apps);
    engine.advanceUntil(6 * s);
    ASSERT_EQ(recorder.points.size(), 3u);
    EXPECT_EQ(recorder.points.front().t, 4 * s);
    EXPECT_EQ(recorder.rosters.size(), 1u);
}

TEST(TraceTest, SummaryCsvRoundTripsKeyFields)
{
    const ColoResult r = sampleRun();
    std::ostringstream os;
    writeSummaryCsv(os, r);
    const std::string out = os.str();
    EXPECT_NE(out.find("memcached"), std::string::npos);
    EXPECT_NE(out.find("pliant"), std::string::npos);
    EXPECT_NE(out.find("canneal"), std::string::npos);
}

TEST(TraceTest, MultiAppColumnsPerApp)
{
    const ColoConfig cfg = makeColoConfig(
        services::ServiceKind::Nginx, {"canneal", "bayesian"},
        core::RuntimeKind::Pliant, 34);
    std::istringstream is(timelineCsv(cfg));
    std::string header;
    std::getline(is, header);
    EXPECT_NE(header.find("canneal_variant"), std::string::npos);
    EXPECT_NE(header.find("bayesian_variant"), std::string::npos);
    EXPECT_NE(header.find("bayesian_reclaimed"), std::string::npos);
}

TEST(TraceTest, SummaryCsvForAppLessNodeHasNoNan)
{
    // Zero-app engines are legal cluster states (a node can host
    // only services); the per-app means must print "-" instead of
    // dividing by zero and emitting "-nan".
    ColoConfig cfg;
    ServiceSpec svc;
    svc.kind = services::ServiceKind::Memcached;
    svc.scenario = Scenario::constant(0.6);
    cfg.services = {svc};
    cfg.apps = {};
    cfg.seed = 35;
    Engine exp(cfg);
    exp.advanceUntil(30 * sim::kSecond,
                     /*keep_services_running=*/true);
    const ColoResult r = exp.finalize();
    EXPECT_TRUE(r.apps.empty());

    std::ostringstream os;
    writeSummaryCsv(os, r);
    const std::string out = os.str();
    EXPECT_EQ(out.find("nan"), std::string::npos) << out;
    EXPECT_EQ(out.find("inf"), std::string::npos) << out;
    EXPECT_NE(out.find(",-,-"), std::string::npos) << out;
}

// The two runs below pin the full timeline CSV text byte for byte:
// every column family the sink writes (per app, per extra service,
// admission) and the exact formatting of each value.

TEST(TraceTest, TimelineCsvBytesArePinned)
{
    ColoConfig cfg = makeColoConfig(services::ServiceKind::Memcached,
                                    {"canneal"},
                                    core::RuntimeKind::Pliant, 37);
    cfg.maxDuration = 12 * sim::kSecond;
    EXPECT_EQ(timelineCsv(cfg),
        "t_s,p99_us,p99_over_qos,load,decision,partition_ways,"
        "canneal_variant,canneal_reclaimed\n"
        "1.000,1616.2,8.0812,0.8142,switch-to-most,0,4,0\n"
        "2.000,1239.7,6.1984,0.7855,reclaim-core,0,4,1\n"
        "3.000,139.0,0.6952,0.7693,none,0,4,1\n"
        "4.000,153.1,0.7655,0.8006,return-core,0,4,0\n"
        "5.000,367.6,1.8378,0.7732,reclaim-core,0,4,1\n"
        "6.000,127.5,0.6374,0.7958,none,0,4,1\n"
        "7.000,129.3,0.6467,0.7635,none,0,4,1\n"
        "8.000,133.7,0.6686,0.7720,none,0,4,1\n"
        "9.000,132.9,0.6647,0.7503,return-core,0,4,0\n"
        "10.000,206.5,1.0327,0.7639,reclaim-core,0,4,1\n"
        "11.000,139.1,0.6953,0.7963,none,0,4,1\n"
        "12.000,134.3,0.6716,0.7726,none,0,4,1\n");
}

TEST(TraceTest, AdmissionTimelineCsvBytesArePinned)
{
    // Two tenants (per-service columns) behind a QosShed front-end
    // (per-service shed and queue-delay columns), with a crowd early
    // enough in the 12 s run to make the admission columns move.
    const sim::Time s = sim::kSecond;
    ServiceSpec mc, ngx;
    mc.kind = services::ServiceKind::Memcached;
    mc.scenario =
        Scenario::flashCrowd(0.45, 1.15, 3 * s, 1 * s, 5 * s, 2 * s);
    ngx.kind = services::ServiceKind::Nginx;
    ngx.scenario = Scenario::constant(0.45);
    ColoConfig cfg = makeMultiServiceConfig(
        {mc, ngx}, {"canneal", "bayesian"}, core::RuntimeKind::Pliant, 38);
    cfg.admission.enabled = true;
    cfg.admission.policy = admission::AdmissionKind::QosShed;
    cfg.maxDuration = 12 * s;
    EXPECT_EQ(timelineCsv(cfg),
        "t_s,p99_us,p99_over_qos,load,decision,partition_ways,"
        "canneal_variant,canneal_reclaimed,bayesian_variant,"
        "bayesian_reclaimed,nginx_p99_us,nginx_load,memcached_shed,"
        "memcached_qdelay_us,nginx_shed,nginx_qdelay_us\n"
        "1.000,117.8,0.5888,0.4690,none,0,0,0,0,0,7171.0,0.4581,"
        "0.0000,0.0,0.0000,0.0\n"
        "2.000,108.9,0.5444,0.4457,none,0,0,0,0,0,6706.9,0.4144,"
        "0.0000,0.0,0.0000,0.0\n"
        "3.000,109.7,0.5487,0.4898,none,0,0,0,0,0,6151.3,0.4495,"
        "0.0000,0.0,0.0000,0.0\n"
        "4.000,844.2,4.2212,0.5904,switch-to-most,0,4,0,0,0,6368.8,"
        "0.4267,0.2786,537.7,0.0000,0.0\n"
        "5.000,656.1,3.2807,0.5971,switch-to-most,0,4,0,8,0,6850.5,"
        "0.4511,0.4725,128.2,0.0000,0.0\n"
        "6.000,175.9,0.8793,0.6211,none,0,4,0,8,0,6482.8,0.4140,"
        "0.4520,0.7,0.0000,0.0\n"
        "7.000,178.4,0.8921,0.6525,step-down,0,3,0,8,0,6580.1,0.4660,"
        "0.4469,0.0,0.0000,0.0\n"
        "8.000,163.3,0.8163,0.6347,none,0,3,0,8,0,6296.1,0.4677,"
        "0.4582,0.0,0.0000,0.0\n"
        "9.000,176.2,0.8811,0.6296,step-down,0,3,0,7,0,6345.6,0.4524,"
        "0.4554,0.0,0.0000,0.0\n"
        "10.000,163.6,0.8181,0.6178,none,0,3,0,7,0,6260.4,0.4479,"
        "0.3654,0.0,0.0000,0.0\n"
        "11.000,142.3,0.7114,0.4465,step-down,0,2,0,7,0,6138.5,"
        "0.4254,0.0784,0.0,0.0000,0.0\n"
        "12.000,127.3,0.6365,0.4697,none,0,2,0,7,0,5784.0,0.4362,"
        "0.0000,0.0,0.0000,0.0\n");
}

TEST(PartitionIntegrationTest, PartitioningPrecedesCoreReclamation)
{
    const ColoResult with = sampleRun(core::RuntimeKind::Pliant, true);
    // Canneal + memcached needs more than approximation; with the
    // cache extension the runtime grows the partition, so ways are
    // used and fewer (or equal) cores are taken.
    const ColoResult without =
        sampleRun(core::RuntimeKind::Pliant, false);
    EXPECT_GT(with.maxPartitionWays, 0);
    EXPECT_LE(with.maxCoresReclaimedTotal,
              without.maxCoresReclaimedTotal);
    EXPECT_EQ(without.maxPartitionWays, 0);
}

TEST(PartitionIntegrationTest, PartitionedRunStillMeetsQos)
{
    // NGINX is the LLC-sensitive service here, so cache isolation is
    // an effective lever for it (for memcached the runtime's
    // futility detection falls through to cores instead).
    ColoConfig cfg = makeColoConfig(services::ServiceKind::Nginx,
                                    {"canneal"},
                                    core::RuntimeKind::Pliant, 33);
    cfg.enableCachePartitioning = true;
    Engine exp(cfg);
    const ColoResult r = exp.run();
    EXPECT_LE(r.services[0].meanIntervalP99Us, 1.10 * r.services[0].qosUs);
    EXPECT_GT(r.maxPartitionWays, 0);
}

TEST(LearnedIntegrationTest, LearnedRuntimeControlsTheColocation)
{
    const ColoResult r = sampleRun(core::RuntimeKind::Learned);
    EXPECT_EQ(r.runtime, "learned");
    // The learner must actuate (switches happen) and keep quality
    // within the catalog budget.
    EXPECT_GT(r.apps[0].switches, 0);
    EXPECT_LE(r.apps[0].inaccuracy, 0.06);
    // And it should do clearly better than the precise baseline.
    const ColoResult precise = sampleRun(core::RuntimeKind::Precise);
    EXPECT_LT(r.services[0].steadyP99Us, precise.services[0].steadyP99Us);
}

TEST(LearnedIntegrationTest, LearnedSacrificesLessQualityThanPliant)
{
    // After convergence the learner picks the minimal adequate
    // variant instead of jumping to most-approximate, so across an
    // easy colocation its quality loss should not exceed Pliant's by
    // much (and is typically lower).
    const ColoConfig base = [] {
        return makeColoConfig(services::ServiceKind::MongoDb,
                              {"bayesian"}, core::RuntimeKind::Pliant,
                              35);
    }();
    ColoConfig pl = base;
    pl.runtime = core::RuntimeKind::Pliant;
    ColoConfig ln = base;
    ln.runtime = core::RuntimeKind::Learned;
    Engine pe(pl), le(ln);
    const double pliant_inacc = pe.run().apps[0].inaccuracy;
    const double learned_inacc = le.run().apps[0].inaccuracy;
    EXPECT_LE(learned_inacc, pliant_inacc + 0.01);
}

TEST(TraceTest, MultiServiceTimelineAddsPerServiceColumns)
{
    const sim::Time s = sim::kSecond;
    ColoConfig cfg = makeMultiServiceConfig(
        {{services::ServiceKind::Memcached, Scenario::constant(0.7)},
         {services::ServiceKind::Nginx,
          Scenario::flashCrowd(0.6, 0.9, 20 * s, 2 * s, 10 * s,
                               5 * s)}},
        {"canneal", "bayesian"}, core::RuntimeKind::Pliant, 36);
    cfg.maxDuration = 60 * s;
    Engine exp(cfg);
    std::ostringstream os;
    CsvTimelineSink sink = CsvTimelineSink::forConfig(os, cfg);
    exp.setTimelineSink(&sink);
    const ColoResult r = exp.run();

    std::istringstream is(os.str());
    std::string header;
    std::getline(is, header);
    // Base columns still describe the primary service (exact header
    // prefix — a bare find() would also match "nginx_p99_us")...
    EXPECT_EQ(header.rfind("t_s,p99_us,", 0), 0u);
    // ... and the secondary service gets its own series.
    EXPECT_NE(header.find("nginx_p99_us"), std::string::npos);
    EXPECT_NE(header.find("nginx_load"), std::string::npos);

    std::ostringstream sum;
    writeSummaryCsv(sum, r);
    std::istringstream sis(sum.str());
    std::string line;
    std::size_t rows = 0;
    std::getline(sis, line); // header
    while (std::getline(sis, line))
        if (!line.empty())
            ++rows;
    // One summary row per interactive service.
    EXPECT_EQ(rows, 2u);
    EXPECT_NE(sum.str().find("memcached"), std::string::npos);
    EXPECT_NE(sum.str().find("nginx"), std::string::npos);
}

} // namespace
