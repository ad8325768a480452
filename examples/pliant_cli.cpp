/**
 * @file
 * Command-line driver: run any colocation from the shell and export
 * CSV traces, the way a downstream user scripts parameter studies.
 *
 * Usage:
 *   pliant_cli [--service nginx|memcached|mongodb]
 *              [--services nginx,memcached,...]
 *              [--scenario constant|diurnal|flash|step|trace:<file>]
 *              [--apps canneal,bayesian,...]
 *              [--runtime precise|pliant|learned]
 *              [--learned-scalar]
 *              [--load 0.78] [--interval-s 1.0] [--seed 1]
 *              [--cache-partitioning] [--csv timeline|summary]
 *              [--nodes N] [--placement static|least-loaded|qos-aware]
 *              [--epoch-s 5.0]
 *              [--admission accept-all|drop-tail|prob-shed|qos-shed]
 *              [--batching none|fixed:<N>|adaptive:<usec>]
 *              [--queue-bound-qos F]
 *              [--quality-budget F] [--shed-budget F]
 *              [--budget-policy uniform|proportional|learned]
 *              [--trace-out FILE] [--metrics-out FILE]
 *              [--metrics-summary]
 *              [--list-apps]
 *
 * --services runs a multi-service colocation (one tenant per listed
 * service) in place of the one --service tenant; giving both, or an
 * empty list or item in --services/--apps, prints the usage line and
 * exits 2. --scenario applies the named deterministic load pattern
 * (default parameters, around --load) to every tenant;
 * `trace:<file>` replays a piecewise-linear (t_seconds,load) CSV.
 * --learned-scalar drops the learned runtime back to the collapsed
 * worst-ratio model (the ablation baseline for the vector-conditioned
 * per-service model that is the default).
 * --nodes N > 1 runs a cluster: every node hosts the service list,
 * and --placement decides where the apps land (and, for qos-aware,
 * whether they migrate at --epoch-s boundaries). --placement and
 * --epoch-s without --nodes N > 1 are an error, as is --csv with it.
 * --admission / --batching enable the request-level admission
 * front-end on every tenant: queueing delay composes into the
 * monitored tails, shed/batch counters appear in the tables and CSV
 * exports, and --queue-bound-qos sizes the queue in multiples of
 * each service's QoS target.
 * --quality-budget / --shed-budget / --budget-policy enable the
 * cluster-wide budget controller (requires --nodes N > 1): at every
 * epoch barrier the cluster splits the global quality-loss and shed
 * budgets into per-node caps that gate runtime escalation and
 * admission shedding.
 * --trace-out exports a Chrome trace_event JSON (load it in
 * ui.perfetto.dev or chrome://tracing) of decision intervals, epoch
 * barriers, actuation/migration/budget events; --metrics-out writes
 * the deterministic metrics registry as pliant-metrics-v1 JSON and
 * --metrics-summary prints it as a table. All three leave the
 * simulation outputs byte-identical to a run without them.
 * Numeric values are parsed strictly (util::parseFlag): an empty,
 * non-numeric, negative or out-of-range value prints the usage line
 * and exits 2.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "approx/profile.hh"
#include "budget/budget.hh"
#include "cluster/cluster.hh"
#include "colo/engine.hh"
#include "colo/trace.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace pliant;

namespace {

std::string
usageLine(const char *argv0)
{
    return std::string("usage: ") + argv0 +
           " [--service nginx|memcached|mongodb]"
           " [--services a,b,...]"
           " [--scenario constant|diurnal|flash|step|trace:<file>]"
           " [--apps a,b,...] [--runtime precise|pliant|learned]"
           " [--learned-scalar]"
           " [--load F] [--interval-s S] [--seed N]"
           " [--cache-partitioning] [--csv timeline|summary]"
           " [--nodes N] [--placement static|least-loaded|qos-aware]"
           " [--epoch-s S]"
           " [--admission accept-all|drop-tail|prob-shed|qos-shed]"
           " [--batching none|fixed:<N>|adaptive:<usec>]"
           " [--queue-bound-qos F]"
           " [--quality-budget F] [--shed-budget F]"
           " [--budget-policy uniform|proportional|learned]"
           " [--trace-out FILE] [--metrics-out FILE]"
           " [--metrics-summary]"
           " [--list-apps]";
}

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << usageLine(argv0) << '\n';
    std::exit(2);
}

admission::AdmissionKind
parseAdmission(const std::string &s, const char *argv0)
{
    if (s == "accept-all")
        return admission::AdmissionKind::AcceptAll;
    if (s == "drop-tail")
        return admission::AdmissionKind::DropTail;
    if (s == "prob-shed")
        return admission::AdmissionKind::ProbabilisticShed;
    if (s == "qos-shed")
        return admission::AdmissionKind::QosShed;
    usage(argv0);
}

/** `none`, `fixed:<N>`, or `adaptive:<timeout_us>`. */
void
parseBatching(const std::string &s, admission::AdmissionConfig &cfg,
              const char *argv0)
{
    if (s == "none") {
        cfg.batching = admission::BatchingKind::None;
        return;
    }
    // Exact name, or name:<param> — anything else (fixed=32,
    // fixed:, adaptiveXYZ) is a usage error, not a silent fallback
    // to the default parameter.
    if (s == "fixed" || s.rfind("fixed:", 0) == 0) {
        cfg.batching = admission::BatchingKind::Fixed;
        if (s.size() > 6)
            cfg.batchSize = util::parseFlag("--batching", s.substr(6),
                                            usageLine(argv0), 1);
        else if (s.size() == 6)
            usage(argv0);
        return;
    }
    if (s == "adaptive" || s.rfind("adaptive:", 0) == 0) {
        cfg.batching = admission::BatchingKind::Adaptive;
        if (s.size() > 9)
            cfg.batchTimeoutUs = util::parseFlag(
                "--batching", s.substr(9), usageLine(argv0), 0.0);
        else if (s.size() == 9)
            usage(argv0);
        return;
    }
    usage(argv0);
}

services::ServiceKind
parseService(const std::string &s, const char *argv0)
{
    if (s == "nginx")
        return services::ServiceKind::Nginx;
    if (s == "memcached")
        return services::ServiceKind::Memcached;
    if (s == "mongodb")
        return services::ServiceKind::MongoDb;
    usage(argv0);
}

budget::BudgetPolicy
parseBudgetPolicy(const std::string &s, const char *argv0)
{
    try {
        return budget::parsePolicy(s);
    } catch (const util::FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        usage(argv0);
    }
}

cluster::PlacementKind
parsePlacement(const std::string &s, const char *argv0)
{
    if (s == "static")
        return cluster::PlacementKind::Static;
    if (s == "least-loaded")
        return cluster::PlacementKind::LeastLoaded;
    if (s == "qos-aware")
        return cluster::PlacementKind::QosAware;
    usage(argv0);
}

/** Named scenario preset with default excursion parameters. */
colo::Scenario
parseScenario(const std::string &s, double base, const char *argv0)
{
    const sim::Time sec = sim::kSecond;
    if (s.rfind("trace:", 0) == 0)
        return colo::Scenario::traceFromCsvFile(s.substr(6));
    if (s == "constant")
        return colo::Scenario::constant(base);
    if (s == "diurnal")
        return colo::Scenario::diurnal(base, 0.25, 240 * sec);
    if (s == "flash")
        // The crowd must always be an upward excursion, even when
        // --load already sits near saturation.
        return colo::Scenario::flashCrowd(
            base, std::max(0.95, base + 0.15), 60 * sec, 5 * sec,
            30 * sec, 20 * sec);
    if (s == "step")
        return colo::Scenario::step(base, std::min(base + 0.2, 1.0),
                                    60 * sec);
    usage(argv0);
}

/** Write the folded metrics snapshot and/or print it as a table. */
void
exportMetrics(const obs::MetricsSnapshot &snap,
              const std::string &metrics_out, bool metrics_summary)
{
    if (!metrics_out.empty()) {
        std::ofstream os(metrics_out);
        if (!os)
            util::fatal("cannot open --metrics-out file '",
                        metrics_out, "'");
        obs::writeMetricsJson(os, snap);
    }
    if (metrics_summary) {
        std::cout << '\n';
        obs::metricsTable(snap).print(std::cout);
    }
}

/** Open the --trace-out stream (throws on failure). */
std::unique_ptr<std::ofstream>
openTraceStream(const std::string &path)
{
    auto os = std::make_unique<std::ofstream>(path);
    if (!*os)
        util::fatal("cannot open --trace-out file '", path, "'");
    return os;
}

/**
 * Split a --services/--apps comma list. An empty list or item ("",
 * ",", "a,,b", "a,") is an error that prints the usage line, never
 * a silently shorter list.
 */
std::vector<std::string>
splitCsvList(const std::string &flag, const std::string &arg,
             const char *argv0)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = arg.find(',', start);
        out.push_back(arg.substr(start, comma - start));
        if (out.back().empty()) {
            std::cerr << "error: " << flag << " '" << arg
                      << "' has an empty item\n";
            usage(argv0);
        }
        if (comma == std::string::npos)
            return out;
        start = comma + 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    colo::ColoConfig cfg;
    cfg.apps = {"canneal"};
    std::string csv_mode;
    // --service/--load name the paper's one tenant; --services lists
    // several instead. Either way they become cfg.services below.
    services::ServiceKind service = services::ServiceKind::Memcached;
    bool service_flag = false;
    double load = colo::ColoConfig::loadFraction;
    std::vector<services::ServiceKind> multi;
    std::string scenario = "constant";
    std::size_t nodes = 1;
    cluster::PlacementKind placement = cluster::PlacementKind::Static;
    sim::Time epoch = 5 * sim::kSecond;
    bool cluster_flags = false; // --placement or --epoch-s given
    budget::BudgetConfig budget_cfg;
    std::string trace_out;
    std::string metrics_out;
    bool metrics_summary = false;
    const std::string usage_line = usageLine(argv[0]);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--service") {
            service = parseService(next(), argv[0]);
            service_flag = true;
        } else if (arg == "--services") {
            for (const auto &name : splitCsvList(arg, next(), argv[0]))
                multi.push_back(parseService(name, argv[0]));
        } else if (arg == "--scenario") {
            scenario = next();
        } else if (arg == "--apps") {
            cfg.apps = splitCsvList(arg, next(), argv[0]);
        } else if (arg == "--runtime") {
            const std::string r = next();
            if (r == "precise")
                cfg.runtime = core::RuntimeKind::Precise;
            else if (r == "pliant")
                cfg.runtime = core::RuntimeKind::Pliant;
            else if (r == "learned")
                cfg.runtime = core::RuntimeKind::Learned;
            else
                usage(argv[0]);
        } else if (arg == "--learned-scalar") {
            cfg.learnedVector = false;
        } else if (arg == "--load") {
            load = util::parseFlag(arg, next(), usage_line, 0.0);
        } else if (arg == "--interval-s") {
            cfg.decisionInterval =
                sim::fromSeconds(util::parseFlag(arg, next(),
                                                 usage_line, 0.0));
        } else if (arg == "--seed") {
            cfg.seed =
                util::parseFlag<std::uint64_t>(arg, next(), usage_line);
        } else if (arg == "--cache-partitioning") {
            cfg.enableCachePartitioning = true;
        } else if (arg == "--nodes") {
            nodes =
                util::parseFlag<std::size_t>(arg, next(), usage_line, 1);
        } else if (arg == "--placement") {
            cluster_flags = true;
            placement = parsePlacement(next(), argv[0]);
        } else if (arg == "--epoch-s") {
            cluster_flags = true;
            epoch = sim::fromSeconds(
                util::parseFlag(arg, next(), usage_line, 0.0));
        } else if (arg == "--admission") {
            cfg.admission.enabled = true;
            cfg.admission.policy = parseAdmission(next(), argv[0]);
        } else if (arg == "--batching") {
            cfg.admission.enabled = true;
            parseBatching(next(), cfg.admission, argv[0]);
        } else if (arg == "--queue-bound-qos") {
            cfg.admission.enabled = true;
            cfg.admission.queueBoundQos =
                util::parseFlag(arg, next(), usage_line, 0.0);
        } else if (arg == "--quality-budget") {
            budget_cfg.enabled = true;
            budget_cfg.qualityBudget =
                util::parseFlag(arg, next(), usage_line, 0.0);
        } else if (arg == "--shed-budget") {
            budget_cfg.enabled = true;
            budget_cfg.shedBudget =
                util::parseFlag(arg, next(), usage_line, 0.0);
        } else if (arg == "--budget-policy") {
            budget_cfg.enabled = true;
            budget_cfg.policy = parseBudgetPolicy(next(), argv[0]);
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--metrics-out") {
            metrics_out = next();
        } else if (arg == "--metrics-summary") {
            metrics_summary = true;
        } else if (arg == "--csv") {
            csv_mode = next();
            if (csv_mode != "timeline" && csv_mode != "summary")
                usage(argv[0]);
        } else if (arg == "--list-apps") {
            for (const auto &name : approx::catalogNames())
                std::cout << name << '\n';
            return 0;
        } else {
            usage(argv[0]);
        }
    }

    // Metrics exports need the registry; tracing alone does not.
    if (!metrics_out.empty() || metrics_summary)
        cfg.observability.metrics = true;

    if (service_flag && !multi.empty()) {
        std::cerr << "error: --service and --services are exclusive; "
                     "list every tenant in --services\n";
        usage(argv[0]);
    }

    // The tenant list: one tenant per --services entry (or the one
    // --service), each driven by --scenario around --load.
    try {
        if (multi.empty())
            multi.push_back(service);
        for (auto kind : multi)
            cfg.services.push_back(
                {kind, parseScenario(scenario, load, argv[0])});
    } catch (const util::FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        return 1;
    }

    // Cluster mode: every node hosts the assembled service list; the
    // placement policy spreads the apps (and, for qos-aware, may
    // migrate them at epoch boundaries).
    if (budget_cfg.enabled && nodes <= 1) {
        std::cerr << "error: --quality-budget/--shed-budget/"
                     "--budget-policy are cluster features; pass "
                     "--nodes N with N > 1\n";
        return 2;
    }
    if (cluster_flags && nodes <= 1) {
        std::cerr << "error: --placement/--epoch-s are cluster "
                     "features; pass --nodes N with N > 1\n";
        return 2;
    }
    if (nodes > 1) {
        if (!csv_mode.empty()) {
            std::cerr << "error: --csv is a single-node feature\n";
            return 2;
        }
        try {
            // Every node runs the single-node settings; the cluster
            // adds the nodes, placement, epoch and budgets.
            cluster::ClusterConfig ccfg;
            static_cast<colo::RunConfig &>(ccfg) = cfg;
            cluster::NodeSpec node;
            node.services = cfg.services;
            ccfg.nodes.assign(nodes, node);
            ccfg.placement = placement;
            ccfg.epoch = epoch;
            ccfg.budget = budget_cfg;
            cluster::Cluster cl(std::move(ccfg));
            std::unique_ptr<std::ofstream> trace_os;
            std::unique_ptr<obs::TraceWriter> tracer;
            if (!trace_out.empty()) {
                trace_os = openTraceStream(trace_out);
                tracer =
                    std::make_unique<obs::TraceWriter>(*trace_os);
                cl.setTraceWriter(tracer.get());
            }
            const cluster::ClusterResult r = cl.run();
            if (tracer)
                tracer->finish();
            if (!metrics_out.empty())
                exportMetrics(r.metrics, metrics_out, false);

            std::cout << nodes << "-node cluster under " << r.runtime
                      << " runtime, " << r.placement
                      << " placement\n\n";
            cluster::clusterTable({"cluster"}, {r})
                .print(std::cout);
            std::cout << '\n';
            util::TextTable t({"node", "apps", "worst p99/QoS",
                               "met%", "cores"});
            for (const auto &node : r.nodes) {
                std::string apps;
                for (const auto &app : node.result.apps) {
                    if (!apps.empty())
                        apps += "+";
                    apps += app.name;
                }
                double worst = 0.0;
                double met = 0.0;
                for (const auto &svc : node.result.services) {
                    worst = std::max(
                        worst, svc.meanIntervalP99Us / svc.qosUs);
                    met += svc.qosMetFraction;
                }
                met /= static_cast<double>(
                    node.result.services.size());
                t.addRow({node.name, apps.empty() ? "-" : apps,
                          util::fmt(worst, 2) + "x",
                          util::fmtPct(met, 0),
                          std::to_string(
                              node.result.maxCoresReclaimedTotal)});
            }
            t.print(std::cout);
            for (const auto &mig : r.migrations)
                std::cout << "migration: " << mig.app << " "
                          << r.nodes[mig.from].name << " -> "
                          << r.nodes[mig.to].name << " at t="
                          << util::fmt(sim::toSeconds(mig.t), 1)
                          << " s\n";
            if (r.budgetEnabled)
                std::cout << "budget: policy=" << r.budgetPolicy
                          << " quality_used="
                          << util::fmt(r.budgetQualityUsed, 4)
                          << " shed_used="
                          << util::fmt(r.budgetShedUsed, 4) << '\n';
            if (metrics_summary)
                exportMetrics(r.metrics, "", true);
        } catch (const util::FatalError &err) {
            std::cerr << "error: " << err.what() << '\n';
            return 1;
        }
        return 0;
    }

    try {
        colo::Engine exp(cfg);
        std::unique_ptr<std::ofstream> trace_os;
        std::unique_ptr<obs::TraceWriter> tracer;
        if (!trace_out.empty()) {
            trace_os = openTraceStream(trace_out);
            tracer = std::make_unique<obs::TraceWriter>(*trace_os);
            exp.setTrace(tracer.get());
        }
        // The timeline streams to stdout as intervals close. Its sink
        // writes the header on construction, so it comes after every
        // step that can fail before the run.
        std::unique_ptr<colo::CsvTimelineSink> timeline;
        if (csv_mode == "timeline") {
            timeline = std::make_unique<colo::CsvTimelineSink>(
                colo::CsvTimelineSink::forConfig(std::cout, cfg));
            exp.setTimelineSink(timeline.get());
        }
        const colo::ColoResult r = exp.run();
        if (tracer)
            tracer->finish();
        if (!metrics_out.empty())
            exportMetrics(r.metrics, metrics_out, false);

        if (csv_mode == "timeline")
            return 0;
        if (csv_mode == "summary") {
            colo::writeSummaryCsv(std::cout, r);
            return 0;
        }

        const colo::ServiceOutcome &primary = r.services[0];
        std::cout << primary.name << " + ";
        for (std::size_t i = 0; i < r.apps.size(); ++i)
            std::cout << (i ? "+" : "") << r.apps[i].name;
        std::cout << " under " << r.runtime << " runtime\n\n";
        util::TextTable t({"metric", "value"});
        t.addRow({"QoS target",
                  util::fmt(primary.qosUs / 1000.0, 3) + " ms"});
        t.addRow({"steady p99 / QoS",
                  util::fmt(primary.steadyP99Us / primary.qosUs, 2) +
                      "x"});
        t.addRow({"interval-mean p99 / QoS",
                  util::fmt(primary.meanIntervalP99Us / primary.qosUs,
                            2) +
                      "x"});
        t.addRow({"intervals meeting QoS",
                  util::fmtPct(primary.qosMetFraction, 0)});
        t.addRow({"cores reclaimed (max/typical)",
                  std::to_string(r.maxCoresReclaimedTotal) + " / " +
                      std::to_string(r.typicalCoresReclaimed)});
        t.addRow({"LLC ways isolated (max)",
                  std::to_string(r.maxPartitionWays)});
        for (std::size_t s = 1; s < r.services.size(); ++s) {
            const auto &svc = r.services[s];
            t.addRow({svc.name + " p99 / QoS",
                      util::fmt(svc.meanIntervalP99Us / svc.qosUs, 2) +
                          "x"});
            t.addRow({svc.name + " intervals meeting QoS",
                      util::fmtPct(svc.qosMetFraction, 0)});
        }
        if (r.admissionEnabled) {
            for (const auto &svc : r.services) {
                t.addRow({svc.name + " requests shed",
                          util::fmtPct(svc.shedFraction, 2)});
                t.addRow({svc.name + " mean queue delay",
                          util::fmt(svc.meanQueueDelayUs, 1) + " us"});
                t.addRow({svc.name + " mean batch size",
                          util::fmt(svc.meanBatchSize, 1)});
            }
        }
        for (const auto &app : r.apps) {
            t.addRow({app.name + " inaccuracy",
                      util::fmtPct(app.inaccuracy, 2)});
            t.addRow({app.name + " rel. exec time",
                      util::fmt(app.relativeExecTime, 2)});
        }
        t.print(std::cout);
        if (metrics_summary)
            exportMetrics(r.metrics, "", true);
    } catch (const util::FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        return 1;
    }
    return 0;
}
