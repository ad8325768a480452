#include "colo/trace.hh"

#include <string>
#include <utility>
#include <vector>

#include "services/interactive.hh"
#include "util/table.hh"

namespace pliant {
namespace colo {

CsvTimelineSink::CsvTimelineSink(std::ostream &os,
                                 std::vector<std::string> app_columns,
                                 std::vector<std::string> service_names,
                                 double qos_us, bool admission_enabled,
                                 bool budget_enabled)
    : csv(os), columns(std::move(app_columns)), qosUs(qos_us),
      admissionEnabled(admission_enabled),
      budgetEnabled(budget_enabled)
{
    std::vector<std::string> header{"t_s",      "p99_us",
                                    "p99_over_qos", "load",
                                    "decision", "partition_ways"};
    for (const auto &name : columns) {
        header.push_back(name + "_variant");
        header.push_back(name + "_reclaimed");
    }
    for (std::size_t s = 1; s < service_names.size(); ++s) {
        header.push_back(service_names[s] + "_p99_us");
        header.push_back(service_names[s] + "_load");
    }
    if (admissionEnabled) {
        for (const auto &name : service_names) {
            header.push_back(name + "_shed");
            header.push_back(name + "_qdelay_us");
        }
    }
    if (budgetEnabled) {
        header.push_back("budget_quality_used");
        header.push_back("budget_shed_used");
        header.push_back("node_quality_slice");
        header.push_back("node_shed_slice");
    }
    csv.writeRow(header);
}

CsvTimelineSink
CsvTimelineSink::forConfig(std::ostream &os, const ColoConfig &cfg)
{
    checkConfig(cfg);
    const std::vector<ServiceSpec> &tenants = cfg.services;
    std::vector<std::string> names;
    names.reserve(tenants.size());
    for (const ServiceSpec &spec : tenants)
        names.emplace_back(spec.resolvedName());
    return CsvTimelineSink(os, cfg.apps, std::move(names),
                           services::defaultConfig(tenants[0].kind).qosUs,
                           cfg.admission.enabled, false);
}

void
CsvTimelineSink::onRoster(const RosterEvent &ev)
{
    live = ev.apps;
}

void
CsvTimelineSink::onPoint(const TimePoint &tp)
{
    // Positional variant/reclaimed slots are attributed through the
    // roster most recently received; the delivery contract (a point
    // at time t arrives before a roster event at t) means only
    // strictly earlier roster changes apply.
    const auto column_of = [&](const std::string &name) {
        for (std::size_t c = 0; c < columns.size(); ++c)
            if (columns[c] == name)
                return c;
        return columns.size(); // app without a column: not emitted
    };

    const ServicePoint &primary = tp.services[0];
    std::vector<std::string> row{
        util::fmt(sim::toSeconds(tp.t), 3),
        util::fmt(primary.p99Us, 1),
        util::fmt(primary.p99Us / qosUs, 4),
        util::fmt(primary.loadFraction, 4),
        core::decisionName(tp.decision.kind),
        std::to_string(tp.partitionWays)};
    std::vector<std::string> variant(columns.size(), "-");
    std::vector<std::string> reclaimed(columns.size(), "-");
    for (std::size_t a = 0;
         a < live.size() && a < tp.variantOf.size(); ++a) {
        const std::size_t c = column_of(live[a]);
        if (c == columns.size())
            continue;
        variant[c] = std::to_string(tp.variantOf[a]);
        reclaimed[c] = std::to_string(tp.reclaimed[a]);
    }
    for (std::size_t c = 0; c < columns.size(); ++c) {
        row.push_back(variant[c]);
        row.push_back(reclaimed[c]);
    }
    for (std::size_t s = 1; s < tp.services.size(); ++s) {
        row.push_back(util::fmt(tp.services[s].p99Us, 1));
        row.push_back(util::fmt(tp.services[s].loadFraction, 4));
    }
    if (admissionEnabled) {
        for (const auto &svc : tp.services) {
            row.push_back(util::fmt(svc.shedFraction, 4));
            row.push_back(util::fmt(svc.queueDelayUs, 1));
        }
    }
    if (budgetEnabled) {
        row.push_back(util::fmt(tp.budgetQualityUsed, 5));
        row.push_back(util::fmt(tp.budgetShedUsed, 4));
        row.push_back(util::fmt(tp.budgetQualityCap, 5));
        row.push_back(util::fmt(tp.budgetShedCap, 4));
    }
    csv.writeRow(row);
}

void
writeSummaryCsv(std::ostream &os, const ColoResult &result)
{
    util::CsvWriter csv(os);
    std::vector<std::string> header{
        "service", "runtime", "qos_us", "steady_p99_us",
        "mean_interval_p99_us", "qos_met_fraction",
        "max_cores_reclaimed", "typical_cores_reclaimed",
        "max_partition_ways", "apps", "mean_inaccuracy",
        "mean_rel_exec"};
    if (result.admissionEnabled) {
        header.push_back("shed_fraction");
        header.push_back("mean_queue_delay_us");
        header.push_back("mean_batch_size");
    }
    if (result.budgetEnabled) {
        header.push_back("budget_quality_used");
        header.push_back("budget_shed_used");
        header.push_back("node_quality_slice");
        header.push_back("node_shed_slice");
    }
    // Observability rollups follow the admission/budget only-when-on
    // column policy: a run without obs prints the exact pre-obs
    // bytes (pinned by regression tests).
    if (result.obsEnabled) {
        header.push_back("obs_ticks");
        header.push_back("obs_intervals");
        header.push_back("obs_samples");
        header.push_back("obs_actuations");
        header.push_back("obs_qos_met_intervals");
    }
    csv.writeRow(header);
    double inacc = 0.0, rel = 0.0;
    std::string apps;
    for (const auto &a : result.apps) {
        inacc += a.inaccuracy;
        rel += a.relativeExecTime;
        if (!apps.empty())
            apps += "+";
        apps += a.name;
    }
    // App-less nodes are legal cluster states: keep the per-app means
    // out of the row instead of dividing by zero and printing NaN.
    const double n = static_cast<double>(result.apps.size());
    const std::string mean_inacc =
        result.apps.empty() ? "-" : util::fmt(inacc / n, 5);
    const std::string mean_rel =
        result.apps.empty() ? "-" : util::fmt(rel / n, 4);
    for (const auto &svc : result.services) {
        std::vector<std::string> row{
            svc.name, result.runtime, util::fmt(svc.qosUs, 1),
            util::fmt(svc.steadyP99Us, 1),
            util::fmt(svc.meanIntervalP99Us, 1),
            util::fmt(svc.qosMetFraction, 4),
            std::to_string(result.maxCoresReclaimedTotal),
            std::to_string(result.typicalCoresReclaimed),
            std::to_string(result.maxPartitionWays), apps,
            mean_inacc, mean_rel};
        if (result.admissionEnabled) {
            row.push_back(util::fmt(svc.shedFraction, 4));
            row.push_back(util::fmt(svc.meanQueueDelayUs, 1));
            row.push_back(util::fmt(svc.meanBatchSize, 2));
        }
        if (result.budgetEnabled) {
            row.push_back(util::fmt(result.budgetQualityUsed, 5));
            row.push_back(util::fmt(result.budgetShedUsed, 4));
            row.push_back(util::fmt(result.budgetQualityCap, 5));
            row.push_back(util::fmt(result.budgetShedCap, 4));
        }
        if (result.obsEnabled) {
            const auto counter = [&](const char *name) {
                const obs::MetricValue *m = result.metrics.find(name);
                return std::to_string(m ? m->count : 0);
            };
            row.push_back(counter("engine.ticks"));
            row.push_back(counter("engine.intervals"));
            row.push_back(counter("engine.samples"));
            row.push_back(counter("engine.actuations"));
            row.push_back(counter("engine.qos_met_intervals"));
        }
        csv.writeRow(row);
    }
}

} // namespace colo
} // namespace pliant
