#include "colo/trace.hh"

#include <string>
#include <vector>

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
    // at time t arrives before a roster event at t) makes this match
    // the retained-replay rule "only strictly earlier roster changes
    // apply".
    const auto column_of = [&](const std::string &name) {
        for (std::size_t c = 0; c < columns.size(); ++c)
            if (columns[c] == name)
                return c;
        return columns.size(); // app without a column: not emitted
    };

    std::vector<std::string> row{
        util::fmt(sim::toSeconds(tp.t), 3),
        util::fmt(tp.p99Us, 1),
        util::fmt(tp.p99Us / qosUs, 4),
        util::fmt(tp.loadFraction, 4),
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
writeTimelineCsv(std::ostream &os, const ColoResult &result)
{
    // The per-app columns cover every app that was ever live on this
    // node, in first-appearance order. Without migrations this is
    // exactly result.apps and the output is unchanged; with them,
    // each row's positional variant/reclaimed slots are attributed
    // through the roster active at that row's time, and apps not
    // present at that instant print "-". A replay knows the full
    // roster history up front, so unlike a live sink it never drops
    // a late-arriving app's columns.
    std::vector<std::string> columns;
    const auto column_of = [&](const std::string &name) {
        for (std::size_t c = 0; c < columns.size(); ++c)
            if (columns[c] == name)
                return c;
        columns.push_back(name);
        return columns.size() - 1;
    };
    std::vector<RosterEvent> rosters = result.rosterChanges;
    if (rosters.empty()) {
        // Results predating roster tracking: the final app list was
        // the only roster.
        RosterEvent ev;
        for (const auto &app : result.apps)
            ev.apps.push_back(app.name);
        rosters.push_back(std::move(ev));
    }
    for (const auto &ev : rosters)
        for (const auto &name : ev.apps)
            column_of(name);

    std::vector<std::string> service_names;
    service_names.reserve(result.services.size());
    for (const auto &svc : result.services)
        service_names.push_back(svc.name);

    CsvTimelineSink sink(os, columns, service_names, result.qosUs,
                         result.admissionEnabled,
                         result.budgetEnabled);
    std::size_t roster = 0;
    sink.onRoster(rosters[0]);
    for (const auto &tp : result.timeline) {
        // Points are recorded before the epoch barrier that
        // migrates, so only strictly earlier roster changes apply.
        while (roster + 1 < rosters.size() &&
               rosters[roster + 1].t < tp.t) {
            ++roster;
            sink.onRoster(rosters[roster]);
        }
        sink.onPoint(tp);
    }
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
