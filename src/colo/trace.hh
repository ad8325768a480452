/**
 * @file
 * Trace export: a run's per-interval timeline and its summary as CSV,
 * so external plotting tools can regenerate the paper's figures from
 * the same data the text benches print. The timeline writer is
 * CsvTimelineSink, a TimelineSink attached to a live Engine (or a
 * cluster node) that writes each row as its interval closes.
 */

#ifndef PLIANT_COLO_TRACE_HH
#define PLIANT_COLO_TRACE_HH

#include <ostream>
#include <string>
#include <vector>

#include "colo/engine.hh"
#include "util/table.hh"

namespace pliant {
namespace colo {

/**
 * TimelineSink that writes the per-interval timeline as CSV, one row
 * per interval close. Columns: t_s, p99_us, p99_over_qos, load,
 * decision, partition_ways, then per app: <name>_variant,
 * <name>_reclaimed, and per additional service: <name>_p99_us,
 * <name>_load. The base p99/load columns always read the primary
 * service, `TimePoint::services[0]`. With `admission_enabled`, per
 * service: <name>_shed, <name>_qdelay_us; with `budget_enabled`:
 * budget_quality_used, budget_shed_used, node_quality_slice,
 * node_shed_slice.
 *
 * The header is written at construction (so even a zero-interval run
 * yields a well-formed file), which fixes the column set up front:
 * pass every app name that may ever run on the node in `app_columns`
 * (first-appearance order). Roster events attribute each row's
 * positional variant/reclaimed slots by name, so an app not live at
 * that row prints "-"; an app attached at runtime that is not in
 * `app_columns` never gets a column, since a CSV header cannot be
 * widened retroactively.
 *
 * Attach via Engine::setTimelineSink() (or
 * cluster::Cluster::setTimelineSink()) before advancing the clock to
 * capture the full series.
 */
class CsvTimelineSink : public TimelineSink
{
  public:
    CsvTimelineSink(std::ostream &os,
                    std::vector<std::string> app_columns,
                    std::vector<std::string> service_names,
                    double qos_us, bool admission_enabled,
                    bool budget_enabled);

    /**
     * The sink for a single-node run of `cfg`: columns = cfg.apps,
     * the validated tenant names, the primary service's QoS target,
     * admission columns when cfg.admission.enabled, no budget
     * columns. Throws util::FatalError on an invalid config.
     */
    static CsvTimelineSink forConfig(std::ostream &os,
                                     const ColoConfig &cfg);

    void onRoster(const RosterEvent &ev) override;
    void onPoint(const TimePoint &tp) override;

  private:
    util::CsvWriter csv;
    std::vector<std::string> columns;
    std::vector<std::string> live;
    double qosUs;
    bool admissionEnabled;
    bool budgetEnabled;
};

/**
 * Write the experiment summary as CSV (with header): one row per
 * interactive service, so a single-service run stays a single row.
 * Admission-enabled runs append shed_fraction,
 * mean_queue_delay_us, and mean_batch_size columns. App-less nodes
 * (legal cluster states) print "-" for the per-app means instead of
 * dividing by zero.
 */
void writeSummaryCsv(std::ostream &os, const ColoResult &result);

} // namespace colo
} // namespace pliant

#endif // PLIANT_COLO_TRACE_HH
