/**
 * @file
 * Streaming Chrome trace_event writer: the span-tracing half of the
 * observability subsystem.
 *
 * Events are written as a JSON array of trace_event objects —
 * loadable directly in Perfetto (ui.perfetto.dev) or
 * chrome://tracing. Timestamps are SIMULATED microseconds
 * (sim::Time already counts µs), so the span layout of a run is
 * deterministic: the same config produces the same trace at any
 * thread count, modulo the interleaving of events from different
 * (pid, tid) tracks in the file. Wall-clock durations,
 * when a caller attaches them, ride in the `args` object under
 * `wall_us` and are the only nondeterministic values.
 *
 * Track model: `pid` identifies a layer (0 = cluster, 1+i = node
 * i's engine; a bare engine uses pid 0), `tid` a track within it.
 * Within one track, events are emitted by a single logical actor in
 * timestamp order, so per-track timestamps are non-decreasing and
 * B/E pairs nest — `scripts/check_trace.py` enforces both.
 *
 * The writer is mutex-serialized (unlike colo::CsvTimelineSink,
 * which serves one engine), so engines running concurrently under
 * driver::Pool can share one writer. If the underlying stream fails, the writer
 * drops further events and routes a single backpressure warning
 * through util::logging.
 */

#ifndef PLIANT_OBS_TRACE_HH
#define PLIANT_OBS_TRACE_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>

#include "sim/time.hh"

namespace pliant {
namespace obs {

/**
 * Streaming trace_event JSON writer. Not copyable; destruction (or
 * an explicit finish()) closes the JSON array.
 */
class TraceWriter
{
  public:
    /** @param os sink stream; must outlive the writer. */
    explicit TraceWriter(std::ostream &os);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Perfetto metadata: name the process (layer) for a pid. */
    void processName(int pid, const std::string &name);

    /** Perfetto metadata: name a track within a pid. */
    void threadName(int pid, int tid, const std::string &name);

    /**
     * Open a span. @param wallUs optional wall-clock payload
     * (negative = none) attached as args.wall_us.
     */
    void begin(int pid, int tid, const char *name, sim::Time ts,
               double wallUs = -1.0);

    /** Close the innermost open span on (pid, tid). */
    void end(int pid, int tid, const char *name, sim::Time ts,
             double wallUs = -1.0);

    /** Zero-duration instant event. */
    void instant(int pid, int tid, const char *name, sim::Time ts);

    /** Close the JSON array; further events are dropped. */
    void finish();

    /** Events accepted so far (metadata included). */
    std::uint64_t eventCount() const { return events; }

  private:
    void emit(char phase, int pid, int tid, const char *name,
              sim::Time ts, double wallUs, bool meta,
              const std::string *metaArg);

    std::mutex mtx;
    std::ostream &out;
    bool first = true;
    bool finished = false;
    bool warnedBackpressure = false;
    std::uint64_t events = 0;
};

} // namespace obs
} // namespace pliant

#endif // PLIANT_OBS_TRACE_HH
