/**
 * @file
 * Harness span tracing: where does the *host's* wall-clock go?
 *
 * The guest side of a run has been fully inspectable since the µop
 * LifecycleTracer landed; HostTracer is its mirror for the harness
 * itself. RAII HostSpan objects mark the harness's own phases —
 * assemble/decode, functional fast-forward, detailed simulation,
 * report writes, and one span per (workload, configuration) cell a
 * runMatrix worker executes — and the tracer renders them as the same
 * Chrome `trace_event` JSON the guest tracer emits, so a 192-cell
 * fig10 sweep loads into Perfetto as a worker-pool timeline.
 *
 * Enable with `helios_run --host-trace FILE` or HELIOS_HOST_TRACE=FILE
 * (any bench or CLI; see initHostTelemetryFromEnv). Disabled, a span
 * costs two relaxed atomic loads — the simulated machine never sees
 * it either way (observer-effect guarded in tier-1).
 */

#ifndef TELEMETRY_HOST_TRACE_HH
#define TELEMETRY_HOST_TRACE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace helios
{

/**
 * Process-wide collector of completed harness spans. Thread-safe:
 * spans record under a mutex; worker threads get dense track ids on
 * first use and can name their track (thread_name metadata in the
 * Chrome export).
 */
class HostTracer
{
  public:
    static HostTracer &global();

    void enable() { on.store(true, std::memory_order_relaxed); }
    void disable() { on.store(false, std::memory_order_relaxed); }
    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    /** Microseconds since tracer construction (steady clock). */
    uint64_t nowMicros() const;

    /** Label the calling thread's track ("worker-3", "main", ...). */
    void setThreadName(const std::string &name);

    /** Record one completed span on the calling thread's track. */
    void recordSpan(
        const std::string &name, const std::string &category,
        uint64_t begin_us, uint64_t end_us,
        const std::vector<std::pair<std::string, std::string>> &args);

    size_t numSpans() const;

    /** Chrome trace_event JSON ({"traceEvents": [...]}), same dialect
     *  as LifecycleTracer::writeChromeTrace. */
    void writeChromeTrace(std::ostream &out) const;

    /** Write the Chrome trace to @a path; logError and return false
     *  on I/O failure. */
    bool writeToFile(const std::string &path) const;

    /** Drop all spans and thread names (tests). */
    void clear();

  private:
    HostTracer();

    struct Impl;
    Impl *impl;
    std::atomic<bool> on{false};
};

/**
 * RAII span: stamps the clock at construction, records at end() or
 * destruction (whichever comes first). @a category groups spans in
 * the viewer and doubles as the HostMetrics phase key, so every
 * traced phase automatically gets a wall-clock metric; it defaults
 * to the span name. Inert (no clock read) when both the tracer and
 * the metrics registry are disabled.
 */
class HostSpan
{
  public:
    explicit HostSpan(std::string name, std::string category = "");

    /** Attach a key=value annotation (shown in the viewer). */
    void arg(std::string key, std::string value);

    /** Close the span now; later calls and destruction are no-ops. */
    void end();

    ~HostSpan() { end(); }

    HostSpan(const HostSpan &) = delete;
    HostSpan &operator=(const HostSpan &) = delete;

  private:
    std::string name;
    std::string category;
    std::vector<std::pair<std::string, std::string>> args;
    uint64_t begin = 0;
    bool active = false;
};

/**
 * One-shot environment hookup, called by every bench (through
 * printBenchHeader) and by helios_run: HELIOS_HOST_TRACE=FILE enables
 * the tracer and writes FILE at process exit; HELIOS_METRICS=FILE
 * does the same for the Prometheus metrics file.
 */
void initHostTelemetryFromEnv();

/** Enable the tracer and write @a path at process exit. */
void writeHostTraceAtExit(const std::string &path);

} // namespace helios

#endif // TELEMETRY_HOST_TRACE_HH
