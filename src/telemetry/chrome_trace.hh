/**
 * @file
 * Streaming writer for Chrome `trace_event` JSON, the format Perfetto
 * and chrome://tracing load. Both trace sinks use it: the µ-op
 * LifecycleTracer (timestamps in cycles) and the harness HostTracer
 * (timestamps in microseconds). Every event carries pid 0.
 */

#ifndef TELEMETRY_CHROME_TRACE_HH
#define TELEMETRY_CHROME_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/json.hh"

namespace helios
{

class ChromeTraceWriter
{
  public:
    /** Opens the {"displayTimeUnit": @a display_unit, "traceEvents":
     *  [...]} document on @a out. */
    ChromeTraceWriter(std::ostream &out, const char *display_unit);

    /** Closes the document. */
    ~ChromeTraceWriter();

    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    /** An "M" event; @a what is "process_name" or "thread_name". */
    void metadata(const char *what, uint64_t tid, const std::string &name);

    /** A complete ("X") span; a null @a args is left out. */
    void span(const std::string &name, const std::string &category,
              uint64_t ts, uint64_t dur, uint64_t tid,
              const JsonValue &args);

    /** A thread-scoped instant ("i") event. */
    void instant(const std::string &name, const std::string &category,
                 uint64_t ts, uint64_t tid);

  private:
    /** Adds the fields every event carries, then writes @a event. */
    void emit(JsonValue event, const char *phase, const std::string &name,
              uint64_t tid);

    std::ostream &out;
    bool first = true;
};

} // namespace helios

#endif // TELEMETRY_CHROME_TRACE_HH
