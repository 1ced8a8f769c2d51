#include "telemetry/chrome_trace.hh"

#include <ostream>

namespace helios
{

ChromeTraceWriter::ChromeTraceWriter(std::ostream &out_,
                                     const char *display_unit)
    : out(out_)
{
    out << "{\"displayTimeUnit\":\"" << display_unit
        << "\",\"traceEvents\":[\n";
}

ChromeTraceWriter::~ChromeTraceWriter()
{
    out << "\n]}\n";
}

void
ChromeTraceWriter::emit(JsonValue event, const char *phase,
                        const std::string &name, uint64_t tid)
{
    event.set("name", name);
    event.set("ph", phase);
    event.set("pid", uint64_t(0));
    event.set("tid", tid);
    out << (first ? "" : ",\n") << event.dump();
    first = false;
}

void
ChromeTraceWriter::metadata(const char *what, uint64_t tid,
                            const std::string &name)
{
    JsonValue args = JsonValue::object();
    args.set("name", name);
    JsonValue event = JsonValue::object();
    event.set("args", std::move(args));
    emit(std::move(event), "M", what, tid);
}

void
ChromeTraceWriter::span(const std::string &name,
                        const std::string &category, uint64_t ts,
                        uint64_t dur, uint64_t tid, const JsonValue &args)
{
    JsonValue event = JsonValue::object();
    event.set("cat", category);
    event.set("ts", ts);
    event.set("dur", dur);
    if (!args.isNull())
        event.set("args", args);
    emit(std::move(event), "X", name, tid);
}

void
ChromeTraceWriter::instant(const std::string &name,
                           const std::string &category, uint64_t ts,
                           uint64_t tid)
{
    JsonValue event = JsonValue::object();
    event.set("cat", category);
    event.set("ts", ts);
    event.set("s", "t");
    emit(std::move(event), "i", name, tid);
}

} // namespace helios
