#include "telemetry/host_trace.hh"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>

#include "common/json.hh"
#include "common/logging.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/host_metrics.hh"

namespace helios
{

namespace
{

/** Dense per-thread track id, assigned on first use. The main thread
 *  enables tracing before any worker exists, so it owns track 0. */
unsigned
hostTrackId()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned id = next.fetch_add(1);
    return id;
}

} // namespace

struct HostTracer::Impl
{
    struct Event
    {
        std::string name;
        std::string category;
        uint64_t begin = 0;
        uint64_t dur = 0;
        unsigned track = 0;
        std::vector<std::pair<std::string, std::string>> args;
    };

    mutable std::mutex mutex;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    std::vector<Event> events;
    std::vector<std::pair<unsigned, std::string>> threadNames;
};

HostTracer::HostTracer() : impl(new Impl) {}

HostTracer &
HostTracer::global()
{
    // Leaked intentionally: atexit writers run after static dtors.
    static HostTracer *tracer = new HostTracer;
    return *tracer;
}

uint64_t
HostTracer::nowMicros() const
{
    return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - impl->epoch)
                        .count());
}

void
HostTracer::setThreadName(const std::string &name)
{
    const unsigned track = hostTrackId();
    std::lock_guard<std::mutex> lock(impl->mutex);
    for (auto &[id, existing] : impl->threadNames)
        if (id == track) {
            existing = name;
            return;
        }
    impl->threadNames.emplace_back(track, name);
}

void
HostTracer::recordSpan(
    const std::string &name, const std::string &category,
    uint64_t begin_us, uint64_t end_us,
    const std::vector<std::pair<std::string, std::string>> &args)
{
    Impl::Event event;
    event.name = name;
    event.category = category;
    event.begin = begin_us;
    event.dur = end_us > begin_us ? end_us - begin_us : 0;
    event.track = hostTrackId();
    event.args = args;
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->events.push_back(std::move(event));
}

size_t
HostTracer::numSpans() const
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    return impl->events.size();
}

void
HostTracer::writeChromeTrace(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    ChromeTraceWriter trace(out, "ms");

    trace.metadata("process_name", 0, "helios harness");
    bool named_main = false;
    for (const auto &[track, name] : impl->threadNames) {
        trace.metadata("thread_name", track, name);
        named_main = named_main || track == 0;
    }
    if (!named_main)
        trace.metadata("thread_name", 0, "main");

    for (const Impl::Event &event : impl->events) {
        JsonValue args;
        if (!event.args.empty()) {
            args = JsonValue::object();
            for (const auto &[key, value] : event.args)
                args.set(key, value);
        }
        trace.span(event.name, event.category, event.begin, event.dur,
                   event.track, args);
    }
}

bool
HostTracer::writeToFile(const std::string &path) const
{
    std::ofstream out(path);
    if (out)
        writeChromeTrace(out);
    if (!out) {
        logError("host trace: cannot write '%s'", path.c_str());
        return false;
    }
    return true;
}

void
HostTracer::clear()
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->events.clear();
    impl->threadNames.clear();
}

// ---------------------------------------------------------------------
// HostSpan
// ---------------------------------------------------------------------

HostSpan::HostSpan(std::string span_name, std::string span_category)
    : name(std::move(span_name)), category(std::move(span_category))
{
    if (category.empty())
        category = name;
    active = HostTracer::global().enabled() ||
             HostMetrics::global().enabled();
    if (active)
        begin = HostTracer::global().nowMicros();
}

void
HostSpan::arg(std::string key, std::string value)
{
    if (active)
        args.emplace_back(std::move(key), std::move(value));
}

void
HostSpan::end()
{
    if (!active)
        return;
    active = false;
    const uint64_t now = HostTracer::global().nowMicros();
    if (HostTracer::global().enabled())
        HostTracer::global().recordSpan(name, category, begin, now,
                                        args);
    if (HostMetrics::global().enabled())
        HostMetrics::global().addPhaseSeconds(
            category, double(now - begin) / 1e6);
}

// ---------------------------------------------------------------------
// Environment hookup
// ---------------------------------------------------------------------

namespace
{

std::string &
hostTracePath()
{
    static std::string path;
    return path;
}

void
flushHostTrace()
{
    if (!hostTracePath().empty())
        HostTracer::global().writeToFile(hostTracePath());
}

} // namespace

void
writeHostTraceAtExit(const std::string &path)
{
    HostTracer::global().enable();
    const bool registered = !hostTracePath().empty();
    hostTracePath() = path;
    if (!registered)
        std::atexit(flushHostTrace);
}

void
initHostTelemetryFromEnv()
{
    static bool done = false;
    if (done)
        return;
    done = true;
    if (const char *path = std::getenv("HELIOS_HOST_TRACE"))
        if (*path)
            writeHostTraceAtExit(path);
    if (const char *path = std::getenv("HELIOS_METRICS"))
        if (*path)
            writeHostMetricsAtExit(path);
}

} // namespace helios
