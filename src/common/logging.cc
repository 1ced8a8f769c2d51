#include "common/logging.hh"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/options.hh"

namespace helios
{

namespace
{

std::string
vformat(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buffer(needed + 1);
    std::vsnprintf(buffer.data(), buffer.size(), fmt, args);
    return std::string(buffer.data(), needed);
}

/** Per-thread context-field stack (flat; LogContext pops by count). */
thread_local std::vector<std::pair<std::string, std::string>>
    tlsContext;

/** Small dense thread id for log records (assigned on first use). */
unsigned
logThreadId()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned id = next.fetch_add(1);
    return id;
}

/** Minimal JSON string escaping (json.hh would be a layering cycle —
 *  helios_common hosts both, but logging must not pull the full value
 *  model into every translation unit). */
std::string
jsonQuote(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strFormat("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

} // namespace

std::string
strFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string result = vformat(fmt, args);
    va_end(args);
    return result;
}

// ---------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Trace: return "trace";
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
      case LogLevel::Off: return "off";
    }
    return "?";
}

LogLevel
logLevelFromName(const std::string &name)
{
    std::string lower;
    lower.reserve(name.size());
    for (const char c : name)
        lower += char(std::tolower(static_cast<unsigned char>(c)));
    for (const LogLevel level :
         {LogLevel::Trace, LogLevel::Debug, LogLevel::Info,
          LogLevel::Warn, LogLevel::Error, LogLevel::Off})
        if (lower == logLevelName(level))
            return level;
    fatal("unknown log level '%s' (trace|debug|info|warn|error|off)",
          name.c_str());
}

struct Logger::Impl
{
    std::mutex mutex;
    std::ofstream jsonOut;
    bool jsonOpen = false;
    std::ostream *capture = nullptr;
    bool progressPending = false;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    }
};

Logger::Logger() : impl(new Impl), threshold(int(LogLevel::Info))
{
    // Environment configuration happens exactly once, here, so every
    // binary (benches, tests, the CLI) honours it without wiring.
    // The parsers are validateRunEnvironment()'s, so helios_run and
    // the benches have already rejected a bad value; any other binary
    // warns and keeps the default.
    if (const char *env = std::getenv("HELIOS_LOG")) {
        try {
            threshold.store(
                int(parseName("HELIOS_LOG", env, logLevelFromName)));
        } catch (const FatalError &error) {
            std::fprintf(stderr, "warn: %s\n", error.what());
        }
    }
    try {
        const std::string path = outputFileFromEnv("HELIOS_LOG_JSON");
        if (!path.empty())
            openJsonSink(path);
    } catch (const FatalError &error) {
        std::fprintf(stderr, "warn: %s\n", error.what());
    }
}

Logger::~Logger()
{
    delete impl;
}

Logger &
Logger::global()
{
    // Leaked intentionally: workers may log during static destruction.
    static Logger *logger = new Logger;
    return *logger;
}

void
Logger::setLevel(LogLevel level)
{
    threshold.store(int(level), std::memory_order_relaxed);
}

LogLevel
Logger::level() const
{
    return LogLevel(threshold.load(std::memory_order_relaxed));
}

void
Logger::openJsonSink(const std::string &path)
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->jsonOut.close();
    impl->jsonOut.clear();
    impl->jsonOut.open(path, std::ios::app);
    if (!impl->jsonOut) {
        impl->jsonOpen = false;
        fatal("cannot open log sink '%s' for writing", path.c_str());
    }
    impl->jsonOpen = true;
}

void
Logger::closeJsonSink()
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->jsonOut.close();
    impl->jsonOpen = false;
}

bool
Logger::jsonSinkOpen() const
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    return impl->jsonOpen;
}

void
Logger::captureText(std::ostream *sink)
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->capture = sink;
}

void
Logger::log(LogLevel level, const std::string &message)
{
    if (!enabled(level) || level == LogLevel::Off)
        return;

    // Assemble the full record outside the lock; emit it with one
    // stream operation under the lock so lines never interleave.
    std::string line = logLevelName(level);
    line += ": ";
    line += message;
    if (!tlsContext.empty()) {
        line += " [";
        for (size_t i = 0; i < tlsContext.size(); ++i) {
            if (i)
                line += ' ';
            line += tlsContext[i].first;
            line += '=';
            line += tlsContext[i].second;
        }
        line += ']';
    }
    line += '\n';

    std::string json;
    {
        std::ostringstream record;
        record.precision(6);
        record << std::fixed;
        record << "{\"ts\":" << impl->seconds()
               << ",\"level\":" << jsonQuote(logLevelName(level))
               << ",\"thread\":" << logThreadId()
               << ",\"msg\":" << jsonQuote(message);
        for (const auto &[key, value] : tlsContext)
            record << ',' << jsonQuote(key) << ':' << jsonQuote(value);
        record << "}\n";
        json = record.str();
    }

    std::lock_guard<std::mutex> lock(impl->mutex);
    if (impl->progressPending) {
        if (impl->capture)
            *impl->capture << '\n';
        else
            std::fputs("\r\033[K", stderr);
        impl->progressPending = false;
    }
    if (impl->capture) {
        *impl->capture << line;
        impl->capture->flush();
    } else {
        std::FILE *out =
            level >= LogLevel::Warn ? stderr : stdout;
        std::fputs(line.c_str(), out);
        if (out == stderr)
            std::fflush(out);
    }
    if (impl->jsonOpen) {
        impl->jsonOut << json;
        impl->jsonOut.flush();
    }
}

void
Logger::logf(LogLevel level, const char *fmt, ...)
{
    if (!enabled(level))
        return;
    va_list args;
    va_start(args, fmt);
    vlogf(level, fmt, args);
    va_end(args);
}

void
Logger::vlogf(LogLevel level, const char *fmt, va_list args)
{
    if (!enabled(level))
        return;
    log(level, vformat(fmt, args));
}

void
Logger::progress(const std::string &line)
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    if (impl->capture) {
        *impl->capture << '\r' << line;
        impl->capture->flush();
    } else {
        std::fprintf(stderr, "\r\033[K%s", line.c_str());
        std::fflush(stderr);
    }
    impl->progressPending = true;
}

void
Logger::clearProgress()
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    if (!impl->progressPending)
        return;
    if (impl->capture)
        *impl->capture << '\n';
    else {
        std::fputs("\r\033[K", stderr);
        std::fflush(stderr);
    }
    impl->progressPending = false;
}

// ---------------------------------------------------------------------
// LogContext
// ---------------------------------------------------------------------

LogContext::LogContext(
    std::vector<std::pair<std::string, std::string>> fields)
    : count(fields.size())
{
    for (auto &field : fields)
        tlsContext.push_back(std::move(field));
}

LogContext::~LogContext()
{
    tlsContext.resize(tlsContext.size() - count);
}

// ---------------------------------------------------------------------
// Free helpers
// ---------------------------------------------------------------------

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string message = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", message.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string message = vformat(fmt, args);
    va_end(args);
    throw FatalError(message);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    Logger::global().vlogf(LogLevel::Warn, fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    Logger::global().vlogf(LogLevel::Info, fmt, args);
    va_end(args);
}

void
logTrace(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    Logger::global().vlogf(LogLevel::Trace, fmt, args);
    va_end(args);
}

void
logDebug(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    Logger::global().vlogf(LogLevel::Debug, fmt, args);
    va_end(args);
}

void
logError(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    Logger::global().vlogf(LogLevel::Error, fmt, args);
    va_end(args);
}

std::string
formatMatrixProgress(size_t done, size_t total, double elapsed_seconds)
{
    const double pct =
        total ? 100.0 * double(done) / double(total) : 100.0;
    // Before the first completed cell (or before the clock advances)
    // there is no rate to extrapolate from; never divide by it.
    if (done == 0 || !(elapsed_seconds > 0.0))
        return strFormat("%zu/%zu cells (%.0f%%), -- cells/s, ETA --",
                         done, total, pct);
    const double rate = double(done) / elapsed_seconds;
    const size_t remaining = total > done ? total - done : 0;
    const double eta = double(remaining) / rate;
    // An "ETA" in the 10^5+ second range is noise, not a forecast.
    constexpr double kMaxEtaSeconds = 99.0 * 3600.0;
    if (eta > kMaxEtaSeconds)
        return strFormat("%zu/%zu cells (%.0f%%), %.1f cells/s, "
                         "ETA >99h",
                         done, total, pct, rate);
    return strFormat("%zu/%zu cells (%.0f%%), %.1f cells/s, ETA %.1fs",
                     done, total, pct, rate, eta);
}

} // namespace helios
