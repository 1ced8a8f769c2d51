#include "telemetry/host_metrics.hh"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include <sys/resource.h>

#include "common/logging.hh"

// Build provenance, injected per-source by src/telemetry/CMakeLists.txt.
#ifndef HELIOS_GIT_HASH
#define HELIOS_GIT_HASH "unknown"
#endif
#ifndef HELIOS_BUILD_FLAGS
#define HELIOS_BUILD_FLAGS ""
#endif
#ifndef HELIOS_BUILD_TYPE
#define HELIOS_BUILD_TYPE ""
#endif

namespace helios
{

const BuildInfo &
buildInfo()
{
    // Leaked intentionally, like HostMetrics::global(): the atexit
    // metrics writer reads it, and a function static first used after
    // that writer was registered is destroyed before the writer runs.
    static const BuildInfo &info =
        *new BuildInfo{HELIOS_GIT_HASH, __VERSION__, HELIOS_BUILD_FLAGS,
                       HELIOS_BUILD_TYPE};
    return info;
}

namespace
{

/** Escape a Prometheus label value (backslash, quote, newline). */
std::string
labelEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

} // namespace

struct HostMetrics::Impl
{
    mutable std::mutex mutex;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    std::map<std::string, double> phaseSeconds; ///< sorted for output
    uint64_t guestInsts = 0;
    uint64_t guestUops = 0;
    uint64_t cells = 0;
};

HostMetrics::HostMetrics() : impl(new Impl) {}

HostMetrics &
HostMetrics::global()
{
    // Leaked intentionally: atexit writers run after static dtors.
    static HostMetrics *metrics = new HostMetrics;
    return *metrics;
}

void
HostMetrics::addPhaseSeconds(const std::string &phase, double seconds)
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->phaseSeconds[phase] += seconds;
}

void
HostMetrics::recordGuestWork(uint64_t instructions, uint64_t uops)
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->guestInsts += instructions;
    impl->guestUops += uops;
}

void
HostMetrics::recordCellCompleted()
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    ++impl->cells;
}

double
HostMetrics::wallSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - impl->epoch)
        .count();
}

uint64_t
HostMetrics::peakRssBytes()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    // Linux reports ru_maxrss in kilobytes.
    return uint64_t(usage.ru_maxrss) * 1024;
}

uint64_t
HostMetrics::guestInstructions() const
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    return impl->guestInsts;
}

uint64_t
HostMetrics::guestUops() const
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    return impl->guestUops;
}

uint64_t
HostMetrics::cellsCompleted() const
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    return impl->cells;
}

std::string
HostMetrics::prometheusText() const
{
    const double wall = wallSeconds();
    const BuildInfo &build = buildInfo();

    std::lock_guard<std::mutex> lock(impl->mutex);
    std::ostringstream out;
    out.precision(6);
    out << std::fixed;

    out << "# HELP helios_build_info Build provenance stamp "
           "(value is always 1).\n"
        << "# TYPE helios_build_info gauge\n"
        << "helios_build_info{git_hash=\"" << labelEscape(build.gitHash)
        << "\",compiler=\"" << labelEscape(build.compiler)
        << "\",build_type=\"" << labelEscape(build.buildType)
        << "\",flags=\"" << labelEscape(build.flags) << "\"} 1\n";

    out << "# HELP helios_wall_clock_seconds Harness process "
           "wall-clock time.\n"
        << "# TYPE helios_wall_clock_seconds gauge\n"
        << "helios_wall_clock_seconds " << wall << "\n";

    out << "# HELP helios_peak_rss_bytes Peak resident set size "
           "(getrusage).\n"
        << "# TYPE helios_peak_rss_bytes gauge\n"
        << "helios_peak_rss_bytes " << peakRssBytes() << "\n";

    out << "# HELP helios_phase_seconds Wall-clock accumulated per "
           "harness phase (HostSpan category).\n"
        << "# TYPE helios_phase_seconds gauge\n";
    for (const auto &[phase, seconds] : impl->phaseSeconds)
        out << "helios_phase_seconds{phase=\"" << labelEscape(phase)
            << "\"} " << seconds << "\n";

    out << "# HELP helios_guest_instructions_total Guest instructions "
           "retired across all runs.\n"
        << "# TYPE helios_guest_instructions_total counter\n"
        << "helios_guest_instructions_total " << impl->guestInsts
        << "\n";
    out << "# HELP helios_guest_uops_total Guest micro-ops retired "
           "across all runs.\n"
        << "# TYPE helios_guest_uops_total counter\n"
        << "helios_guest_uops_total " << impl->guestUops << "\n";
    out << "# HELP helios_guest_instructions_per_second Guest retire "
           "rate over process wall-clock.\n"
        << "# TYPE helios_guest_instructions_per_second gauge\n"
        << "helios_guest_instructions_per_second "
        << (wall > 0 ? double(impl->guestInsts) / wall : 0.0) << "\n";
    out << "# HELP helios_guest_uops_per_second Guest micro-op rate "
           "over process wall-clock.\n"
        << "# TYPE helios_guest_uops_per_second gauge\n"
        << "helios_guest_uops_per_second "
        << (wall > 0 ? double(impl->guestUops) / wall : 0.0) << "\n";

    out << "# HELP helios_cells_completed_total Matrix cells "
           "completed.\n"
        << "# TYPE helios_cells_completed_total counter\n"
        << "helios_cells_completed_total " << impl->cells << "\n";
    out << "# HELP helios_cells_per_second Matrix cell completion "
           "rate over process wall-clock.\n"
        << "# TYPE helios_cells_per_second gauge\n"
        << "helios_cells_per_second "
        << (wall > 0 ? double(impl->cells) / wall : 0.0) << "\n";

    return out.str();
}

JsonValue
HostMetrics::toJson() const
{
    const double wall = wallSeconds();
    const BuildInfo &info = buildInfo();

    JsonValue build = JsonValue::object();
    build.set("git_hash", info.gitHash);
    build.set("compiler", info.compiler);
    build.set("flags", info.flags);
    build.set("build_type", info.buildType);

    std::lock_guard<std::mutex> lock(impl->mutex);
    JsonValue value = JsonValue::object();
    value.set("build", std::move(build));
    value.set("wall_seconds", wall);
    value.set("peak_rss_bytes", peakRssBytes());

    JsonValue phases = JsonValue::object();
    for (const auto &[phase, seconds] : impl->phaseSeconds)
        phases.set(phase, seconds);
    value.set("phases", std::move(phases));

    value.set("guest_instructions", impl->guestInsts);
    value.set("guest_uops", impl->guestUops);
    value.set("guest_instructions_per_second",
              wall > 0 ? double(impl->guestInsts) / wall : 0.0);
    value.set("guest_uops_per_second",
              wall > 0 ? double(impl->guestUops) / wall : 0.0);
    value.set("cells_completed", impl->cells);
    value.set("cells_per_second",
              wall > 0 ? double(impl->cells) / wall : 0.0);
    return value;
}

bool
HostMetrics::writeToFile(const std::string &path) const
{
    std::ofstream out(path);
    if (out)
        out << prometheusText();
    if (!out) {
        logError("host metrics: cannot write '%s'", path.c_str());
        return false;
    }
    return true;
}

void
HostMetrics::reset()
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->phaseSeconds.clear();
    impl->guestInsts = 0;
    impl->guestUops = 0;
    impl->cells = 0;
}

namespace
{

std::string &
metricsPath()
{
    static std::string path;
    return path;
}

void
flushHostMetrics()
{
    if (!metricsPath().empty())
        HostMetrics::global().writeToFile(metricsPath());
}

} // namespace

void
writeHostMetricsAtExit(const std::string &path)
{
    HostMetrics::global().enable();
    const bool registered = !metricsPath().empty();
    metricsPath() = path;
    if (!registered)
        std::atexit(flushHostMetrics);
}

} // namespace helios
