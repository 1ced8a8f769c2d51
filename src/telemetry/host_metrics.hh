/**
 * @file
 * Host metrics registry: resource and throughput accounting for the
 * harness process itself, exported two ways —
 *
 *  - a Prometheus text-format file (`helios_run --metrics FILE`,
 *    HELIOS_METRICS=FILE for the benches), so sweep campaigns can be
 *    scraped/aggregated with standard tooling;
 *  - an additive `host` section in RunReport files (schema v3; see
 *    attachHostSection in harness/run_report.hh), so every archived
 *    report carries its own provenance and cost.
 *
 * Collected: wall-clock per harness phase (fed by HostSpan — every
 * traced phase is also a metric), peak RSS via getrusage, total guest
 * instructions/µops and their per-second rates, matrix cells
 * completed and cells/s, plus a build-info stamp (git hash, compiler,
 * flags, build type) baked in at compile time.
 *
 * Like every telemetry layer here it is opt-in and observer-effect
 * free: disabled, the runMatrix hooks cost one relaxed atomic load,
 * and enabling it changes no architectural result or counter
 * (tier-1 guarded).
 */

#ifndef TELEMETRY_HOST_METRICS_HH
#define TELEMETRY_HOST_METRICS_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/json.hh"

namespace helios
{

/** Compile-time provenance stamp. */
struct BuildInfo
{
    std::string gitHash;   ///< short commit hash ("unknown" outside git)
    std::string compiler;  ///< __VERSION__ of the building compiler
    std::string flags;     ///< CMAKE_CXX_FLAGS the build was configured with
    std::string buildType; ///< CMAKE_BUILD_TYPE
};

const BuildInfo &buildInfo();

/** Process-wide metrics registry; all mutators are thread-safe. */
class HostMetrics
{
  public:
    static HostMetrics &global();

    void enable() { on.store(true, std::memory_order_relaxed); }
    void disable() { on.store(false, std::memory_order_relaxed); }
    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    /** Accumulate wall-clock into the named phase (HostSpan calls
     *  this with its category on every span end). */
    void addPhaseSeconds(const std::string &phase, double seconds);

    /** Account retired guest work (one call per finished run/cell). */
    void recordGuestWork(uint64_t instructions, uint64_t uops);

    /** Account one completed matrix cell. */
    void recordCellCompleted();

    /** Seconds since registry construction (process lifetime proxy). */
    double wallSeconds() const;

    /** Peak resident set size of this process, in bytes (getrusage). */
    static uint64_t peakRssBytes();

    uint64_t guestInstructions() const;
    uint64_t guestUops() const;
    uint64_t cellsCompleted() const;

    /** Render every metric in Prometheus text exposition format. */
    std::string prometheusText() const;

    /** The RunReport `host` section (schema v3). */
    JsonValue toJson() const;

    /** Write prometheusText() to @a path; logError and return false
     *  on I/O failure. */
    bool writeToFile(const std::string &path) const;

    /** Zero all accumulators (tests). */
    void reset();

  private:
    HostMetrics();

    struct Impl;
    Impl *impl;
    std::atomic<bool> on{false};
};

/** Enable the registry and write the Prometheus file at process
 *  exit (HELIOS_METRICS / --metrics plumbing). */
void writeHostMetricsAtExit(const std::string &path);

} // namespace helios

#endif // TELEMETRY_HOST_METRICS_HH
