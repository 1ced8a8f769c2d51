/**
 * @file
 * Machine-readable run reports.
 *
 * A RunReport serializes everything one (workload, configuration)
 * timing run produced — configuration, headline numbers, the full
 * counter table, telemetry histograms, the exact CPI stack, and the
 * audit verdict — into a stable JSON schema. A RunReportFile bundles
 * the reports of a whole experiment matrix plus the differential
 * verdicts that compared them.
 *
 * The schema is the contract between the simulator and downstream
 * tooling (bench/compare_reports, CI baselines, plotting scripts):
 * reports round-trip through JSON losslessly (save → parse → equal),
 * so a committed baseline file can be diffed against a fresh run
 * without re-simulating. See OBSERVABILITY.md for the field-by-field
 * description.
 */

#ifndef HARNESS_RUN_REPORT_HH
#define HARNESS_RUN_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "harness/runner.hh"

namespace helios
{

struct DiffReport;

/** Schema version stamped into every report file. Bump on any change
 *  that is not purely additive.
 *
 *  v2 adds an optional per-run "profile" section (per-PC fusion-site
 *  counters, missed-opportunity attribution and windowed time-series
 *  samples; see OBSERVABILITY.md) and an optional "program_hash"
 *  field (FNV-1a fingerprint of the program image the run executed;
 *  ELF frontend).
 *
 *  v3 adds an optional top-level "host" section (host telemetry:
 *  build provenance, per-phase wall-clock, peak RSS, guest and cell
 *  throughput; see telemetry/host_metrics.hh). Host data describes
 *  the machine the report was produced on, never the simulated
 *  result, so baseline comparisons (bench/compare_reports) ignore it
 *  entirely.
 *
 *  v4 adds an optional per-run "config_hash" field: the canonical
 *  FNV-1a digest of every result-affecting CoreParams field (see
 *  configHash in uarch/params.hh). Together with program_hash and the
 *  instruction budget it content-addresses a run — the key the run
 *  ledger (src/ledger) memoizes results under.
 *
 *  v5 adds an optional per-run "sampled" section: the full sampled-
 *  simulation record (sampling spec, fast-forward length, per-interval
 *  measurements, and weighted IPC / fusion-coverage estimates with
 *  95% confidence intervals; see harness/sampling.hh). Present only
 *  on reports produced by sampled runs; carried opaquely so files
 *  round-trip losslessly.
 *
 *  All additions are backward compatible: v1/v2/v3/v4 files parse
 *  unchanged (absent fields default to zero/null). */
constexpr unsigned kRunReportVersion = 5;

/** One (workload, configuration) run, ready for serialization. */
struct RunReport
{
    // Identity.
    std::string workload;
    std::string mode;        ///< fusionModeName() spelling
    uint64_t maxInsts = 0;   ///< instruction budget (0: unbounded)

    // Headline numbers.
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t uops = 0;
    double ipc = 0.0;

    // Architectural verdict (differential-harness inputs).
    uint64_t archChecksum = 0;
    uint64_t memChecksum = 0;
    uint64_t hartInstructions = 0;
    bool exited = false;
    uint64_t exitCode = 0;
    uint64_t programHash = 0; ///< Program::sourceHash fingerprint
    uint64_t configHash = 0;  ///< configHash(params); schema v4

    // Audit outcome (meaningful when audited is true).
    bool audited = false;
    uint64_t auditChecks = 0;
    uint64_t auditViolations = 0;

    // Full counter table and telemetry histograms.
    StatGroup stats;

    // Per-PC fusion-site profile (schema v2; present when the run was
    // profiled).
    bool profiled = false;
    ProfileData profile;

    /** Sampled-simulation section (schema v5). Null unless the run
     *  was produced by the interval sampler; carried opaquely —
     *  harness/sampling.hh SampledResult::fromJson decodes it. */
    JsonValue sampled;

    /** Exact CPI stack rebuilt from the cpi.* counters. */
    CpiStack cpiStack() const { return stats.cpiStack(cycles); }

    /** Derived: fraction of committed instructions covered by fused
     *  pairs (2 × fused pairs / committed instructions). */
    double fusionCoverage() const;

    JsonValue toJson() const;
    static RunReport fromJson(const JsonValue &value);

    bool operator==(const RunReport &other) const;
};

/** Build a report from a finished run. */
RunReport makeRunReport(const RunResult &result, uint64_t max_insts = 0);

/** One differential-harness verdict attached to a report file. */
struct ReportVerdict
{
    std::string workload;
    std::string mode;
    std::string check;  ///< e.g. "arch_state", "ipc_regression"
    std::string detail;

    JsonValue toJson() const;
    static ReportVerdict fromJson(const JsonValue &value);

    bool operator==(const ReportVerdict &other) const = default;
};

/**
 * A set of run reports (one experiment matrix) plus the differential
 * verdicts that compared them. This is the on-disk artifact CI
 * uploads and compare_reports diffs.
 */
struct RunReportFile
{
    unsigned version = kRunReportVersion;
    std::string generator; ///< tool that wrote the file (free-form)
    std::vector<RunReport> runs;
    std::vector<ReportVerdict> verdicts;

    /** Host-telemetry section (schema v3). Null when the producing
     *  process ran without host metrics; carried opaquely so files
     *  round-trip losslessly, ignored by report comparisons. */
    JsonValue host;

    void add(const RunResult &result, uint64_t max_insts = 0);

    /** Fold a differential report in: every cell result plus every
     *  violation as a verdict. */
    void addDifferential(const DiffReport &report, uint64_t max_insts);

    /** Find a run by (workload, mode); nullptr when absent. */
    const RunReport *find(const std::string &workload,
                          const std::string &mode) const;

    /** The whole file as one tree, and back; for tests that craft
     *  files. */
    JsonValue toJson() const;
    static RunReportFile fromJson(const JsonValue &value);

    /** Serialize to JSON text: the top level indented, each run and
     *  verdict compact on one line, so a file diffs run by run. The
     *  bytes are toJson().dump(2, 2) and a newline, but only one run's
     *  or verdict's tree exists at a time. */
    std::string toJsonText() const;

    /** Parse back from JSON text, holding one run's tree at a time;
     *  fatal() on malformed input or an unsupported schema version,
     *  with the error fromJson(JsonValue::parse(text)) gives. */
    static RunReportFile fromJsonText(const std::string &text);

    /** Write to @a path, as toJsonText() writes (fatal() on I/O
     *  failure). */
    void save(const std::string &path) const;

    /** Load from @a path, as fromJsonText() reads (fatal() on I/O
     *  failure or bad schema). */
    static RunReportFile load(const std::string &path);

    bool operator==(const RunReportFile &other) const;
};

/**
 * Stamp the current host-metrics snapshot into @a file's `host`
 * section when host metrics collection is enabled (--metrics /
 * HELIOS_METRICS); a no-op otherwise. Producers call this right
 * before save() so the report records the cost of making it.
 */
void attachHostSection(RunReportFile &file);

} // namespace helios

#endif // HARNESS_RUN_REPORT_HH
