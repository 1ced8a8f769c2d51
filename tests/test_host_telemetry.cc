/**
 * @file
 * Host telemetry contract: span tracer, metrics registry, and the
 * schema-v3 `host` report section.
 *
 * The load-bearing property is the observer effect — or rather its
 * absence: enabling the tracer and the metrics registry must change
 * no architectural result, cycle count or counter of any run. The
 * rest pins the export formats (Chrome trace_event JSON, Prometheus
 * text) and the report round-trip including v1/v2 backward
 * compatibility.
 *
 * HostTracer/HostMetrics enablement is process-wide (the real
 * consumers enable once and exit). Every test that switches either on
 * holds a TelemetryOff guard, which switches both off again when the
 * test ends, so the tests pass in any order and in one process, not
 * only under ctest's one process per test. Tests that rely on the
 * disabled state assert it up front.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"
#include "telemetry/host_metrics.hh"
#include "telemetry/host_trace.hh"
#include "workloads/workloads.hh"

using namespace helios;

namespace
{

constexpr uint64_t kBudget = 10'000;

std::vector<MatrixCell>
smallMatrix()
{
    std::vector<MatrixCell> cells;
    for (const char *name : {"crc32", "qsort"}) {
        const Workload &workload = findWorkload(name);
        for (FusionMode mode :
             {FusionMode::None, FusionMode::Helios})
            cells.emplace_back(workload, mode, kBudget);
    }
    return cells;
}

/** Switches the host tracer and the metrics registry off and empties
 *  them when it goes out of scope, so a test that switched them on
 *  leaves the process as it found it, even when an assertion ends the
 *  test early. */
struct TelemetryOff
{
    ~TelemetryOff()
    {
        HostTracer::global().disable();
        HostTracer::global().clear();
        HostMetrics::global().disable();
        HostMetrics::global().reset();
    }
};

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.archChecksum, b.archChecksum);
    EXPECT_EQ(a.memChecksum, b.memChecksum);
    EXPECT_EQ(a.stats.dump(), b.stats.dump())
        << a.workload << "/" << fusionModeName(a.mode);
}

} // namespace

// ---------------------------------------------------------------------
// Disabled behaviour
// ---------------------------------------------------------------------

TEST(HostTelemetryDisabled, SpansRecordNothing)
{
    ASSERT_FALSE(HostTracer::global().enabled());
    ASSERT_FALSE(HostMetrics::global().enabled());
    {
        HostSpan span("idle-phase");
        span.arg("key", "value");
    }
    EXPECT_EQ(HostTracer::global().numSpans(), 0u);
    EXPECT_EQ(HostMetrics::global().toJson().at("phases").size(), 0u);
}

TEST(HostTelemetryDisabled, MatrixRecordsNothing)
{
    ASSERT_FALSE(HostTracer::global().enabled());
    ASSERT_FALSE(HostMetrics::global().enabled());
    ASSERT_EQ(runMatrix(smallMatrix(), 2).size(), 4u);
    EXPECT_EQ(HostTracer::global().numSpans(), 0u);
    EXPECT_EQ(HostMetrics::global().cellsCompleted(), 0u);
}

// ---------------------------------------------------------------------
// Enabled behaviour
// ---------------------------------------------------------------------

TEST(HostTrace, SpanRecordsNameCategoryAndArgs)
{
    const TelemetryOff off;
    HostTracer::global().enable();
    HostTracer::global().clear();
    {
        HostSpan span("assemble", "frontend");
        span.arg("workload", "crc32");
    }
    { HostSpan unnamed_category("report-write"); }
    ASSERT_EQ(HostTracer::global().numSpans(), 2u);

    std::ostringstream out;
    HostTracer::global().writeChromeTrace(out);
    const JsonValue trace = JsonValue::parse(out.str());
    ASSERT_TRUE(trace.has("traceEvents"));

    const JsonValue &events = trace.at("traceEvents");
    bool saw_process_meta = false, saw_thread_meta = false;
    bool saw_assemble = false, saw_report = false;
    for (size_t i = 0; i < events.size(); ++i) {
        const JsonValue &event = events.at(i);
        const std::string ph = event.at("ph").asString();
        if (ph == "M") {
            if (event.at("name").asString() == "process_name")
                saw_process_meta = true;
            if (event.at("name").asString() == "thread_name")
                saw_thread_meta = true;
            continue;
        }
        EXPECT_EQ(ph, "X");
        EXPECT_TRUE(event.has("ts"));
        EXPECT_TRUE(event.has("dur"));
        if (event.at("name").asString() == "assemble") {
            saw_assemble = true;
            EXPECT_EQ(event.at("cat").asString(), "frontend");
            EXPECT_EQ(event.at("args").at("workload").asString(),
                      "crc32");
        }
        if (event.at("name").asString() == "report-write") {
            saw_report = true;
            // Category defaults to the span name.
            EXPECT_EQ(event.at("cat").asString(), "report-write");
        }
    }
    EXPECT_TRUE(saw_process_meta);
    EXPECT_TRUE(saw_thread_meta);
    EXPECT_TRUE(saw_assemble);
    EXPECT_TRUE(saw_report);
}

TEST(HostTrace, EndIsIdempotent)
{
    const TelemetryOff off;
    HostTracer::global().enable();
    HostTracer::global().clear();
    HostSpan span("once");
    span.end();
    span.end();
    EXPECT_EQ(HostTracer::global().numSpans(), 1u);
}

TEST(HostTrace, MatrixEmitsOneCellSpanPerCellAndChangesNoResult)
{
    // Telemetry-off baseline first, captured before the switches flip.
    ASSERT_FALSE(HostTracer::global().enabled());
    ASSERT_FALSE(HostMetrics::global().enabled());
    const std::vector<MatrixCell> cells = smallMatrix();
    const std::vector<RunResult> baseline = runMatrix(cells, 2);

    const TelemetryOff off;
    HostTracer::global().enable();
    HostTracer::global().clear();
    HostMetrics::global().enable();
    HostMetrics::global().reset();

    const std::vector<RunResult> traced = runMatrix(cells, 2);

    // Bit-identical to the telemetry-off baseline.
    ASSERT_EQ(traced.size(), baseline.size());
    for (size_t i = 0; i < traced.size(); ++i)
        expectSameResult(traced[i], baseline[i]);

    // One "cell"-category span per cell, each naming its workload.
    std::ostringstream out;
    HostTracer::global().writeChromeTrace(out);
    const JsonValue trace = JsonValue::parse(out.str());
    size_t cell_spans = 0;
    for (size_t i = 0; i < trace.at("traceEvents").size(); ++i) {
        const JsonValue &event = trace.at("traceEvents").at(i);
        if (event.at("ph").asString() == "X" &&
            event.at("cat").asString() == "cell") {
            ++cell_spans;
            EXPECT_TRUE(event.has("args")) << event.dump();
            EXPECT_TRUE(event.at("args").has("workload"));
            EXPECT_TRUE(event.at("args").has("config"));
        }
    }
    EXPECT_EQ(cell_spans, cells.size());

    // The metrics registry saw every cell and all guest work.
    EXPECT_EQ(HostMetrics::global().cellsCompleted(), cells.size());
    uint64_t insts = 0, uops = 0;
    for (const RunResult &result : traced) {
        insts += result.instructions;
        uops += result.uops;
    }
    EXPECT_EQ(HostMetrics::global().guestInstructions(), insts);
    EXPECT_EQ(HostMetrics::global().guestUops(), uops);
}

TEST(HostMetricsRegistry, PrometheusTextIsWellFormed)
{
    const TelemetryOff off;
    HostMetrics::global().enable();
    HostMetrics::global().reset();
    HostMetrics::global().addPhaseSeconds("detailed-sim", 1.25);
    HostMetrics::global().recordGuestWork(1000, 1100);
    HostMetrics::global().recordCellCompleted();

    const std::string text = HostMetrics::global().prometheusText();
    std::istringstream lines(text);
    std::string line;
    size_t samples = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty()) << text;
        if (line[0] == '#') {
            EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                        line.rfind("# TYPE ", 0) == 0)
                << line;
            continue;
        }
        ++samples;
        EXPECT_EQ(line.compare(0, 7, "helios_"), 0) << line;
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        char *end = nullptr;
        std::strtod(line.c_str() + space + 1, &end);
        EXPECT_EQ(*end, '\0') << line;
    }
    EXPECT_GE(samples, 9u) << text;

    EXPECT_NE(text.find("helios_phase_seconds{phase=\"detailed-sim\"} "
                        "1.25"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("helios_guest_instructions_total 1000"),
              std::string::npos);
    EXPECT_GT(HostMetrics::peakRssBytes(), 0u);
}

TEST(HostMetricsRegistry, JsonSectionCarriesBuildInfoAndCounters)
{
    const TelemetryOff off;
    HostMetrics::global().enable();
    HostMetrics::global().reset();
    HostMetrics::global().addPhaseSeconds("cell", 0.5);
    HostMetrics::global().recordGuestWork(42, 64);

    const JsonValue host = HostMetrics::global().toJson();
    EXPECT_EQ(host.at("build").at("git_hash").asString(),
              buildInfo().gitHash);
    EXPECT_FALSE(host.at("build").at("compiler").asString().empty());
    EXPECT_GT(host.at("peak_rss_bytes").asUint(), 0u);
    EXPECT_GT(host.at("wall_seconds").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(host.at("phases").at("cell").asDouble(), 0.5);
    EXPECT_EQ(host.at("guest_instructions").asUint(), 42u);
    EXPECT_EQ(host.at("guest_uops").asUint(), 64u);
}

// ---------------------------------------------------------------------
// Schema v3: the `host` report section
// ---------------------------------------------------------------------

namespace
{

RunReportFile
reportWithOneRun()
{
    const Workload &workload = findWorkload("crc32");
    RunReportFile file;
    file.generator = "test_host_telemetry";
    file.add(runOne(workload, FusionMode::Helios, kBudget), kBudget);
    return file;
}

} // namespace

TEST(ReportSchemaV3, HostSectionRoundTrips)
{
    const TelemetryOff off;
    HostMetrics::global().enable();
    HostMetrics::global().reset();
    HostMetrics::global().addPhaseSeconds("detailed-sim", 2.0);

    RunReportFile file = reportWithOneRun();
    EXPECT_TRUE(file.host.isNull());
    attachHostSection(file);
    ASSERT_FALSE(file.host.isNull());

    const JsonValue json = file.toJson();
    EXPECT_EQ(json.at("version").asUint(), kRunReportVersion);
    ASSERT_TRUE(json.has("host"));
    EXPECT_DOUBLE_EQ(
        json.at("host").at("phases").at("detailed-sim").asDouble(),
        2.0);

    const RunReportFile parsed =
        RunReportFile::fromJsonText(file.toJsonText());
    EXPECT_TRUE(parsed == file);
    EXPECT_FALSE(parsed.host.isNull());
}

TEST(ReportSchemaV3, HostSectionIsOptional)
{
    const RunReportFile file = reportWithOneRun();
    const JsonValue json = file.toJson();
    EXPECT_FALSE(json.has("host"));
    const RunReportFile parsed =
        RunReportFile::fromJsonText(file.toJsonText());
    EXPECT_TRUE(parsed == file);
}

TEST(ReportSchemaV3, OlderSchemaVersionsStillParse)
{
    // The reader must accept v1, v2 and v3 files unchanged, so
    // reports archived by older builds keep loading.
    RunReportFile file = reportWithOneRun();
    JsonValue json = file.toJson();
    for (const uint64_t version :
         {uint64_t(1), uint64_t(2), uint64_t(3)}) {
        json.set("version", version);
        const RunReportFile parsed =
            RunReportFile::fromJsonText(json.dump(2));
        EXPECT_EQ(parsed.version, version);
        ASSERT_EQ(parsed.runs.size(), 1u);
        EXPECT_TRUE(parsed.runs[0] == file.runs[0]);
    }
}

TEST(ReportSchemaV3, NewerSchemaVersionIsRejected)
{
    RunReportFile file = reportWithOneRun();
    JsonValue json = file.toJson();
    json.set("version", uint64_t(kRunReportVersion + 1));
    EXPECT_THROW(RunReportFile::fromJsonText(json.dump(2)),
                 FatalError);
}
