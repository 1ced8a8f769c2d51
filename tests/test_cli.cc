/**
 * @file
 * Command-line contracts of the report tool chain.
 *
 * The exit-status rules a scripted caller (CI, bench drivers) relies
 * on: output paths that cannot be opened for writing fail fast with
 * exit 2 — before the simulation runs — and never silently succeed;
 * a writable path produces the promised artifact and exit 0. The same
 * contract is pinned for compare_reports (0 clean / 1 regression /
 * 2 usage or file error) and helios_annotate (0 ok / 1 malformed
 * input / 2 usage or unwritable --out), and the host-telemetry flags
 * (--log-level/--log-json/--host-trace/--metrics) are checked to be
 * pure observers: they change no simulated number.
 *
 * Drives the real binaries (HELIOS_RUN_BIN, COMPARE_REPORTS_BIN,
 * HELIOS_ANNOTATE_BIN, HELIOS_DB_BIN, FIGURES_BIN,
 * SAMPLING_ERROR_BIN and FUSION_EXPLORER_BIN, injected by CMake)
 * through std::system.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <sys/wait.h>

#include "common/json.hh"
#include "harness/run_report.hh"

using namespace helios;

namespace
{

/** Run helios_run on the dotprod example with @a args appended. */
int
runCli(const std::string &args)
{
    const std::string command = std::string(HELIOS_RUN_BIN) + " " +
                                DOTPROD_S +
                                " --max-insts 2000 " + args +
                                " > /dev/null 2>&1";
    const int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    return WEXITSTATUS(status);
}

/**
 * A path inside this test's own scratch directory. ctest runs every
 * discovered test as its own process, concurrently under -j, so
 * tests must not share file names.
 */
std::string
tempPath(const char *name)
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string dir = ::testing::TempDir() + "cli_" +
                            test->test_suite_name() + "." + test->name() +
                            "/";
    std::filesystem::create_directories(dir);
    return dir + name;
}

/** A path no process can create: inside a missing directory. */
std::string
unwritablePath(const char *name)
{
    return tempPath("no-such-dir/") + name;
}

} // namespace

TEST(Cli, UnwritableReportPathExitsTwo)
{
    EXPECT_EQ(runCli("--report " + unwritablePath("r.json")), 2);
}

TEST(Cli, UnwritableTracePathExitsTwo)
{
    EXPECT_EQ(runCli("--trace " + unwritablePath("t.json")), 2);
}

TEST(Cli, UnwritableProfilePathExitsTwo)
{
    EXPECT_EQ(runCli("--profile " + unwritablePath("p.json")), 2);
}

TEST(Cli, WritableReportSucceeds)
{
    const std::string path = tempPath("cli_report.json");
    std::remove(path.c_str());
    EXPECT_EQ(runCli("--report " + path), 0);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue report = JsonValue::parse(text.str());
    EXPECT_EQ(report.at("schema").asString(), "helios-run-report");
    std::remove(path.c_str());
}

TEST(Cli, ProfileWritesReportWithProfileSection)
{
    const std::string path = tempPath("cli_profile.json");
    std::remove(path.c_str());
    EXPECT_EQ(runCli("--profile " + path), 0);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue report = JsonValue::parse(text.str());
    EXPECT_EQ(report.at("version").asUint(), kRunReportVersion);
    ASSERT_GT(report.at("runs").size(), 0u);
    EXPECT_TRUE(report.at("runs").at(0).has("profile"));
    std::remove(path.c_str());
}

TEST(Cli, UnknownOptionExitsTwo)
{
    EXPECT_EQ(runCli("--no-such-flag"), 2);
}

namespace
{

/** Run helios_run with @a args, capturing stdout into @a out. */
int
runCliCapture(const std::string &args, std::string &out)
{
    const std::string path = tempPath("cli_stdout.txt");
    const std::string command = std::string(HELIOS_RUN_BIN) + " " +
                                DOTPROD_S + " --max-insts 2000 " +
                                args + " > " + path + " 2>&1";
    const int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    std::remove(path.c_str());
    return WEXITSTATUS(status);
}

} // namespace

TEST(Cli, TimeFlagPrintsSimulationSpeedLine)
{
    // One fixed-format line: wall seconds, host-MHz-equivalent
    // (simulated cycles per host second), simulated µops per second.
    std::string out;
    ASSERT_EQ(runCliCapture("--time", out), 0);
    double seconds = 0, mhz = 0, muops = 0;
    const char *line = std::strstr(out.c_str(), "time: ");
    ASSERT_NE(line, nullptr) << out;
    ASSERT_EQ(std::sscanf(line,
                          "time: %lf s wall, %lf MHz-equivalent, "
                          "%lf Muops/s",
                          &seconds, &mhz, &muops),
              3)
        << out;
    EXPECT_GE(seconds, 0.0);
    // A 2000-instruction run cannot take zero cycles or µops, so the
    // rates are positive whenever the clock resolved at all.
    if (seconds > 0) {
        EXPECT_GT(mhz, 0.0);
        EXPECT_GT(muops, 0.0);
    }
}

TEST(Cli, TimeFlagWorksWithSweep)
{
    std::string out;
    ASSERT_EQ(runCliCapture("--sweep --time --jobs 1", out), 0);
    EXPECT_NE(out.find("time: "), std::string::npos) << out;
}

TEST(Cli, TimeFlagWorksWithFunctional)
{
    // Functional mode has no cycles, so the line reports wall time
    // and retired instructions per second instead.
    std::string out;
    ASSERT_EQ(runCliCapture("--functional --time", out), 0);
    double seconds = 0, minst = 0;
    const char *line = std::strstr(out.c_str(), "time: ");
    ASSERT_NE(line, nullptr) << out;
    ASSERT_EQ(std::sscanf(line,
                          "time: %lf s wall, %lf Minst/s (functional)",
                          &seconds, &minst),
              2)
        << out;
    EXPECT_GE(seconds, 0.0);
    if (seconds > 0) {
        EXPECT_GT(minst, 0.0);
    }
}

// ---------------------------------------------------------------------
// Numeric flags and --config are strict: a unit suffix, a word, a sign
// or an unknown name is a usage error (exit 2) that names the flag,
// never a silently reinterpreted value or an abort.

namespace
{

/** `helios_run ... FLAG VALUE` must exit 2 naming FLAG and VALUE. */
void
expectBadCount(const std::string &flag, const std::string &value)
{
    std::string out;
    EXPECT_EQ(runCliCapture(flag + " " + value, out), 2)
        << flag << " " << value;
    EXPECT_NE(out.find(flag + " needs "), std::string::npos) << out;
    EXPECT_NE(out.find("(got '" + value + "')"), std::string::npos)
        << out;
}

} // namespace

TEST(Cli, MaxInstsRejectsMalformedCounts)
{
    for (const char *value : {"2k", "abc", "-5", "0", "1e3"})
        expectBadCount("--max-insts", value);
}

TEST(Cli, JobsRejectsMalformedCounts)
{
    // 5000 is past HELIOS_JOBS's cap, which --jobs shares.
    for (const char *value : {"2k", "abc", "-1", "0", "5000"})
        expectBadCount("--jobs", value);
}

TEST(Cli, WindowRejectsMalformedCountsButKeepsZero)
{
    for (const char *value : {"2k", "abc", "-1"})
        expectBadCount("--window", value);
    // 0 still disables the profiler's windowed samples.
    EXPECT_EQ(runCli("--profile " + tempPath("p.json") + " --window 0"),
              0);
}

TEST(Cli, UnknownConfigExitsTwoWithNamedError)
{
    std::string out;
    EXPECT_EQ(runCliCapture("--config Bogus", out), 2);
    EXPECT_NE(out.find("unknown fusion mode 'Bogus'"), std::string::npos)
        << out;
}

TEST(Cli, EngineIsAnUnknownOption)
{
    // Functional runs have one execution path; there is no engine to
    // pick.
    std::string out;
    EXPECT_EQ(runCliCapture("--functional --engine fast", out), 2);
    EXPECT_NE(out.find("unknown option '--engine'"), std::string::npos)
        << out;
}

// ---------------------------------------------------------------------
// Real-binary (--elf) frontend

namespace
{

/** Run helios_run with a raw argument string (no implicit input). */
int
runRaw(const std::string &args, std::string &out)
{
    const std::string path = tempPath("cli_raw_stdout.txt");
    const std::string command = std::string(HELIOS_RUN_BIN) + " " +
                                args + " > " + path + " 2>&1";
    const int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    std::remove(path.c_str());
    return WEXITSTATUS(status);
}

/** Emit an ELF image for a tiny exit-with-7 kernel; returns its path. */
std::string
makeExitSevenElf()
{
    const std::string asm_path = tempPath("cli_exit7.s");
    const std::string elf_path = tempPath("cli_exit7.elf");
    {
        std::ofstream out(asm_path);
        out << "li a0, 7\nli a7, 93\necall\n";
    }
    std::string text;
    EXPECT_EQ(runRaw(asm_path + " --emit-elf " + elf_path, text), 0)
        << text;
    return elf_path;
}

} // namespace

TEST(Cli, ElfMissingFileExitsTwo)
{
    std::string out;
    EXPECT_EQ(runRaw("--elf " + unwritablePath("missing.elf"), out),
              2);
    EXPECT_NE(out.find("cannot open"), std::string::npos) << out;
}

TEST(Cli, ElfConflictsWithAssemblyInputExitsTwo)
{
    std::string out;
    EXPECT_EQ(runRaw(std::string(DOTPROD_S) + " --elf whatever.elf",
                     out),
              2);
    EXPECT_NE(out.find("conflicts"), std::string::npos) << out;
}

TEST(Cli, ArgvWithoutElfExitsTwo)
{
    std::string out;
    EXPECT_EQ(runRaw(std::string(DOTPROD_S) + " --argv x y", out), 2);
    EXPECT_NE(out.find("--elf"), std::string::npos) << out;
}

TEST(Cli, MalformedElfExitsOne)
{
    const std::string path = tempPath("cli_garbage.elf");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not an ELF image at all................";
    }
    std::string out;
    EXPECT_EQ(runRaw("--elf " + path, out), 1);
    EXPECT_NE(out.find("ELF"), std::string::npos) << out;
    std::remove(path.c_str());
}

TEST(Cli, EmitElfThenRunPropagatesGuestExitCode)
{
    const std::string elf_path = makeExitSevenElf();
    std::string out;
    EXPECT_EQ(runRaw("--elf " + elf_path + " --functional", out), 7)
        << out;
    EXPECT_NE(out.find("exit code (a0): 7"), std::string::npos) << out;
    // The frontend banner names the image and its fingerprint.
    EXPECT_NE(out.find("elf: "), std::string::npos) << out;
    EXPECT_NE(out.find("hash 0x"), std::string::npos) << out;
    std::remove(elf_path.c_str());
}

TEST(Cli, ElfTimingRunAlsoPropagatesExitCode)
{
    const std::string elf_path = makeExitSevenElf();
    std::string out;
    EXPECT_EQ(runRaw("--elf " + elf_path + " --config Helios", out),
              7)
        << out;
    std::remove(elf_path.c_str());
}

// ---------------------------------------------------------------------
// Host telemetry flags (--log-level/--log-json/--host-trace/--metrics)

namespace
{

/** Read a whole file into a string; empty when unreadable. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

TEST(CliTelemetry, BadLogLevelExitsTwo)
{
    EXPECT_EQ(runCli("--log-level shouting"), 2);
}

TEST(CliTelemetry, UnwritableTelemetryPathsExitTwo)
{
    EXPECT_EQ(runCli("--log-json " + unwritablePath("l.jsonl")), 2);
    EXPECT_EQ(runCli("--host-trace " + unwritablePath("t.json")), 2);
    EXPECT_EQ(runCli("--metrics " + unwritablePath("m.prom")), 2);
}

TEST(CliTelemetry, HostTraceIsWellFormedChromeTrace)
{
    const std::string path = tempPath("cli_host_trace.json");
    std::remove(path.c_str());
    ASSERT_EQ(runCli("--host-trace " + path), 0);

    const JsonValue trace = JsonValue::parse(slurp(path));
    ASSERT_TRUE(trace.has("traceEvents"));
    bool saw_sim_span = false;
    for (size_t i = 0; i < trace.at("traceEvents").size(); ++i) {
        const JsonValue &event = trace.at("traceEvents").at(i);
        if (event.at("ph").asString() == "X" &&
            event.at("name").asString() == "detailed-sim")
            saw_sim_span = true;
    }
    EXPECT_TRUE(saw_sim_span) << slurp(path);
    std::remove(path.c_str());
}

TEST(CliTelemetry, MetricsFileIsWellFormedPrometheusText)
{
    const std::string path = tempPath("cli_metrics.prom");
    std::remove(path.c_str());
    ASSERT_EQ(runCli("--metrics " + path), 0);

    const std::string text = slurp(path);
    EXPECT_NE(text.find("helios_build_info{"), std::string::npos);
    EXPECT_NE(text.find("helios_peak_rss_bytes "), std::string::npos);
    EXPECT_NE(text.find("helios_guest_instructions_total "),
              std::string::npos);
    // Every line is a comment or "name[{labels}] value".
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_EQ(line.compare(0, 7, "helios_"), 0) << line;
        char *end = nullptr;
        std::strtod(line.c_str() + space + 1, &end);
        EXPECT_EQ(*end, '\0') << line;
    }
    std::remove(path.c_str());
}

TEST(CliTelemetry, JsonLogSinkEmitsParsableRecords)
{
    const std::string path = tempPath("cli_log.jsonl");
    std::remove(path.c_str());
    ASSERT_EQ(runCli("--log-level trace --log-json " + path +
                     " --sweep --jobs 2"),
              0);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::string line;
    size_t records = 0;
    while (std::getline(in, line)) {
        const JsonValue record = JsonValue::parse(line);
        EXPECT_TRUE(record.has("ts")) << line;
        EXPECT_TRUE(record.has("level")) << line;
        EXPECT_TRUE(record.has("msg")) << line;
        EXPECT_TRUE(record.has("thread")) << line;
        ++records;
    }
    EXPECT_GT(records, 0u);
    std::remove(path.c_str());
}

TEST(CliTelemetry, TelemetryChangesNoTimingResult)
{
    // The determinism guard for the whole host-telemetry stack: a
    // sweep with every flag armed must produce bit-identical runs and
    // verdicts; only the (additive, host-only) extras may differ.
    const std::string plain_path = tempPath("cli_det_plain.json");
    const std::string telem_path = tempPath("cli_det_telem.json");
    ASSERT_EQ(runCli("--sweep --jobs 2 --report " + plain_path), 0);
    ASSERT_EQ(runCli("--sweep --jobs 2 --report " + telem_path +
                     " --log-level trace --log-json " +
                     tempPath("cli_det.jsonl") + " --host-trace " +
                     tempPath("cli_det_trace.json") + " --metrics " +
                     tempPath("cli_det.prom")),
              0);

    const RunReportFile plain = RunReportFile::load(plain_path);
    const RunReportFile telem = RunReportFile::load(telem_path);
    EXPECT_EQ(telem.version, kRunReportVersion);
    EXPECT_TRUE(plain.host.isNull());
    EXPECT_FALSE(telem.host.isNull());
    EXPECT_TRUE(plain.runs == telem.runs);
    EXPECT_TRUE(plain.verdicts == telem.verdicts);

    for (const char *name : {"cli_det_plain.json", "cli_det_telem.json",
                             "cli_det.jsonl", "cli_det_trace.json",
                             "cli_det.prom"})
        std::remove(tempPath(name).c_str());
}

TEST(CliTelemetry, TelemetryChangesNoFunctionalResult)
{
    // With and without telemetry: identical instruction count and
    // guest-visible result lines.
    std::string plain, telem;
    ASSERT_EQ(runCliCapture("--functional", plain), 0);
    ASSERT_EQ(runCliCapture("--functional --log-level trace --host-trace " +
                                tempPath("cli_det_func.json") +
                                " --metrics " +
                                tempPath("cli_det_func.prom"),
                            telem),
              0);
    unsigned long long plain_insts = 0, telem_insts = 0;
    ASSERT_EQ(std::sscanf(std::strstr(plain.c_str(), "functional:"),
                          "functional: %llu", &plain_insts),
              1)
        << plain;
    ASSERT_EQ(std::sscanf(std::strstr(telem.c_str(), "functional:"),
                          "functional: %llu", &telem_insts),
              1)
        << telem;
    EXPECT_EQ(plain_insts, telem_insts);
    EXPECT_EQ(plain.find("exit code") != std::string::npos,
              telem.find("exit code") != std::string::npos);
    std::remove(tempPath("cli_det_func.json").c_str());
    std::remove(tempPath("cli_det_func.prom").c_str());
}

// ---------------------------------------------------------------------
// compare_reports exit-status contract (0 clean / 1 regression /
// 2 usage or file error)

namespace
{

/** Run an arbitrary tool binary with @a args, capturing all output. */
int
runTool(const char *bin, const std::string &args, std::string &out)
{
    const std::string path = tempPath("cli_tool_stdout.txt");
    const std::string command = std::string(bin) + " " + args + " > " +
                                path + " 2>&1";
    const int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    out = slurp(path);
    std::remove(path.c_str());
    return WEXITSTATUS(status);
}

/** Write @a text to a temp file named @a name; returns the path. */
std::string
writeTemp(const char *name, const std::string &text)
{
    const std::string path = tempPath(name);
    std::ofstream out(path);
    out << text;
    return path;
}

} // namespace

// ---------------------------------------------------------------------
// Every HELIOS_* variable a run reads is as strict as the flags: a bad
// value exits 2 naming the variable and quoting the value, before any
// work, in helios_run and in the figure benches alike.

namespace
{

/** Bad settings, each with the text its error must contain. Nothing
 *  can be created under /dev/null, which is not a directory. */
const std::pair<const char *, const char *> kBadEnv[] = {
    {"HELIOS_JOBS=bogus",
     "HELIOS_JOBS needs an integer from 1 to 1024 (got 'bogus')"},
    {"HELIOS_JOBS=0",
     "HELIOS_JOBS needs an integer from 1 to 1024 (got '0')"},
    {"HELIOS_MAX_INSTS=2k",
     "HELIOS_MAX_INSTS needs a positive integer (got '2k')"},
    {"HELIOS_HEARTBEAT=abc",
     "HELIOS_HEARTBEAT needs a non-negative number (got 'abc')"},
    {"HELIOS_HEARTBEAT=-1",
     "HELIOS_HEARTBEAT needs a non-negative number (got '-1')"},
    {"HELIOS_PROGRESS=off",
     "HELIOS_PROGRESS needs an integer from 0 to 1 (got 'off')"},
    {"HELIOS_PROFILE=abc",
     "HELIOS_PROFILE needs a non-negative integer (got 'abc')"},
    {"HELIOS_LOG=bogus", "HELIOS_LOG: unknown log level 'bogus'"},
    {"HELIOS_LOG_JSON=/dev/null/log.jsonl",
     "HELIOS_LOG_JSON: cannot open '/dev/null/log.jsonl' for writing"},
    {"HELIOS_HOST_TRACE=/dev/null/trace.json",
     "HELIOS_HOST_TRACE: cannot open '/dev/null/trace.json' for writing"},
    {"HELIOS_METRICS=/dev/null/metrics.prom",
     "HELIOS_METRICS: cannot open '/dev/null/metrics.prom' for writing"},
    {"HELIOS_REPORT=/dev/null/report.json",
     "HELIOS_REPORT: cannot open '/dev/null/report.json' for writing"},
    {"HELIOS_LEDGER=/dev/null/ledger",
     "HELIOS_LEDGER: cannot write to '/dev/null/ledger'"},
};

/** A rejected invocation: exit 2, @a message in the output, and no
 *  simulation output — no [matrix] footer and no result table. */
void
expectRejected(const std::string &what, int status,
               const std::string &out, const std::string &message)
{
    EXPECT_EQ(status, 2) << what << "\n" << out;
    EXPECT_NE(out.find(message), std::string::npos) << what << "\n"
                                                    << out;
    EXPECT_EQ(out.find("[matrix]"), std::string::npos) << what << "\n"
                                                       << out;
    EXPECT_EQ(out.find("----"), std::string::npos) << what << "\n"
                                                   << out;
}

} // namespace

TEST(Cli, BadEnvironmentValuesExitTwoWithNamedError)
{
    const std::string sweep = std::string(HELIOS_RUN_BIN) + " " +
                              DOTPROD_S + " --sweep --max-insts 2000";
    for (const auto &[setting, message] : kBadEnv) {
        std::string out;
        const int status =
            runTool("env", std::string(setting) + " " + sweep, out);
        expectRejected(setting, status, out, message);
    }
    // 0 still turns the heartbeat off.
    std::string out;
    EXPECT_EQ(runTool("env", "HELIOS_HEARTBEAT=0 " + sweep, out), 0)
        << out;
}

TEST(Cli, FigureBenchRejectsBadEnvironmentValues)
{
    // A small budget keeps a regression (a bench that runs anyway)
    // quick; HELIOS_MAX_INSTS's own case overrides it.
    for (const auto &[setting, message] : kBadEnv) {
        std::string out;
        const int status =
            runTool("env",
                    std::string("HELIOS_MAX_INSTS=1000 ") + setting + " " +
                        FIGURES_BIN,
                    out);
        expectRejected(setting, status, out, message);
    }
}

// ---------------------------------------------------------------------
// One table across the seven tools: every value a tool once misread (a
// word or suffix read as 0 or as its leading digits, a sign wrapped to
// a huge count, an unknown name that aborted, an unwritable output
// found only after the work) and every helios_run flag conflict exits
// 2 before any work, naming the flag or operand and quoting the value.

namespace
{

struct BadInvocation
{
    const char *bin;
    const char *args;    ///< "{tmp}" stands for the test's directory
    const char *message; ///< text the error must contain
};

const BadInvocation kBadInvocations[] = {
    {COMPARE_REPORTS_BIN,
     SUITE_BASELINE " " SUITE_BASELINE " --tolerance abc",
     "--tolerance needs a non-negative number (got 'abc')"},
    {COMPARE_REPORTS_BIN,
     SUITE_BASELINE " " SUITE_BASELINE " --tolerance 2x",
     "--tolerance needs a non-negative number (got '2x')"},
    {COMPARE_REPORTS_BIN,
     SUITE_BASELINE " " SUITE_BASELINE " --tolerance -5",
     "--tolerance needs a non-negative number (got '-5')"},
    {HELIOS_DB_BIN, "trend {tmp}db --metric ipc --window abc",
     "--window needs a non-negative integer (got 'abc')"},
    {HELIOS_DB_BIN, "trend {tmp}db --metric ipc --tolerance abc",
     "--tolerance needs a non-negative number (got 'abc')"},
    {HELIOS_DB_BIN, "show {tmp}db -1",
     "SEQ needs a non-negative integer (got '-1')"},
    {HELIOS_ANNOTATE_BIN, "r.json p.s --top x",
     "--top needs a non-negative integer (got 'x')"},
    {SAMPLING_ERROR_BIN, "--tolerance abc",
     "--tolerance needs a non-negative number (got 'abc')"},
    {SAMPLING_ERROR_BIN, "--budget 2k",
     "--budget needs a positive integer (got '2k')"},
    {SAMPLING_ERROR_BIN, "--report /dev/null/r.json",
     "--report: cannot open '/dev/null/r.json' for writing"},
    {FUSION_EXPLORER_BIN, "qsort 2k",
     "max_insts needs a positive integer (got '2k')"},
    {FUSION_EXPLORER_BIN, "bogus", "unknown workload 'bogus'"},
    {FUSION_EXPLORER_BIN, "--bogus", "unknown option '--bogus'"},
    {HELIOS_RUN_BIN, DOTPROD_S " " DOTPROD_S,
     "unexpected operand '" DOTPROD_S "'"},
    // Conflicting helios_run flags.
    {HELIOS_RUN_BIN, DOTPROD_S " --audit --functional",
     "--audit checks the timing pipeline; drop --functional"},
    {HELIOS_RUN_BIN, DOTPROD_S " --functional --trace {tmp}t.json",
     "--trace/--cpi-stack/--profile/--annotate need the timing model"},
    {HELIOS_RUN_BIN, DOTPROD_S " --functional --cpi-stack",
     "--trace/--cpi-stack/--profile/--annotate need the timing model"},
    {HELIOS_RUN_BIN, DOTPROD_S " --sweep --trace {tmp}t.json",
     "--trace records one run; pick a --config instead of --sweep"},
    {HELIOS_RUN_BIN, DOTPROD_S " --sweep --annotate",
     "--annotate renders one run; pick a --config instead of --sweep"},
    {HELIOS_RUN_BIN, DOTPROD_S " --sweep --audit --profile {tmp}p.json",
     "--profile is not routed through the differential harness"},
    {HELIOS_RUN_BIN,
     DOTPROD_S " --max-insts 2000 --sample 2 --interval 500 --warmup 100"
               " --annotate",
     "--trace/--annotate/--profile/--audit observe every committed "
     "instruction"},
};

} // namespace

TEST(CliStrictInput, EveryToolRejectsBadInputBeforeAnyWork)
{
    const std::string tmp = tempPath("");
    for (const BadInvocation &row : kBadInvocations) {
        std::string args = row.args;
        for (size_t at; (at = args.find("{tmp}")) != std::string::npos;)
            args.replace(at, 5, tmp);
        std::string out;
        const int status = runTool(row.bin, args, out);
        expectRejected(std::string(row.bin) + " " + args, status, out,
                       row.message);
    }
}

TEST(CompareReports, MissingArgumentsExitTwo)
{
    std::string out;
    EXPECT_EQ(runTool(COMPARE_REPORTS_BIN, "", out), 2);
    EXPECT_NE(out.find("usage:"), std::string::npos) << out;
    EXPECT_EQ(runTool(COMPARE_REPORTS_BIN, "only_one.json", out), 2);
}

TEST(CompareReports, UnknownOptionExitsTwo)
{
    std::string out;
    EXPECT_EQ(runTool(COMPARE_REPORTS_BIN,
                      "a.json b.json --frobnicate", out),
              2);
    EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST(CompareReports, MissingFileExitsTwo)
{
    std::string out;
    EXPECT_EQ(runTool(COMPARE_REPORTS_BIN,
                      unwritablePath("base.json") + " " +
                          unwritablePath("cur.json"),
                      out),
              2);
    EXPECT_NE(out.find("compare_reports:"), std::string::npos) << out;
}

TEST(CompareReports, MalformedJsonExitsTwo)
{
    const std::string path =
        writeTemp("cli_broken.json", "{\"runs\": [");
    std::string out;
    EXPECT_EQ(runTool(COMPARE_REPORTS_BIN, path + " " + path, out), 2);
    EXPECT_NE(out.find("compare_reports:"), std::string::npos) << out;
    std::remove(path.c_str());
}

TEST(CompareReports, SelfCompareIsCleanAndIgnoresHostSection)
{
    // Two reports of the same run, one carrying a host section: the
    // host data describes the producing machine, not the simulation,
    // so the comparison must be clean.
    const std::string plain_path = tempPath("cli_cmp_plain.json");
    const std::string telem_path = tempPath("cli_cmp_telem.json");
    ASSERT_EQ(runCli("--report " + plain_path), 0);
    ASSERT_EQ(runCli("--report " + telem_path + " --metrics " +
                     tempPath("cli_cmp.prom")),
              0);

    std::string out;
    EXPECT_EQ(runTool(COMPARE_REPORTS_BIN,
                      plain_path + " " + telem_path, out),
              0)
        << out;
    EXPECT_NE(out.find("0 regression(s)"), std::string::npos) << out;

    std::remove(plain_path.c_str());
    std::remove(telem_path.c_str());
    std::remove(tempPath("cli_cmp.prom").c_str());
}

// ---------------------------------------------------------------------
// helios_annotate exit-status contract (0 ok / 1 malformed input /
// 2 usage or unwritable --out)

TEST(Annotate, MissingArgumentsExitTwo)
{
    std::string out;
    EXPECT_EQ(runTool(HELIOS_ANNOTATE_BIN, "", out), 2);
    EXPECT_NE(out.find("usage:"), std::string::npos) << out;
    EXPECT_EQ(runTool(HELIOS_ANNOTATE_BIN, "only_report.json", out), 2);
}

TEST(Annotate, UnknownOptionExitsTwo)
{
    std::string out;
    EXPECT_EQ(runTool(HELIOS_ANNOTATE_BIN,
                      std::string("r.json p.s --frobnicate"), out),
              2);
    EXPECT_NE(out.find("unknown option"), std::string::npos) << out;
}

TEST(Annotate, MissingReportExitsOne)
{
    std::string out;
    EXPECT_EQ(runTool(HELIOS_ANNOTATE_BIN,
                      unwritablePath("r.json") + " " + DOTPROD_S, out),
              1);
    EXPECT_NE(out.find("helios_annotate:"), std::string::npos) << out;
}

TEST(Annotate, MalformedJsonExitsOne)
{
    const std::string path =
        writeTemp("cli_ann_broken.json", "not json at all");
    std::string out;
    EXPECT_EQ(runTool(HELIOS_ANNOTATE_BIN,
                      path + " " + DOTPROD_S, out),
              1);
    std::remove(path.c_str());
}

TEST(Annotate, UnprofiledReportExitsOne)
{
    const std::string report_path = tempPath("cli_ann_plain.json");
    ASSERT_EQ(runCli("--report " + report_path), 0);
    std::string out;
    EXPECT_EQ(runTool(HELIOS_ANNOTATE_BIN,
                      report_path + " " + DOTPROD_S, out),
              1);
    EXPECT_NE(out.find("--profile"), std::string::npos) << out;
    std::remove(report_path.c_str());
}

TEST(Annotate, UnwritableOutExitsTwo)
{
    const std::string report_path = tempPath("cli_ann_prof.json");
    ASSERT_EQ(runCli("--profile " + report_path), 0);
    std::string out;
    const std::string out_path = unwritablePath("a.txt");
    EXPECT_EQ(runTool(HELIOS_ANNOTATE_BIN,
                      report_path + " " + DOTPROD_S + " --out " +
                          out_path,
                      out),
              2);
    EXPECT_NE(out.find("--out: cannot open '" + out_path + "'"),
              std::string::npos)
        << out;
    std::remove(report_path.c_str());
}

TEST(Annotate, ProfiledReportAnnotatesCleanly)
{
    const std::string report_path = tempPath("cli_ann_ok.json");
    ASSERT_EQ(runCli("--profile " + report_path), 0);
    std::string out;
    EXPECT_EQ(runTool(HELIOS_ANNOTATE_BIN,
                      report_path + " " + DOTPROD_S, out),
              0)
        << out;
    std::remove(report_path.c_str());
}

TEST(Cli, ElfSweepReportRecordsProgramHash)
{
    const std::string elf_path = makeExitSevenElf();
    const std::string report_path = tempPath("cli_elf_report.json");
    std::remove(report_path.c_str());

    std::string out;
    // --sweep compares configurations; it must not propagate the
    // guest exit code, so a clean sweep exits 0.
    EXPECT_EQ(runRaw("--elf " + elf_path + " --sweep --jobs 1 "
                     "--report " + report_path,
                     out),
              0)
        << out;

    std::ifstream in(report_path);
    ASSERT_TRUE(in.good()) << report_path;
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue report = JsonValue::parse(text.str());
    ASSERT_GT(report.at("runs").size(), 0u);
    for (size_t i = 0; i < report.at("runs").size(); ++i) {
        const JsonValue &run = report.at("runs").at(i);
        ASSERT_TRUE(run.has("program_hash"));
        EXPECT_NE(run.at("program_hash").asUint(), 0u);
        EXPECT_EQ(run.at("exit_code").asUint(), 7u);
    }
    std::remove(report_path.c_str());
    std::remove(elf_path.c_str());
}

// ---------------------------------------------------------------------
// Run ledger (--ledger / HELIOS_LEDGER) and helios_db

namespace
{

/** Fresh ledger directory under the test temp dir. */
std::string
ledgerDir(const char *name)
{
    const std::string dir = tempPath(name);
    std::system(("rm -rf " + dir).c_str());
    return dir;
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Copy @a report_path with runs[0]'s ipc scaled by @a factor —
 *  the injected regression the trend/diff gates must catch. */
std::string
withScaledIpc(const std::string &report_path, double factor,
              const char *name)
{
    JsonValue json = JsonValue::parse(readWholeFile(report_path));
    JsonValue run = json.at("runs").at(size_t(0));
    run.set("ipc", JsonValue(run.at("ipc").asDouble() * factor));
    JsonValue runs = JsonValue::array();
    runs.push(run);
    for (size_t i = 1; i < json.at("runs").size(); ++i)
        runs.push(json.at("runs").at(i));
    json.set("runs", runs);
    return writeTemp(name, json.dump(2));
}

} // namespace

TEST(CompareReports, InjectedIpcRegressionExitsOne)
{
    const std::string base_path = tempPath("cli_reg_base.json");
    ASSERT_EQ(runCli("--report " + base_path), 0);
    const std::string bad_path =
        withScaledIpc(base_path, 0.8, "cli_reg_bad.json");

    std::string out;
    EXPECT_EQ(runTool(COMPARE_REPORTS_BIN, base_path + " " + bad_path,
                      out),
              1)
        << out;
    EXPECT_NE(out.find("IPC"), std::string::npos) << out;
    EXPECT_NE(out.find("1 regression(s)"), std::string::npos) << out;

    std::remove(base_path.c_str());
    std::remove(bad_path.c_str());
}

TEST(CliLedger, BackToBackRunsRecordThenHit)
{
    const std::string dir = ledgerDir("cli_ledger_hit");

    std::string out;
    ASSERT_EQ(runRaw(std::string(DOTPROD_S) +
                         " --max-insts 2000 --ledger " + dir,
                     out),
              0);
    EXPECT_NE(out.find("ledger: recorded 1 run"), std::string::npos)
        << out;

    ASSERT_EQ(runRaw(std::string(DOTPROD_S) +
                         " --max-insts 2000 --ledger " + dir,
                     out),
              0);
    EXPECT_NE(out.find("ledger: hit"), std::string::npos) << out;

    // Identical back-to-back runs leave exactly one index record.
    const std::string index = readWholeFile(dir + "/index.jsonl");
    EXPECT_EQ(std::count(index.begin(), index.end(), '\n'), 1) << index;

    std::system(("rm -rf " + dir).c_str());
}

TEST(CliLedger, EnvVarArmsTheLedger)
{
    const std::string dir = ledgerDir("cli_ledger_env");
    setenv("HELIOS_LEDGER", dir.c_str(), 1);
    std::string out;
    const int status = runRaw(
        std::string(DOTPROD_S) + " --max-insts 2000", out);
    unsetenv("HELIOS_LEDGER");
    ASSERT_EQ(status, 0);
    EXPECT_NE(out.find("ledger: recorded 1 run"), std::string::npos)
        << out;
    std::system(("rm -rf " + dir).c_str());
}

TEST(CliLedger, LedgerChangesNoTimingResult)
{
    // Observer-effect guard at the CLI level: a run recorded into a
    // ledger must produce a byte-identical report (host section
    // aside, which neither run carries here).
    const std::string dir = ledgerDir("cli_ledger_pure");
    const std::string plain_path = tempPath("cli_ledger_plain.json");
    const std::string armed_path = tempPath("cli_ledger_armed.json");
    ASSERT_EQ(runCli("--report " + plain_path), 0);
    ASSERT_EQ(runCli("--report " + armed_path + " --ledger " + dir),
              0);
    EXPECT_EQ(readWholeFile(plain_path), readWholeFile(armed_path));
    std::remove(plain_path.c_str());
    std::remove(armed_path.c_str());
    std::system(("rm -rf " + dir).c_str());
}

// ---------------------------------------------------------------------
// Sampled simulation flags (--sample/--interval/--warmup/
// --checkpoint-dir): usage errors, the trace/profile conflict among
// them, exit 2 before anything runs; a good spec prints the estimate
// line and writes a schema-v5 report.

TEST(CliSampling, ZeroIntervalExitsTwo)
{
    EXPECT_EQ(runCli("--sample 4 --interval 0"), 2);
}

TEST(CliSampling, NegativeIntervalExitsTwo)
{
    EXPECT_EQ(runCli("--sample 4 --interval -5"), 2);
    EXPECT_EQ(runCli("--sample -1"), 2);
}

TEST(CliSampling, WarmupNotShorterThanIntervalExitsTwo)
{
    EXPECT_EQ(runCli("--sample 2 --interval 500 --warmup 500"), 2);
    EXPECT_EQ(runCli("--sample 2 --interval 500 --warmup 600"), 2);
}

TEST(CliSampling, FrameTooSmallForWindowsExitsTwo)
{
    // budget 2000 / 4 samples = 500 stride < 100 + 900 window.
    EXPECT_EQ(runCli("--sample 4 --interval 900 --warmup 100"), 2);
}

TEST(CliSampling, SampleWithFunctionalExitsTwo)
{
    std::string out;
    EXPECT_EQ(runCliCapture("--sample 2 --interval 500 --warmup 100 "
                            "--functional",
                            out),
              2);
    EXPECT_NE(out.find("--functional"), std::string::npos) << out;
}

TEST(CliSampling, SampleWithoutMaxInstsExitsTwo)
{
    std::string out;
    EXPECT_EQ(runRaw(std::string(DOTPROD_S) + " --sample 4", out), 2);
    EXPECT_NE(out.find("--max-insts"), std::string::npos) << out;
}

TEST(CliSampling, SamplingFlagsWithoutSampleExitTwo)
{
    EXPECT_EQ(runCli("--interval 500"), 2);
    EXPECT_EQ(runCli("--warmup 100"), 2);
    EXPECT_EQ(runCli("--checkpoint-dir " + tempPath("ckpt_orphan")), 2);
}

TEST(CliSampling, UnwritableCheckpointDirExitsTwo)
{
    // A path through a regular file cannot be created as a directory
    // no matter the privileges.
    const std::string file_path = writeTemp("cli_ckpt_file", "x");
    std::string out;
    EXPECT_EQ(runCliCapture("--sample 2 --interval 500 --warmup 100 "
                            "--checkpoint-dir " +
                                file_path + "/sub",
                            out),
              2);
    EXPECT_NE(out.find("--checkpoint-dir"), std::string::npos) << out;
    std::remove(file_path.c_str());
}

TEST(CliSampling, SampleConflictsWithWholeRunObserversExitsTwo)
{
    // --trace and friends observe every committed instruction; a
    // sampled run only executes windows, so the combination is a
    // usage error, not a silent partial trace.
    EXPECT_EQ(runCli("--sample 2 --interval 500 --warmup 100 --trace " +
                     tempPath("cli_sample_trace.json")),
              2);
    EXPECT_EQ(runCli("--sample 2 --interval 500 --warmup 100 "
                     "--profile " +
                     tempPath("cli_sample_prof.json")),
              2);
}

TEST(CliSampling, SampledRunPrintsEstimateAndWritesV5Report)
{
    const std::string report_path = tempPath("cli_sampled_report.json");
    std::remove(report_path.c_str());

    std::string out;
    ASSERT_EQ(runCliCapture("--sample 2 --interval 500 --warmup 100 "
                            "--report " +
                                report_path,
                            out),
              0)
        << out;
    EXPECT_NE(out.find("sampling: 2 checkpoint(s)"), std::string::npos)
        << out;
    EXPECT_NE(out.find("sampled: "), std::string::npos) << out;
    EXPECT_NE(out.find("95% CI"), std::string::npos) << out;

    const JsonValue report = JsonValue::parse(slurp(report_path));
    EXPECT_EQ(report.at("version").asUint(), kRunReportVersion);
    ASSERT_GT(report.at("runs").size(), 0u);
    const JsonValue &run = report.at("runs").at(size_t(0));
    ASSERT_TRUE(run.has("sampled")) << report.dump(2);
    const JsonValue &sampled = run.at("sampled");
    EXPECT_EQ(sampled.at("spec").at("samples").asUint(), 2u);
    EXPECT_EQ(sampled.at("spec").at("interval").asUint(), 500u);
    EXPECT_EQ(sampled.at("ipc").at("samples").asUint(), 2u);
    std::remove(report_path.c_str());
}

TEST(CliSampling, SampledSweepReusesOneCheckpointSet)
{
    const std::string dir = tempPath("cli_sampled_sweep_ckpt");
    std::system(("rm -rf " + dir).c_str());

    std::string out;
    ASSERT_EQ(runCliCapture("--sweep --jobs 2 --sample 2 "
                            "--interval 500 --warmup 100 "
                            "--checkpoint-dir " +
                                dir,
                            out),
              0)
        << out;
    // One fast-forward serves all six configurations...
    EXPECT_NE(out.find("fast-forwarded"), std::string::npos) << out;
    EXPECT_NE(out.find("vs NoFusion"), std::string::npos) << out;

    // ...and a re-run reuses the persisted set.
    ASSERT_EQ(runCliCapture("--sample 2 --interval 500 --warmup 100 "
                            "--checkpoint-dir " +
                                dir,
                            out),
              0)
        << out;
    EXPECT_NE(out.find("reused from checkpoint dir"), std::string::npos)
        << out;
    std::system(("rm -rf " + dir).c_str());
}

TEST(HeliosDb, MissingArgumentsExitTwo)
{
    std::string out;
    EXPECT_EQ(runTool(HELIOS_DB_BIN, "", out), 2);
    EXPECT_NE(out.find("usage:"), std::string::npos) << out;
    EXPECT_EQ(runTool(HELIOS_DB_BIN, "frobnicate somewhere", out), 2);
    EXPECT_EQ(
        runTool(HELIOS_DB_BIN,
                "trend " + ledgerDir("cli_db_noargs"), out),
        2); // trend without --metric
}

TEST(HeliosDb, IngestTrendDiffGcWorkflow)
{
    // The full drift-observatory loop in miniature: seed a history
    // from one report under synthetic build names, inject an IPC
    // regression, and watch trend + diff flag it.
    const std::string dir = ledgerDir("cli_db_flow");
    const std::string report_path = tempPath("cli_db_report.json");
    ASSERT_EQ(runCli("--report " + report_path), 0);

    std::string out;
    for (const char *build : {"seed-1", "seed-2", "seed-3"}) {
        ASSERT_EQ(runTool(HELIOS_DB_BIN,
                          "ingest " + dir + " " + report_path +
                              " --build " + std::string(build),
                          out),
                  0)
            << out;
        EXPECT_NE(out.find("1 run(s) recorded"), std::string::npos)
            << out;
    }
    // Re-ingesting an existing build is a keyed hit, not a new point.
    ASSERT_EQ(runTool(HELIOS_DB_BIN,
                      "ingest " + dir + " " + report_path +
                          " --build seed-1",
                      out),
              0);
    EXPECT_NE(out.find("1 already present"), std::string::npos) << out;

    // Clean history: trend gate passes.
    EXPECT_EQ(runTool(HELIOS_DB_BIN, "trend " + dir + " --metric ipc",
                      out),
              0)
        << out;
    EXPECT_NE(out.find("0 regression(s)"), std::string::npos) << out;

    // Inject a 20% IPC drop as build seed-4: trend gate fails.
    const std::string bad_path =
        withScaledIpc(report_path, 0.8, "cli_db_bad.json");
    ASSERT_EQ(runTool(HELIOS_DB_BIN,
                      "ingest " + dir + " " + bad_path +
                          " --build seed-4",
                      out),
              0);
    EXPECT_EQ(runTool(HELIOS_DB_BIN, "trend " + dir + " --metric ipc",
                      out),
              1)
        << out;
    EXPECT_NE(out.find("TREND"), std::string::npos) << out;

    // list shows all four records.
    EXPECT_EQ(runTool(HELIOS_DB_BIN, "list " + dir, out), 0);
    EXPECT_NE(out.find("4 record(s)"), std::string::npos) << out;

    // diff through the shared compare_reports core: clean pair exits
    // 0, regressing pair exits 1 with the same IPC spelling.
    EXPECT_EQ(runTool(HELIOS_DB_BIN, "diff " + dir + " 0 1", out), 0)
        << out;
    EXPECT_EQ(runTool(HELIOS_DB_BIN, "diff " + dir + " 0 3", out), 1)
        << out;
    EXPECT_NE(out.find("IPC"), std::string::npos) << out;

    // show prints the record's key and blob.
    EXPECT_EQ(runTool(HELIOS_DB_BIN, "show " + dir + " 0", out), 0);
    EXPECT_NE(out.find("seed-1"), std::string::npos) << out;
    EXPECT_EQ(runTool(HELIOS_DB_BIN, "show " + dir + " 99", out), 2);

    // gc cleans a planted orphan and keeps every referenced blob.
    std::ofstream(dir + "/blobs/orphan.json") << "leftover";
    EXPECT_EQ(runTool(HELIOS_DB_BIN, "gc " + dir, out), 0);
    EXPECT_NE(out.find("removed 1 unreferenced"), std::string::npos)
        << out;
    EXPECT_EQ(runTool(HELIOS_DB_BIN, "diff " + dir + " 0 1", out), 0)
        << out;

    std::remove(report_path.c_str());
    std::remove(bad_path.c_str());
    std::system(("rm -rf " + dir).c_str());
}
