/**
 * @file
 * Run-ledger tests: content-addressed record/hit semantics, crash
 * recovery (truncated index tails, malformed lines, duplicate keys,
 * missing blobs — always a warning, never an abort), a seeded
 * mutation fuzz over the index file (riding the ASan/UBSan CI jobs),
 * config-hash properties, schema-v4 round-trips, trend analysis over
 * synthetic histories, and the observer-effect guard: arming the
 * ledger must not move a single simulated number.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "harness/run_ledger.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"
#include "ledger/ledger.hh"
#include "ledger/trend.hh"
#include "uarch/params.hh"
#include "workloads/workloads.hh"

using namespace helios;
namespace fs = std::filesystem;

namespace
{

/** Fresh per-test ledger directory + captured logger output, so the
 *  recovery-warning spellings can be asserted. */
class LedgerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = ::testing::TempDir() + "ledger_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name();
        fs::remove_all(dir);
        Logger::global().captureText(&captured);
    }

    void
    TearDown() override
    {
        Logger::global().captureText(nullptr);
        Ledger::disarm();
        fs::remove_all(dir);
    }

    std::string
    logText() const
    {
        return captured.str();
    }

    static LedgerKey
    key(uint64_t program, uint64_t config, uint64_t budget = 1000,
        const std::string &build = "test-build")
    {
        LedgerKey k;
        k.programHash = program;
        k.configHash = config;
        k.budget = budget;
        k.build = build;
        return k;
    }

    static JsonValue
    meta(const std::string &workload, const std::string &mode,
         double ipc)
    {
        JsonValue m = JsonValue::object();
        m.set("workload", JsonValue(workload));
        m.set("mode", JsonValue(mode));
        m.set("ipc", JsonValue(ipc));
        return m;
    }

    std::string
    indexPath() const
    {
        return dir + "/index.jsonl";
    }

    std::string
    readFile(const std::string &path) const
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    }

    void
    writeFile(const std::string &path, const std::string &text) const
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }

    std::string dir;
    std::ostringstream captured;
};

} // namespace

// ---------------------------------------------------------------------
// Record / hit semantics
// ---------------------------------------------------------------------

TEST_F(LedgerTest, RecordThenKeyedHit)
{
    Ledger ledger(dir);
    EXPECT_TRUE(ledger.record(key(1, 2), meta("w", "m", 1.5), "blob"));
    EXPECT_FALSE(ledger.record(key(1, 2), meta("w", "m", 1.5), "blob"));
    EXPECT_EQ(ledger.recorded(), 1u);
    EXPECT_EQ(ledger.hits(), 1u);
    ASSERT_EQ(ledger.records().size(), 1u);
    EXPECT_EQ(ledger.loadBlob(ledger.records()[0]), "blob");

    // Any key component makes a different record.
    EXPECT_TRUE(ledger.record(key(9, 2), meta("w", "m", 1.5), "b"));
    EXPECT_TRUE(ledger.record(key(1, 9), meta("w", "m", 1.5), "b"));
    EXPECT_TRUE(ledger.record(key(1, 2, 9), meta("w", "m", 1.5), "b"));
    EXPECT_TRUE(
        ledger.record(key(1, 2, 1000, "other"), meta("w", "m", 1.5),
                      "b"));
    EXPECT_EQ(ledger.records().size(), 5u);
}

TEST_F(LedgerTest, PersistsAcrossReopen)
{
    {
        Ledger ledger(dir);
        ledger.record(key(1, 2), meta("crc32", "Helios", 1.5), "blob-a");
        ledger.record(key(3, 4), meta("fft", "NoFusion", 0.9), "blob-b");
    }
    Ledger reopened(dir);
    EXPECT_EQ(reopened.recoveryWarnings(), 0u);
    ASSERT_EQ(reopened.records().size(), 2u);
    EXPECT_EQ(reopened.records()[0].seq, 0u);
    EXPECT_EQ(reopened.records()[1].seq, 1u);
    EXPECT_EQ(reopened.records()[1].meta.at("workload").asString(),
              "fft");
    EXPECT_EQ(reopened.loadBlob(reopened.records()[0]), "blob-a");
    EXPECT_NE(reopened.find(key(3, 4)), nullptr);
    EXPECT_EQ(reopened.find(key(5, 6)), nullptr);
}

TEST_F(LedgerTest, SequenceNumbersContinueAfterReopen)
{
    {
        Ledger ledger(dir);
        ledger.record(key(1, 1), meta("a", "m", 1.0), "x");
    }
    Ledger reopened(dir);
    reopened.record(key(2, 2), meta("b", "m", 1.0), "y");
    EXPECT_EQ(reopened.records()[1].seq, 1u);
}

// ---------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------

TEST_F(LedgerTest, TruncatedIndexTailIsDroppedWithWarning)
{
    {
        Ledger ledger(dir);
        ledger.record(key(1, 1), meta("a", "m", 1.0), "x");
        ledger.record(key(2, 2), meta("b", "m", 2.0), "y");
    }
    // Simulate a crash mid-append: chop the trailing newline plus a
    // chunk of the final line.
    const std::string text = readFile(indexPath());
    writeFile(indexPath(), text.substr(0, text.size() - 30));

    Ledger recovered(dir);
    EXPECT_EQ(recovered.records().size(), 1u);
    EXPECT_GE(recovered.recoveryWarnings(), 1u);
    EXPECT_NE(logText().find("truncated"), std::string::npos)
        << logText();

    // Recovery compacted the index: a second reopen is clean.
    Ledger clean(dir);
    EXPECT_EQ(clean.recoveryWarnings(), 0u);
    EXPECT_EQ(clean.records().size(), 1u);
}

TEST_F(LedgerTest, AppendAfterTruncationLandsOnCleanTail)
{
    {
        Ledger ledger(dir);
        ledger.record(key(1, 1), meta("a", "m", 1.0), "x");
    }
    const std::string text = readFile(indexPath());
    writeFile(indexPath(), text.substr(0, text.size() - 5));

    Ledger recovered(dir);
    EXPECT_EQ(recovered.records().size(), 0u);
    EXPECT_TRUE(
        recovered.record(key(2, 2), meta("b", "m", 2.0), "y"));

    Ledger reopened(dir);
    EXPECT_EQ(reopened.recoveryWarnings(), 0u);
    ASSERT_EQ(reopened.records().size(), 1u);
    EXPECT_EQ(reopened.records()[0].meta.at("workload").asString(),
              "b");
}

TEST_F(LedgerTest, MalformedLineIsSkippedWithWarning)
{
    {
        Ledger ledger(dir);
        ledger.record(key(1, 1), meta("a", "m", 1.0), "x");
        ledger.record(key(2, 2), meta("b", "m", 2.0), "y");
    }
    // Corrupt the middle: valid line, junk line, valid line.
    const std::string text = readFile(indexPath());
    const size_t newline = text.find('\n');
    writeFile(indexPath(), text.substr(0, newline + 1) +
                               "{not json at all\n" +
                               text.substr(newline + 1));

    Ledger recovered(dir);
    EXPECT_EQ(recovered.records().size(), 2u);
    EXPECT_GE(recovered.recoveryWarnings(), 1u);
    EXPECT_NE(logText().find("malformed"), std::string::npos)
        << logText();
}

TEST_F(LedgerTest, ForeignJsonLineIsSkippedNotAdopted)
{
    // A valid JSON object that is not a ledger line (no schema tag)
    // must be skipped, not half-parsed into a record.
    {
        Ledger ledger(dir);
        ledger.record(key(1, 1), meta("a", "m", 1.0), "x");
    }
    const std::string text = readFile(indexPath());
    writeFile(indexPath(), "{\"version\": 4}\n" + text);

    Ledger recovered(dir);
    EXPECT_EQ(recovered.records().size(), 1u);
    EXPECT_GE(recovered.recoveryWarnings(), 1u);
}

TEST_F(LedgerTest, DuplicateKeyKeepsFirstWithWarning)
{
    {
        Ledger ledger(dir);
        ledger.record(key(1, 1), meta("first", "m", 1.0), "x");
    }
    // Re-ingest the same line (merged ledgers, double ingest).
    const std::string text = readFile(indexPath());
    writeFile(indexPath(), text + text);

    Ledger recovered(dir);
    ASSERT_EQ(recovered.records().size(), 1u);
    EXPECT_EQ(recovered.records()[0].meta.at("workload").asString(),
              "first");
    EXPECT_GE(recovered.recoveryWarnings(), 1u);
    EXPECT_NE(logText().find("duplicate"), std::string::npos)
        << logText();
}

TEST_F(LedgerTest, MissingBlobWarnsAndSelfHealsOnHit)
{
    Ledger ledger(dir);
    ledger.record(key(1, 1), meta("a", "m", 1.0), "the blob");
    const std::string blob_path =
        dir + "/" + ledger.records()[0].blob;
    fs::remove(blob_path);

    // Reading degrades to a warning + empty string, never a throw.
    EXPECT_EQ(ledger.loadBlob(ledger.records()[0]), "");
    EXPECT_NE(logText().find("missing"), std::string::npos)
        << logText();

    // A keyed hit re-materializes the blob (determinism: same key,
    // same content).
    EXPECT_FALSE(
        ledger.record(key(1, 1), meta("a", "m", 1.0), "the blob"));
    EXPECT_EQ(ledger.loadBlob(ledger.records()[0]), "the blob");
}

TEST_F(LedgerTest, GcRemovesOrphanBlobsKeepsReferenced)
{
    Ledger ledger(dir);
    ledger.record(key(1, 1), meta("a", "m", 1.0), "keep me");
    writeFile(dir + "/blobs/orphan.json", "crash leftover");
    writeFile(dir + "/blobs/orphan2.json", "another");

    EXPECT_EQ(ledger.gc(), 2u);
    EXPECT_FALSE(fs::exists(dir + "/blobs/orphan.json"));
    EXPECT_EQ(ledger.loadBlob(ledger.records()[0]), "keep me");
}

TEST_F(LedgerTest, SeededMutationFuzzNeverAborts)
{
    // Build a healthy three-record index, then hammer it with seeded
    // random mutations (byte flips, truncations, line splices). Every
    // mutant must open without throwing, salvage whatever parses, and
    // accept a fresh append. Runs under the ASan/UBSan CI jobs.
    {
        Ledger ledger(dir);
        ledger.record(key(1, 1), meta("a", "m", 1.0), "x");
        ledger.record(key(2, 2), meta("b", "m", 2.0), "y");
        ledger.record(key(3, 3), meta("c", "m", 3.0), "z");
    }
    const std::string healthy = readFile(indexPath());
    std::mt19937 rng(0xC0FFEE);

    for (int round = 0; round < 64; ++round) {
        std::string mutant = healthy;
        const int kind = int(rng() % 3);
        if (kind == 0 && !mutant.empty()) {
            // Byte flips.
            for (int i = 0; i < 4; ++i)
                mutant[rng() % mutant.size()] = char(rng() % 256);
        } else if (kind == 1 && !mutant.empty()) {
            // Truncation at a random offset.
            mutant.resize(rng() % mutant.size());
        } else {
            // Splice a random chunk into a random position.
            std::string chunk;
            for (int i = 0; i < 16; ++i)
                chunk += char(rng() % 256);
            mutant.insert(rng() % (mutant.size() + 1), chunk);
        }
        writeFile(indexPath(), mutant);

        ASSERT_NO_THROW({
            Ledger recovered(dir);
            EXPECT_LE(recovered.records().size(), 3u);
            recovered.record(key(100 + round, 7),
                             meta("fresh", "m", 1.0), "new");
        }) << "round " << round;

        // The mutant was compacted; the fresh append must round-trip.
        Ledger reopened(dir);
        EXPECT_NE(reopened.find(key(100 + round, 7)), nullptr)
            << "round " << round;
    }
}

// ---------------------------------------------------------------------
// Config hash
// ---------------------------------------------------------------------

TEST(ConfigHash, DistinguishesResultAffectingFields)
{
    const CoreParams base = CoreParams::icelake(FusionMode::Helios);
    const uint64_t h = configHash(base);
    EXPECT_EQ(h, configHash(base)); // deterministic

    // Every fusion mode hashes differently.
    EXPECT_NE(h, configHash(CoreParams::icelake(FusionMode::None)));
    EXPECT_NE(h,
              configHash(CoreParams::icelake(FusionMode::RiscvFusion)));

    // Structural parameters move the hash.
    CoreParams resized = base;
    resized.robSize += 1;
    EXPECT_NE(h, configHash(resized));

    CoreParams widened = base;
    widened.fetchWidth += 1;
    EXPECT_NE(h, configHash(widened));
}

TEST(ConfigHash, IgnoresObserverFields)
{
    // Observers (audit, tracing, profiling, histogram sampling) must
    // not change what the run computes, so they are excluded from the
    // identity — a profiled run is a replay of the unprofiled one.
    const CoreParams base = CoreParams::icelake(FusionMode::Helios);
    const uint64_t h = configHash(base);

    CoreParams observed = base;
    observed.audit = !observed.audit;
    observed.profile = !observed.profile;
    observed.sampleHistograms = !observed.sampleHistograms;
    observed.profileWindowCycles += 12345;
    EXPECT_EQ(h, configHash(observed));
}

TEST(ConfigHash, IgnoresRunBudget)
{
    // The budget is keyed separately in the ledger; the config digest
    // only fingerprints the machine.
    const CoreParams base = CoreParams::icelake(FusionMode::Helios);
    CoreParams capped = base;
    capped.maxInstructions = 12345;
    capped.maxCycles = 99999;
    EXPECT_EQ(configHash(base), configHash(capped));
}

// ---------------------------------------------------------------------
// Schema v4
// ---------------------------------------------------------------------

TEST(ReportSchemaV4, ConfigHashRoundTrips)
{
    RunResult result;
    result.workload = "crc32";
    result.mode = FusionMode::Helios;
    result.cycles = 100;
    result.instructions = 150;
    result.programHash = 0x1111;
    result.configHash = 0x2222;

    RunReportFile file;
    file.add(result, 1000);
    const JsonValue json = file.toJson();
    EXPECT_EQ(json.at("version").asUint(), kRunReportVersion);
    EXPECT_EQ(json.at("runs").at(size_t(0)).at("config_hash").asUint(),
              0x2222u);

    const RunReportFile parsed =
        RunReportFile::fromJsonText(file.toJsonText());
    ASSERT_EQ(parsed.runs.size(), 1u);
    EXPECT_EQ(parsed.runs[0].configHash, 0x2222u);
    EXPECT_TRUE(parsed == file);
}

TEST(ReportSchemaV4, PreV4FilesParseWithZeroConfigHash)
{
    RunResult result;
    result.workload = "crc32";
    result.mode = FusionMode::Helios;
    result.configHash = 0x2222;
    RunReportFile file;
    file.add(result, 1000);

    // Strip the v4 field and stamp older versions: absent
    // config_hash must default to zero, not fail the parse.
    for (const uint64_t version :
         {uint64_t(1), uint64_t(2), uint64_t(3)}) {
        JsonValue json = file.toJson();
        json.set("version", version);
        JsonValue stripped = JsonValue::object();
        for (const auto &[name, field] :
             json.at("runs").at(size_t(0)).members())
            if (name != "config_hash")
                stripped.set(name, field);
        JsonValue runs = JsonValue::array();
        runs.push(stripped);
        json.set("runs", runs);

        const RunReportFile parsed =
            RunReportFile::fromJsonText(json.dump(2));
        EXPECT_EQ(parsed.version, version);
        ASSERT_EQ(parsed.runs.size(), 1u);
        EXPECT_EQ(parsed.runs[0].configHash, 0u);
    }
}

TEST(ReportSchemaV4, RunnerStampsConfigHash)
{
    const Workload &workload = findWorkload("crc32");
    const RunResult result =
        runOne(workload, FusionMode::Helios, 5000);
    EXPECT_EQ(result.configHash,
              configHash(CoreParams::icelake(FusionMode::Helios)));
    const RunReport report = makeRunReport(result, 5000);
    EXPECT_EQ(report.configHash, result.configHash);
}

// ---------------------------------------------------------------------
// Trend analysis
// ---------------------------------------------------------------------

namespace
{

TrendSeries
seriesOf(std::initializer_list<double> values)
{
    TrendSeries series;
    series.workload = "w";
    series.mode = "m";
    series.metric = "ipc";
    uint64_t seq = 0;
    for (const double value : values)
        series.points.push_back({seq++, value, "build"});
    return series;
}

} // namespace

TEST(Trend, FlagsInjectedRegression)
{
    const TrendSeries series =
        seriesOf({1.50, 1.51, 1.49, 1.50, 1.20});
    TrendOptions options; // window 5, 2%, higher-is-better
    const std::vector<TrendFlag> flags = analyzeTrend(series, options);
    ASSERT_EQ(flags.size(), 1u);
    EXPECT_NEAR(flags[0].latest, 1.20, 1e-9);
    EXPECT_NEAR(flags[0].reference, 1.50, 0.01);
    EXPECT_LT(flags[0].delta, -0.02);
}

TEST(Trend, CleanHistoryDoesNotFlag)
{
    const TrendSeries series =
        seriesOf({1.50, 1.51, 1.49, 1.50, 1.495});
    EXPECT_TRUE(analyzeTrend(series, TrendOptions()).empty());
}

TEST(Trend, ImprovementIsNotARegression)
{
    const TrendSeries series = seriesOf({1.50, 1.50, 1.80});
    EXPECT_TRUE(analyzeTrend(series, TrendOptions()).empty());
}

TEST(Trend, LowerIsBetterFlipsDirection)
{
    TrendOptions options;
    options.higherIsBetter = false; // e.g. peak RSS
    const TrendSeries rising = seriesOf({100, 101, 99, 100, 140});
    EXPECT_EQ(analyzeTrend(rising, options).size(), 1u);
    const TrendSeries falling = seriesOf({100, 101, 99, 100, 80});
    EXPECT_TRUE(analyzeTrend(falling, options).empty());
}

TEST(Trend, SinglePointHasNoHistory)
{
    EXPECT_TRUE(analyzeTrend(seriesOf({1.5}), TrendOptions()).empty());
    EXPECT_TRUE(analyzeTrend(seriesOf({}), TrendOptions()).empty());
}

TEST(Trend, WindowLimitsTheReference)
{
    // Ancient points outside the window must not drag the reference:
    // with window 2 the mean is (1.0 + 1.0) / 2, so 0.97 is within
    // 2%... but with the full history (mean ≈ 2.0) it would flag.
    TrendOptions options;
    options.window = 2;
    const TrendSeries series =
        seriesOf({3.0, 3.0, 3.0, 1.0, 1.0, 0.99});
    EXPECT_TRUE(analyzeTrend(series, options).empty());

    options.window = 6;
    EXPECT_EQ(analyzeTrend(series, options).size(), 1u);
}

TEST_F(LedgerTest, CollectSeriesGroupsByWorkloadModeAndBudget)
{
    Ledger ledger(dir);
    ledger.record(key(1, 1, 1000, "b1"), meta("crc32", "Helios", 1.5),
                  "");
    ledger.record(key(1, 1, 1000, "b2"), meta("crc32", "Helios", 1.4),
                  "");
    ledger.record(key(1, 2, 1000, "b1"),
                  meta("crc32", "NoFusion", 1.0), "");
    // Different budget ⇒ different series, not a fake regression.
    ledger.record(key(1, 1, 500, "b1"), meta("crc32", "Helios", 0.7),
                  "");
    // Non-numeric and absent metrics are skipped.
    JsonValue odd = JsonValue::object();
    odd.set("workload", JsonValue("crc32"));
    odd.set("mode", JsonValue("Helios"));
    odd.set("ipc", JsonValue("not a number"));
    ledger.record(key(1, 1, 1000, "b3"), std::move(odd), "");

    const std::vector<TrendSeries> series =
        collectTrendSeries(ledger, "ipc");
    ASSERT_EQ(series.size(), 3u);
    EXPECT_EQ(series[0].workload, "crc32");
    EXPECT_EQ(series[0].mode, "Helios");
    EXPECT_EQ(series[0].budget, 1000u);
    ASSERT_EQ(series[0].points.size(), 2u);
    EXPECT_EQ(series[0].points[0].build, "b1");
    EXPECT_EQ(series[0].points[1].build, "b2");
    EXPECT_EQ(series[1].points.size(), 1u);
    EXPECT_EQ(series[2].budget, 500u);
}

// ---------------------------------------------------------------------
// Harness integration & observer-effect guard
// ---------------------------------------------------------------------

namespace
{

void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.archChecksum, b.archChecksum);
    EXPECT_EQ(a.memChecksum, b.memChecksum);
    EXPECT_EQ(a.hartInstructions, b.hartInstructions);
    EXPECT_EQ(a.exited, b.exited);
    EXPECT_EQ(a.exitCode, b.exitCode);
    EXPECT_EQ(a.programHash, b.programHash);
    EXPECT_EQ(a.configHash, b.configHash);
    EXPECT_EQ(a.stats.dump(), b.stats.dump());
}

} // namespace

TEST_F(LedgerTest, ArmedLedgerIsObserverEffectFree)
{
    const Workload &workload = findWorkload("crc32");
    constexpr uint64_t kBudget = 10'000;

    // Timing model: identical numbers with the ledger off and on.
    const RunResult before =
        runOne(workload, FusionMode::Helios, kBudget);
    Ledger::arm(dir);
    const RunResult armed =
        runOne(workload, FusionMode::Helios, kBudget);
    expectSameRun(before, armed);

    // Functional runs too.
    Ledger::disarm();
    const FunctionalResult f_before = runFunctional(workload, kBudget);
    Ledger::arm(dir);
    const FunctionalResult f_armed = runFunctional(workload, kBudget);
    EXPECT_EQ(f_before.instructions, f_armed.instructions);
    EXPECT_EQ(f_before.archChecksum, f_armed.archChecksum);
    EXPECT_EQ(f_before.memChecksum, f_armed.memChecksum);
    EXPECT_EQ(f_before.exitCode, f_armed.exitCode);
}

TEST_F(LedgerTest, RunMatrixRecordsEveryCellOnce)
{
    const Workload &workload = findWorkload("crc32");
    std::vector<MatrixCell> cells = {
        {workload, FusionMode::Helios, 5'000},
        {workload, FusionMode::None, 5'000},
    };

    const std::vector<RunResult> plain = runMatrix(cells, 1);

    Ledger *ledger = Ledger::arm(dir);
    const std::vector<RunResult> recorded = runMatrix(cells, 1);
    EXPECT_EQ(ledger->recorded(), 2u);
    EXPECT_EQ(ledger->hits(), 0u);
    for (size_t i = 0; i < plain.size(); ++i)
        expectSameRun(plain[i], recorded[i]);

    // The replay is a pure keyed hit: nothing new is written.
    const std::vector<RunResult> replayed = runMatrix(cells, 1);
    EXPECT_EQ(ledger->recorded(), 2u);
    EXPECT_EQ(ledger->hits(), 2u);
    for (size_t i = 0; i < plain.size(); ++i)
        expectSameRun(plain[i], replayed[i]);

    // Recorded blobs are complete single-run report files keyed the
    // way the run identified itself.
    ASSERT_EQ(ledger->records().size(), 2u);
    const RunReportFile blob = RunReportFile::fromJsonText(
        ledger->loadBlob(ledger->records()[0]));
    ASSERT_EQ(blob.runs.size(), 1u);
    EXPECT_EQ(blob.runs[0].workload, "crc32");
    EXPECT_EQ(blob.runs[0].cycles, plain[0].cycles);
    EXPECT_EQ(ledger->records()[0].key.programHash,
              plain[0].programHash);
    EXPECT_EQ(ledger->records()[0].key.configHash,
              plain[0].configHash);
    EXPECT_EQ(ledger->records()[0].key.budget, 5'000u);
}

TEST_F(LedgerTest, RecordRunToLedgerNormalizesUnboundedBudget)
{
    const Workload &workload = findWorkload("crc32");
    const RunResult result =
        runOne(workload, FusionMode::Helios, UINT64_MAX);
    Ledger *ledger = Ledger::arm(dir);
    EXPECT_EQ(recordRunToLedger(result, UINT64_MAX),
              LedgerOutcome::Recorded);
    ASSERT_EQ(ledger->records().size(), 1u);
    EXPECT_EQ(ledger->records()[0].key.budget, 0u);
    EXPECT_EQ(recordRunToLedger(result, UINT64_MAX),
              LedgerOutcome::Hit);
}

TEST_F(LedgerTest, DisarmedRecordingIsANoOp)
{
    Ledger::disarm();
    RunResult result;
    EXPECT_EQ(recordRunToLedger(result, 1000),
              LedgerOutcome::Disarmed);
}

TEST_F(LedgerTest, EnvArmingRespectsExistingLedger)
{
    setenv("HELIOS_LEDGER", dir.c_str(), 1);
    initLedgerFromEnv();
    ASSERT_NE(Ledger::global(), nullptr);
    EXPECT_EQ(Ledger::global()->dir(), dir);

    // A second init (another printBenchHeader) must not re-open and
    // reset counters.
    Ledger *first = Ledger::global();
    initLedgerFromEnv();
    EXPECT_EQ(Ledger::global(), first);
    unsetenv("HELIOS_LEDGER");
}
