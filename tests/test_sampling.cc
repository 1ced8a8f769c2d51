/**
 * @file
 * Sampled-simulation tests: spec validation, the weighted-mean /
 * confidence-interval estimator on known inputs, checkpoint-set
 * construction (including early program exit and checkpoint-dir
 * persistence), end-to-end sampled-vs-full accuracy, the schema-v5
 * `sampled` report section, and spec-keyed ledger records.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>

#include "common/logging.hh"
#include "harness/run_ledger.hh"
#include "harness/run_report.hh"
#include "harness/sampling.hh"
#include "ledger/ledger.hh"
#include "workloads/workloads.hh"

using namespace helios;
namespace fs = std::filesystem;

namespace
{

SamplingSpec
spec(uint64_t budget, uint64_t interval, uint64_t warmup,
     uint64_t samples)
{
    SamplingSpec s;
    s.totalBudget = budget;
    s.intervalInsts = interval;
    s.warmupInsts = warmup;
    s.sampleCount = samples;
    return s;
}

IntervalSample
interval(uint64_t instructions, uint64_t cycles)
{
    IntervalSample s;
    s.instructions = instructions;
    s.cycles = cycles;
    return s;
}

} // namespace

TEST(SamplingSpec, ValidateRejectsDegenerateShapes)
{
    EXPECT_NO_THROW(spec(1'000'000, 10'000, 2'000, 10).validate());
    // Zero interval / zero sample count.
    EXPECT_THROW(spec(1'000'000, 0, 0, 10).validate(), FatalError);
    EXPECT_THROW(spec(1'000'000, 10'000, 0, 0).validate(), FatalError);
    // Warmup must leave room for a measured window.
    EXPECT_THROW(spec(1'000'000, 10'000, 10'000, 10).validate(),
                 FatalError);
    EXPECT_THROW(spec(1'000'000, 10'000, 20'000, 10).validate(),
                 FatalError);
    // The frame must exist and hold sampleCount disjoint windows.
    EXPECT_THROW(spec(0, 10'000, 0, 10).validate(), FatalError);
    EXPECT_THROW(spec(UINT64_MAX, 10'000, 0, 10).validate(),
                 FatalError);
    EXPECT_THROW(spec(100'000, 10'000, 2'000, 10).validate(),
                 FatalError);
    // Zero warmup is legal: sampling without cache warming is a
    // valid (if biased) configuration the error bench quantifies.
    EXPECT_NO_THROW(spec(1'000'000, 10'000, 0, 10).validate());
}

TEST(SamplingSpec, StrideAndHash)
{
    const SamplingSpec base = spec(1'000'000, 10'000, 2'000, 10);
    EXPECT_EQ(base.stride(), 100'000u);

    // Every numeric field feeds the hash; the checkpoint directory
    // (pure storage location) must not.
    SamplingSpec other = base;
    other.checkpointDir = "/somewhere/else";
    EXPECT_EQ(other.specHash(), base.specHash());
    other = base;
    other.totalBudget += 1;
    EXPECT_NE(other.specHash(), base.specHash());
    other = base;
    other.intervalInsts += 1;
    EXPECT_NE(other.specHash(), base.specHash());
    other = base;
    other.warmupInsts += 1;
    EXPECT_NE(other.specHash(), base.specHash());
    other = base;
    other.sampleCount += 1;
    EXPECT_NE(other.specHash(), base.specHash());
}

TEST(SampledEstimate, SingleSampleHasNoInterval)
{
    const std::vector<IntervalSample> one = {interval(1'000, 500)};
    const SampledEstimate est =
        estimateWeighted(one, &IntervalSample::ipc);
    EXPECT_EQ(est.samples, 1u);
    EXPECT_DOUBLE_EQ(est.mean, 2.0);
    EXPECT_DOUBLE_EQ(est.ci95Half, 0.0);
}

TEST(SampledEstimate, EqualWeightsMatchClassicTInterval)
{
    // Two equal-weight samples with exact IPC 1.0 (1000/1000) and 4.0
    // (1000/250): mean 2.5; weighted variance 0.5*1.5^2 + 0.5*1.5^2 =
    // 2.25, times n/(n-1) = 4.5; stderr sqrt(4.5/2) = 1.5; and
    // t(df=1, 97.5%) = 12.706.
    const std::vector<IntervalSample> exact = {interval(1'000, 1'000),
                                               interval(1'000, 250)};
    const SampledEstimate est =
        estimateWeighted(exact, &IntervalSample::ipc);
    EXPECT_EQ(est.samples, 2u);
    EXPECT_DOUBLE_EQ(est.mean, 2.5);
    EXPECT_NEAR(est.ci95Half, 12.706 * 1.5, 1e-9);
    EXPECT_DOUBLE_EQ(est.lo(), est.mean - est.ci95Half);
    EXPECT_DOUBLE_EQ(est.hi(), est.mean + est.ci95Half);
}

TEST(SampledEstimate, InstructionWeightedMean)
{
    // 300 instructions at IPC 1.0, 100 instructions at IPC 2.0:
    // weighted mean (300*1 + 100*2) / 400 = 1.25.
    const std::vector<IntervalSample> mixed = {interval(300, 300),
                                               interval(100, 50)};
    const SampledEstimate est =
        estimateWeighted(mixed, &IntervalSample::ipc);
    EXPECT_DOUBLE_EQ(est.mean, 1.25);
}

TEST(SampledEstimate, ZeroIntervalsYieldZero)
{
    const SampledEstimate est =
        estimateWeighted({}, &IntervalSample::ipc);
    EXPECT_EQ(est.samples, 0u);
    EXPECT_DOUBLE_EQ(est.mean, 0.0);
    EXPECT_DOUBLE_EQ(est.ci95Half, 0.0);
}

TEST(Sampling, BuildCheckpointsCutsAtStride)
{
    const Workload &workload = findWorkload("crc32");
    const CheckpointSet set =
        buildCheckpoints(workload, spec(200'000, 10'000, 2'000, 4));
    ASSERT_EQ(set.checkpoints.size(), 4u);
    EXPECT_FALSE(set.reused);
    EXPECT_FALSE(set.exited);
    for (size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(set.checkpoints[k].instIndex, k * 50'000);
        EXPECT_EQ(set.checkpoints[k].programHash, set.programHash);
    }
    EXPECT_EQ(set.ffInstructions, 150'000u);
}

TEST(Sampling, BuildCheckpointsStopsAtProgramExit)
{
    // crc32 exits after ~288K instructions; cuts past that cannot
    // exist and are dropped rather than fabricated.
    const Workload &workload = findWorkload("crc32");
    const CheckpointSet set =
        buildCheckpoints(workload, spec(1'000'000, 10'000, 2'000, 4));
    EXPECT_EQ(set.checkpoints.size(), 2u); // cuts 0 and 250'000
    EXPECT_TRUE(set.exited);
    EXPECT_EQ(set.exitCode, workload.reference());
}

TEST(Sampling, CheckpointDirPersistsAndReuses)
{
    const std::string dir = ::testing::TempDir() + "sampling_ckpt_dir";
    fs::remove_all(dir);

    const Workload &workload = findWorkload("fft");
    SamplingSpec s = spec(100'000, 5'000, 1'000, 4);
    s.checkpointDir = dir;

    const CheckpointSet first = buildCheckpoints(workload, s);
    EXPECT_FALSE(first.reused);
    const CheckpointSet second = buildCheckpoints(workload, s);
    EXPECT_TRUE(second.reused);

    ASSERT_EQ(first.checkpoints.size(), second.checkpoints.size());
    for (size_t i = 0; i < first.checkpoints.size(); ++i)
        EXPECT_TRUE(first.checkpoints[i] == second.checkpoints[i]);
    EXPECT_EQ(first.ffInstructions, second.ffInstructions);

    // A different interval/warmup shape over the same cut schedule
    // (same budget, same sample count) shares the persisted cuts.
    SamplingSpec reshaped = s;
    reshaped.intervalInsts = 8'000;
    reshaped.warmupInsts = 500;
    EXPECT_TRUE(buildCheckpoints(workload, reshaped).reused);

    // A different schedule must not: the manifest is keyed by it.
    SamplingSpec rescheduled = s;
    rescheduled.sampleCount = 5;
    EXPECT_FALSE(buildCheckpoints(workload, rescheduled).reused);

    fs::remove_all(dir);
}

TEST(Sampling, SampledIpcTracksFullRun)
{
    // End-to-end accuracy on a real kernel: the sampled estimate must
    // land within a few percent of ground truth. bitcount is long
    // (~1.5M instructions) and phase-stable, so modest warmup
    // suffices; the CI gate (bench/sampling_error) enforces the
    // committed tolerance on more hostile workloads.
    const Workload &workload = findWorkload("bitcount");
    const CoreParams params = CoreParams::icelake(FusionMode::Helios);
    const uint64_t budget = 600'000;

    const RunResult full = runOne(workload, params, budget);
    const SampledResult sampled =
        runSampled(workload, params, spec(budget, 20'000, 10'000, 8));

    ASSERT_EQ(sampled.intervals.size(), 8u);
    EXPECT_EQ(sampled.droppedIntervals, 0u);
    ASSERT_GT(full.ipc(), 0.0);
    const double err =
        std::abs(sampled.ipc.mean - full.ipc()) / full.ipc();
    EXPECT_LT(err, 0.05)
        << "sampled " << sampled.ipc.mean << " vs full " << full.ipc();
    // The measured totals cover the sampled windows. The warmup
    // snapshot lands on a commit-group boundary, so each window may
    // be short by up to a commit width.
    EXPECT_NEAR(double(sampled.measuredInstructions),
                double(8u * 20'000), 8.0 * 16.0);
    // Detailed work is warmup + window per interval — the whole point:
    // far less than the full frame.
    EXPECT_EQ(sampled.detailedInstructions, 8u * 30'000);
    EXPECT_LT(sampled.detailedInstructions, budget);
}

TEST(Sampling, IntervalCellSkipsOnlyTheMemoryChecksum)
{
    // runMatrix leaves an interval cell's memChecksum unset; nothing
    // else about the cell may move from the checksummed runOne, and a
    // cell that starts from reset keeps its checksum.
    const Workload &workload = findWorkload("crc32");
    const CoreParams params = CoreParams::icelake(FusionMode::Helios);
    const SamplingSpec s = spec(200'000, 10'000, 2'000, 4);
    const CheckpointSet set = buildCheckpoints(workload, s);
    ASSERT_EQ(set.checkpoints.size(), 4u);
    const uint64_t budget = s.warmupInsts + s.intervalInsts;
    const MatrixCell plain(workload, params, budget);
    MatrixCell cell = plain;
    cell.restoreFrom = &set.checkpoints[2];
    cell.warmupInsts = s.warmupInsts;

    const std::vector<RunResult> runs = runMatrix({plain, cell}, 1);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_NE(runs[0].memChecksum, 0u);
    EXPECT_EQ(runs[0].memChecksum,
              runOne(workload, params, budget).memChecksum);
    const RunResult &skipped = runs[1];
    const RunResult full = runOne(workload, params, budget,
                                  &set.checkpoints[2], s.warmupInsts);
    EXPECT_NE(full.memChecksum, 0u);
    EXPECT_EQ(skipped.memChecksum, 0u);
    EXPECT_EQ(skipped.stats.dump(), full.stats.dump());
    EXPECT_EQ(skipped.cycles, full.cycles);
    EXPECT_EQ(skipped.instructions, full.instructions);
    EXPECT_EQ(skipped.uops, full.uops);
    EXPECT_EQ(skipped.archChecksum, full.archChecksum);
    EXPECT_EQ(skipped.hartInstructions, full.hartInstructions);
    EXPECT_EQ(skipped.exited, full.exited);
    EXPECT_EQ(skipped.exitCode, full.exitCode);
    EXPECT_EQ(skipped.programHash, full.programHash);
    EXPECT_EQ(skipped.configHash, full.configHash);
    EXPECT_TRUE(skipped.sampled && full.sampled);
    EXPECT_EQ(skipped.sampleStartInst, full.sampleStartInst);
    EXPECT_EQ(skipped.warmupCycles, full.warmupCycles);
    EXPECT_EQ(skipped.warmupInstructions, full.warmupInstructions);
    EXPECT_EQ(skipped.warmupUops, full.warmupUops);
    EXPECT_EQ(skipped.warmupFusedPairs, full.warmupFusedPairs);
    EXPECT_TRUE(skipped.warmupTaken && full.warmupTaken);
}

TEST(Sampling, DeterministicAcrossJobCounts)
{
    // Interval cells ride runMatrix; like every matrix, the worker
    // count must not move a single number.
    const Workload &workload = findWorkload("crc32");
    const CoreParams params = CoreParams::icelake(FusionMode::Helios);
    const SamplingSpec s = spec(200'000, 10'000, 2'000, 4);

    const SampledResult serial = runSampled(workload, params, s, 1);
    const SampledResult parallel = runSampled(workload, params, s, 4);
    ASSERT_EQ(serial.intervals.size(), parallel.intervals.size());
    EXPECT_EQ(serial.measuredCycles, parallel.measuredCycles);
    EXPECT_EQ(serial.measuredInstructions,
              parallel.measuredInstructions);
    EXPECT_DOUBLE_EQ(serial.ipc.mean, parallel.ipc.mean);
    EXPECT_DOUBLE_EQ(serial.ipc.ci95Half, parallel.ipc.ci95Half);
}

TEST(Sampling, SampledSectionRoundTripsThroughSchemaV5)
{
    const Workload &workload = findWorkload("crc32");
    const CoreParams params = CoreParams::icelake(FusionMode::Helios);
    const SampledResult result =
        runSampled(workload, params, spec(200'000, 10'000, 2'000, 4));

    RunReportFile file;
    file.generator = "test_sampling";
    file.runs.push_back(makeSampledRunReport(result));
    EXPECT_EQ(file.version, 5u);

    const RunReportFile back =
        RunReportFile::fromJsonText(file.toJsonText());
    ASSERT_EQ(back.runs.size(), 1u);
    EXPECT_TRUE(back == file);
    ASSERT_FALSE(back.runs[0].sampled.isNull());

    const SampledResult decoded =
        SampledResult::fromJson(back.runs[0].sampled);
    EXPECT_EQ(decoded.workload, result.workload);
    EXPECT_EQ(decoded.mode, result.mode);
    EXPECT_EQ(decoded.spec.totalBudget, result.spec.totalBudget);
    EXPECT_EQ(decoded.spec.specHash(), result.spec.specHash());
    EXPECT_EQ(decoded.measuredCycles, result.measuredCycles);
    EXPECT_EQ(decoded.measuredInstructions,
              result.measuredInstructions);
    EXPECT_DOUBLE_EQ(decoded.ipc.mean, result.ipc.mean);
    EXPECT_DOUBLE_EQ(decoded.ipc.ci95Half, result.ipc.ci95Half);
    ASSERT_EQ(decoded.intervals.size(), result.intervals.size());
    for (size_t i = 0; i < decoded.intervals.size(); ++i) {
        EXPECT_EQ(decoded.intervals[i].startInst,
                  result.intervals[i].startInst);
        EXPECT_EQ(decoded.intervals[i].cycles,
                  result.intervals[i].cycles);
    }

    // The headline fields a v4-era consumer reads are the measured
    // totals and the weighted estimate.
    EXPECT_EQ(back.runs[0].instructions, result.measuredInstructions);
    EXPECT_DOUBLE_EQ(back.runs[0].ipc, result.ipc.mean);
}

TEST(ReportSchemaV5, OlderVersionsParseWithNullSampledSection)
{
    // v5 is purely additive: a v1–v4 file (no `sampled` member)
    // parses under the v5 reader with an absent (null) section.
    RunResult result;
    result.workload = "crc32";
    result.mode = FusionMode::Helios;
    result.cycles = 100;
    result.instructions = 150;
    RunReportFile file;
    file.add(result, 1000);

    for (const uint64_t version :
         {uint64_t(1), uint64_t(2), uint64_t(3), uint64_t(4)}) {
        JsonValue json = file.toJson();
        json.set("version", version);
        const RunReportFile parsed =
            RunReportFile::fromJsonText(json.dump(2));
        EXPECT_EQ(parsed.version, version);
        ASSERT_EQ(parsed.runs.size(), 1u);
        EXPECT_TRUE(parsed.runs[0].sampled.isNull());
    }
}

TEST(Sampling, LedgerRecordsKeyedBySamplingSpec)
{
    const std::string dir =
        ::testing::TempDir() + "sampling_ledger_dir";
    fs::remove_all(dir);
    Ledger::disarm();
    Ledger::arm(dir);

    const Workload &workload = findWorkload("crc32");
    const CoreParams params = CoreParams::icelake(FusionMode::Helios);
    const SamplingSpec s = spec(200'000, 10'000, 2'000, 4);

    // runSampled itself must NOT record its interval cells (they
    // would collide under the plain run key); only the aggregate,
    // recorded explicitly, lands.
    const SampledResult result = runSampled(workload, params, s);
    EXPECT_EQ(Ledger::global()->recorded(), 0u);

    EXPECT_EQ(recordSampledToLedger(result), LedgerOutcome::Recorded);
    EXPECT_EQ(recordSampledToLedger(result), LedgerOutcome::Hit);

    // A different spec is a different estimate: a fresh record, not
    // a hit.
    const SampledResult other =
        runSampled(workload, params, spec(200'000, 10'000, 1'000, 4));
    EXPECT_EQ(recordSampledToLedger(other), LedgerOutcome::Recorded);

    Ledger::disarm();
    fs::remove_all(dir);
}
