/**
 * @file
 * Harness throughput-layer tests: the parallel run matrix must be
 * bit-identical to sequential runs, the streaming accumulators must
 * match the vector analyses over the same stream, and every execution
 * path must see self-modifying code.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "harness/analysis.hh"
#include "harness/runner.hh"
#include "hart_paths.hh"
#include "isa/encoder.hh"
#include "sim/hart.hh"
#include "workloads/workloads.hh"

using namespace helios;

namespace
{

const char *matrixWorkloads[] = {"605.mcf_s", "crc32", "fft"};
const FusionMode matrixModes[] = {FusionMode::None, FusionMode::CsfSbr,
                                  FusionMode::Helios};

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.uops, b.uops);
    // Every stat counter must match: the parallel schedule may not
    // leak into any observable number.
    EXPECT_EQ(a.stats.dump(), b.stats.dump())
        << a.workload << "/" << fusionModeName(a.mode);
}

/** RAII environment-variable override for the env-parsing tests. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            hadOld = true;
            oldValue = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadOld)
            ::setenv(name, oldValue.c_str(), 1);
        else
            ::unsetenv(name);
    }

  private:
    const char *name;
    bool hadOld = false;
    std::string oldValue;
};

} // namespace

TEST(RunMatrix, MatchesSequentialRuns)
{
    const uint64_t budget = 20'000;
    std::vector<MatrixCell> cells;
    std::vector<RunResult> sequential;
    for (const char *name : matrixWorkloads) {
        const Workload &workload = findWorkload(name);
        for (FusionMode mode : matrixModes) {
            cells.emplace_back(workload, mode, budget);
            sequential.push_back(runOne(workload, mode, budget));
        }
    }

    // Multiple workers on purpose, even on a single-core host: the
    // interleaving must not be observable.
    const std::vector<RunResult> parallel = runMatrix(cells, 4);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (size_t i = 0; i < parallel.size(); ++i)
        expectSameResult(parallel[i], sequential[i]);
}

TEST(RunMatrix, SingleJobMatchesToo)
{
    const Workload &workload = findWorkload("crc32");
    std::vector<MatrixCell> cells = {
        {workload, FusionMode::Helios, 10'000}};
    const auto results = runMatrix(cells, 1);
    ASSERT_EQ(results.size(), 1u);
    expectSameResult(results[0],
                     runOne(workload, FusionMode::Helios, 10'000));
}

TEST(RunMatrix, PropagatesWorkerErrors)
{
    Workload broken;
    broken.name = "broken";
    broken.suite = Suite::MiBench;
    broken.source = "this is not assembly";
    std::vector<MatrixCell> cells = {
        {broken, FusionMode::None, 1'000},
        {broken, FusionMode::None, 1'000}};
    EXPECT_THROW(runMatrix(cells, 2), FatalError);
}

TEST(StreamingTrace, AccumulatorsMatchVectorAnalyses)
{
    const Workload &workload = findWorkload("dijkstra");
    const uint64_t budget = 30'000;
    std::vector<DynInst> trace;
    forEachDynInst(workload, budget,
                   [&](const DynInst &dyn) { trace.push_back(dyn); });
    ASSERT_EQ(trace.size(), budget);

    // One set of accumulators rides the stream, the other reads the
    // recorded vector.
    IdiomAccumulator idioms, vector_idioms;
    CsfCategoryAccumulator csf, vector_csf;
    NcsfPotentialAccumulator ncsf, vector_ncsf;
    forEachDynInst(workload, budget, [&](const DynInst &dyn) {
        idioms.add(dyn);
        csf.add(dyn);
        ncsf.add(dyn);
    });
    for (const DynInst &dyn : trace) {
        vector_idioms.add(dyn);
        vector_csf.add(dyn);
        vector_ncsf.add(dyn);
    }

    const IdiomStats &vi = vector_idioms.stats();
    EXPECT_EQ(idioms.stats().totalUops, vi.totalUops);
    EXPECT_EQ(idioms.stats().memoryPairUops, vi.memoryPairUops);
    EXPECT_EQ(idioms.stats().otherPairUops, vi.otherPairUops);

    const CsfCategoryStats &vc = vector_csf.stats();
    EXPECT_EQ(csf.stats().contiguous, vc.contiguous);
    EXPECT_EQ(csf.stats().overlapping, vc.overlapping);
    EXPECT_EQ(csf.stats().sameLine, vc.sameLine);
    EXPECT_EQ(csf.stats().nextLine, vc.nextLine);

    const NcsfPotentialStats &vn = vector_ncsf.stats();
    EXPECT_EQ(ncsf.stats().csfSbr, vn.csfSbr);
    EXPECT_EQ(ncsf.stats().csfDbr, vn.csfDbr);
    EXPECT_EQ(ncsf.stats().ncsfSbr, vn.ncsfSbr);
    EXPECT_EQ(ncsf.stats().ncsfDbr, vn.ncsfDbr);
    EXPECT_EQ(ncsf.stats().asymmetric, vn.asymmetric);
}

TEST(StreamingTrace, AsymmetricCountsOnlyNonConsecutivePairs)
{
    // Two asymmetric (word + doubleword) load pairs in one 64 B
    // region: the first consecutive, the second one µ-op apart.
    // Figure 5 reports asymmetry as a share of NCSF pairs, so only
    // the second one counts.
    Workload workload;
    workload.name = "asymmetric";
    workload.suite = Suite::MiBench;
    workload.source = R"(
        la s0, data
        lw t0, 0(s0)
        ld t1, 8(s0)
        lw t2, 16(s0)
        addi t4, zero, 1
        ld t3, 24(s0)
        li a7, 93
        ecall
        .data
        .align 6
    data:
        .zero 64
    )";
    NcsfPotentialAccumulator acc;
    forEachDynInst(workload, UINT64_MAX,
                   [&](const DynInst &dyn) { acc.add(dyn); });
    EXPECT_EQ(acc.stats().csfSbr, 1u);
    EXPECT_EQ(acc.stats().ncsfSbr, 1u);
    EXPECT_EQ(acc.stats().asymmetric, 1u);
}

TEST(DecodeCache, InvalidatedBySelfModifyingCode)
{
    // The program overwrites the `addi a0, a0, 1` at `patch:` with
    // `addi a0, a0, 7` before executing it; a stale decoder cache
    // would still add 1.
    Instruction add7;
    add7.op = Op::Addi;
    add7.rd = RegA0;
    add7.rs1 = RegA0;
    add7.imm = 7;
    const uint32_t word = encode(add7);

    const std::string source = workload_detail::substitute(R"(
        li a0, 0
        la t0, patch
        li t1, {WORD}
        sw t1, 0(t0)
    patch:
        addi a0, a0, 1
        li a7, 93
        ecall
    )",
                                          "WORD", word);

    for (HartPath path : allHartPaths) {
        Memory mem;
        Hart hart(mem);
        hart.reset(assemble(source));
        runAlong(path, hart, 1'000);
        ASSERT_TRUE(hart.exited()) << hartPathName(path);
        EXPECT_EQ(hart.exitCode(), 7u) << hartPathName(path);
    }
}

TEST(Geomean, SkipsNonPositiveValues)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    // A zero ratio (e.g. a zero-IPC run) must not poison the mean
    // with -inf.
    EXPECT_DOUBLE_EQ(geomean({0.0, 2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({-1.0, 5.0}), 5.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0}), 0.0);
}

TEST(BenchBudget, ValidatesEnvironment)
{
    {
        ScopedEnv env("HELIOS_MAX_INSTS", nullptr);
        EXPECT_EQ(benchInstructionBudget(), 200'000u);
    }
    {
        ScopedEnv env("HELIOS_MAX_INSTS", "123456");
        EXPECT_EQ(benchInstructionBudget(), 123'456u);
    }
    {
        ScopedEnv env("HELIOS_MAX_INSTS", "0x100");
        EXPECT_EQ(benchInstructionBudget(), 256u);
    }
    for (const char *bad : {"", "garbage", "12moo", "0", "-5"}) {
        ScopedEnv env("HELIOS_MAX_INSTS", bad);
        EXPECT_THROW(benchInstructionBudget(), FatalError)
            << "HELIOS_MAX_INSTS='" << bad << "'";
    }
}

TEST(JobCount, ValidatesEnvironment)
{
    {
        ScopedEnv env("HELIOS_JOBS", nullptr);
        EXPECT_GE(defaultJobCount(), 1u);
    }
    {
        ScopedEnv env("HELIOS_JOBS", "3");
        EXPECT_EQ(defaultJobCount(), 3u);
    }
    for (const char *bad : {"", "many", "0", "1e4"}) {
        ScopedEnv env("HELIOS_JOBS", bad);
        EXPECT_THROW(defaultJobCount(), FatalError)
            << "HELIOS_JOBS='" << bad << "'";
    }
}
