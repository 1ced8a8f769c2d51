/**
 * @file
 * Pipeline invariant auditor tests.
 *
 * Two halves:
 *  - fuzz: seeded-random programs full of fusable memory idioms run
 *    through the real pipeline under every fusion mode with the
 *    auditor attached; every run must finish with zero violations and
 *    all modes must agree on the final architectural state.
 *  - corruption: hook sequences describing executions the pipeline
 *    must never produce (dropped µ-op, out-of-order commit, illegal
 *    pair, oversized queue, ...) are fed to the auditor directly; each
 *    must be caught.
 */

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "harness/runner.hh"
#include "uarch/auditor.hh"

using namespace helios;

namespace
{

// ---------------------------------------------------------------------
// Random program generation
// ---------------------------------------------------------------------

/**
 * A random kernel biased toward fusion opportunities: clustered
 * loads/stores off shared base registers (s0/s1), interleaved ALU
 * catalysts, and a counted outer loop so squash/replay paths run.
 * Only sp-relative scratch memory is touched.
 */
std::string
randomProgram(Rng &rng)
{
    std::string source;
    source += "addi s0, sp, -1024\n";
    source += "addi s1, sp, -2048\n";
    // Seed a few data registers.
    for (unsigned r = 0; r < 4; ++r)
        source += "li a" + std::to_string(r) + ", " +
                  std::to_string(rng.range(-5000, 5000)) + "\n";
    source += "li s2, " + std::to_string(rng.range(3, 6)) + "\n";
    source += "loop:\n";

    const unsigned body = unsigned(rng.range(24, 48));
    for (unsigned i = 0; i < body; ++i) {
        const std::string base = rng.below(2) ? "s0" : "s1";
        // Built with += rather than "a" + to_string(...): the rvalue
        // operator+ trips GCC 12's -Wrestrict false positive
        // (PR 105651) under -Werror.
        std::string data = "a";
        data += std::to_string(rng.below(4));
        // 8-aligned offsets in a small window cluster accesses into
        // the same fusion regions.
        const std::string off = std::to_string(8 * rng.range(0, 15));
        switch (rng.below(6)) {
          case 0:
            source += "ld " + data + ", " + off + "(" + base + ")\n";
            break;
          case 1:
            source += "lw " + data + ", " + off + "(" + base + ")\n";
            break;
          case 2:
            source += "sd " + data + ", " + off + "(" + base + ")\n";
            break;
          case 3:
            source += "sw " + data + ", " + off + "(" + base + ")\n";
            break;
          case 4:
            source += "add " + data + ", " + data + ", a" +
                      std::to_string(rng.below(4)) + "\n";
            break;
          default:
            source += "addi " + data + ", " + data + ", " +
                      std::to_string(rng.range(-64, 64)) + "\n";
            break;
        }
    }

    source += "addi s2, s2, -1\n";
    source += "bnez s2, loop\n";
    source += "add a0, a0, a1\n";
    source += "li a7, 93\necall\n";
    return source;
}

Workload
makeWorkload(const std::string &name, const std::string &source)
{
    Workload workload;
    workload.name = name;
    workload.suite = Suite::MiBench;
    workload.description = "auditor fuzz kernel";
    workload.source = source;
    return workload;
}

const FusionMode allModes[] = {FusionMode::None, FusionMode::RiscvFusion,
                               FusionMode::CsfSbr,
                               FusionMode::RiscvFusionPP,
                               FusionMode::Helios, FusionMode::Oracle};

// ---------------------------------------------------------------------
// Hook-level helpers for the corruption tests
// ---------------------------------------------------------------------

DynInst
aluDyn(uint64_t seq, unsigned rd = 5)
{
    DynInst dyn;
    dyn.seq = seq;
    dyn.pc = 0x1000 + 4 * seq;
    dyn.inst.op = Op::Addi;
    dyn.inst.rd = uint8_t(rd);
    dyn.inst.rs1 = uint8_t(rd);
    dyn.inst.imm = 1;
    return dyn;
}

DynInst
memDyn(uint64_t seq, Op op, unsigned base, uint64_t addr)
{
    DynInst dyn;
    dyn.seq = seq;
    dyn.pc = 0x1000 + 4 * seq;
    dyn.inst.op = op;
    dyn.inst.rd = 10;
    dyn.inst.rs1 = uint8_t(base);
    dyn.inst.rs2 = 11;
    dyn.effAddr = addr;
    return dyn;
}

Uop
makeUop(const DynInst &dyn)
{
    Uop uop;
    uop.seq = dyn.seq;
    uop.dyn = dyn;
    return uop;
}

/** True when at least one recorded violation names @a invariant. */
bool
caught(const PipelineAuditor &auditor, const std::string &invariant)
{
    for (const AuditViolation &violation : auditor.violations())
        if (violation.invariant == invariant)
            return true;
    return false;
}

class AuditorFuzz : public ::testing::TestWithParam<unsigned>
{};

} // namespace

// ---------------------------------------------------------------------
// Fuzz: real pipeline, every fusion mode, zero violations expected
// ---------------------------------------------------------------------

TEST_P(AuditorFuzz, RandomProgramRunsCleanUnderEveryMode)
{
    Rng rng(GetParam() * 0x9e3779b9u + 101);
    const Workload workload = makeWorkload(
        "fuzz" + std::to_string(GetParam()), randomProgram(rng));

    RunResult baseline;
    if (std::getenv("HELIOS_DUMP_FUZZ"))
        std::fprintf(stderr, "--- seed %u ---\n%s", GetParam(),
                     workload.source.c_str());
    for (FusionMode mode : allModes) {
        if (std::getenv("HELIOS_DUMP_FUZZ"))
            std::fprintf(stderr, "mode %s\n", fusionModeName(mode));
        CoreParams params = CoreParams::icelake(mode);
        params.audit = true;
        const RunResult result = runOne(workload, params);

        ASSERT_TRUE(result.audited);
        EXPECT_GT(result.auditChecks, 0u);
        EXPECT_TRUE(result.auditViolations.empty())
            << fusionModeName(mode) << ": "
            << result.auditViolations.front().invariant << " - "
            << result.auditViolations.front().detail;
        EXPECT_TRUE(result.exited) << fusionModeName(mode);

        if (mode == FusionMode::None) {
            baseline = result;
            continue;
        }
        EXPECT_EQ(result.archChecksum, baseline.archChecksum)
            << fusionModeName(mode);
        EXPECT_EQ(result.memChecksum, baseline.memChecksum)
            << fusionModeName(mode);
        EXPECT_EQ(result.instructions, baseline.instructions)
            << fusionModeName(mode);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditorFuzz, ::testing::Range(0u, 12u));

// ---------------------------------------------------------------------
// Corruption: executions the pipeline must never produce are caught
// ---------------------------------------------------------------------

TEST(AuditorCorruption, CleanRunIsClean)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    for (uint64_t seq = 0; seq < 4; ++seq)
        auditor.onFetch(makeUop(aluDyn(seq)), seq);
    for (uint64_t seq = 0; seq < 4; ++seq)
        auditor.onCommit(makeUop(aluDyn(seq)), 10 + seq);
    auditor.onFinish(true, 20);
    EXPECT_TRUE(auditor.ok()) << auditor.toJson();
    EXPECT_GT(auditor.checksPerformed(), 0u);
    EXPECT_EQ(auditor.uopsAudited(), 4u);
}

TEST(AuditorCorruption, DroppedUopDetected)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    for (uint64_t seq = 0; seq < 5; ++seq)
        auditor.onFetch(makeUop(aluDyn(seq)), seq);
    for (uint64_t seq = 0; seq < 5; ++seq) {
        if (seq == 2)
            continue; // µ-op silently vanishes
        auditor.onCommit(makeUop(aluDyn(seq)), 10 + seq);
    }
    auditor.onFinish(true, 20);
    EXPECT_FALSE(auditor.ok());
    EXPECT_TRUE(caught(auditor, "leak.inflight")) << auditor.toJson();
    EXPECT_TRUE(caught(auditor, "leak.count")) << auditor.toJson();
}

TEST(AuditorCorruption, OutOfOrderCommitDetected)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    auditor.onFetch(makeUop(aluDyn(0)), 0);
    auditor.onFetch(makeUop(aluDyn(1)), 0);
    auditor.onCommit(makeUop(aluDyn(1)), 10);
    auditor.onCommit(makeUop(aluDyn(0)), 11);
    EXPECT_TRUE(caught(auditor, "commit.order")) << auditor.toJson();
}

TEST(AuditorCorruption, DoubleCommitDetected)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    auditor.onFetch(makeUop(aluDyn(0)), 0);
    auditor.onCommit(makeUop(aluDyn(0)), 10);
    auditor.onCommit(makeUop(aluDyn(0)), 11);
    EXPECT_TRUE(caught(auditor, "commit.twice")) << auditor.toJson();
}

TEST(AuditorCorruption, CommitWithoutFetchDetected)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    auditor.onCommit(makeUop(aluDyn(7)), 10);
    EXPECT_TRUE(caught(auditor, "commit.unknown")) << auditor.toJson();
}

TEST(AuditorCorruption, IllegalConsecutivePairDetected)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::CsfSbr));
    const DynInst head = aluDyn(0, 5);
    DynInst tail = aluDyn(1, 6);
    tail.inst.op = Op::Divu; // addi+divu matches no Table I idiom
    auditor.onFetch(makeUop(head), 0);
    auditor.onFetch(makeUop(tail), 0);
    auditor.onFusePair(makeUop(head), tail, FusionKind::CsfOther, true,
                       1);
    EXPECT_TRUE(caught(auditor, "pair.illegal_idiom"))
        << auditor.toJson();
}

TEST(AuditorCorruption, ConsecutivePairWithGapDetected)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::CsfSbr));
    const DynInst head = memDyn(0, Op::Ld, 8, 0x2000);
    const DynInst tail = memDyn(2, Op::Ld, 8, 0x2008);
    auditor.onFetch(makeUop(head), 0);
    auditor.onFetch(makeUop(aluDyn(1)), 0);
    auditor.onFetch(makeUop(tail), 0);
    auditor.onFusePair(makeUop(head), tail, FusionKind::CsfMem, true, 1);
    EXPECT_TRUE(caught(auditor, "pair.csf_distance"))
        << auditor.toJson();
}

TEST(AuditorCorruption, MixedLoadStorePairDetected)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    const DynInst head = memDyn(0, Op::Ld, 8, 0x2000);
    const DynInst tail = memDyn(2, Op::Sd, 8, 0x2008);
    auditor.onFetch(makeUop(head), 0);
    auditor.onFetch(makeUop(aluDyn(1)), 0);
    auditor.onFetch(makeUop(tail), 0);
    auditor.onFusePair(makeUop(head), tail, FusionKind::NcsfMem, false,
                       1);
    EXPECT_TRUE(caught(auditor, "pair.mixed_kind")) << auditor.toJson();
}

TEST(AuditorCorruption, PairOrderInversionDetected)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    const DynInst head = memDyn(3, Op::Ld, 8, 0x2000);
    const DynInst tail = memDyn(1, Op::Ld, 8, 0x2008);
    auditor.onFetch(makeUop(tail), 0);
    auditor.onFetch(makeUop(head), 0);
    auditor.onFusePair(makeUop(head), tail, FusionKind::NcsfMem, false,
                       1);
    EXPECT_TRUE(caught(auditor, "pair.order")) << auditor.toJson();
}

TEST(AuditorCorruption, UnfuseAfterAbsorbDetected)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    const DynInst head = memDyn(0, Op::Ld, 8, 0x2000);
    const DynInst tail = memDyn(2, Op::Ld, 8, 0x2008);
    auditor.onFetch(makeUop(head), 0);
    auditor.onFetch(makeUop(aluDyn(1)), 0);
    auditor.onFetch(makeUop(tail), 0);
    auditor.onFusePair(makeUop(head), tail, FusionKind::NcsfMem, false,
                       1);
    auditor.onTailAbsorbed(tail.seq, head.seq, 2);
    // Unfusing now would drop the tail: its marker is gone.
    auditor.onUnfuse(makeUop(head), tail.seq, 3);
    EXPECT_TRUE(caught(auditor, "pair.unfuse_absorbed"))
        << auditor.toJson();
}

TEST(AuditorCorruption, StructuralOverflowDetected)
{
    const CoreParams params = CoreParams::icelake(FusionMode::Helios);
    PipelineAuditor auditor(params);

    std::vector<Uop> storage;
    storage.reserve(params.robSize + 1);
    RingBuffer<Uop *> rob(params.robSize + 1);
    for (uint64_t seq = 0; seq <= params.robSize; ++seq) {
        storage.push_back(makeUop(aluDyn(seq)));
        rob.push_back(&storage.back());
    }

    CycleView view;
    view.cycle = 1;
    view.rob = &rob;
    auditor.onCycleEnd(view);
    EXPECT_TRUE(caught(auditor, "structure.overflow"))
        << auditor.toJson();
}

TEST(AuditorCorruption, LoadQueueDisorderDetected)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    Uop older = makeUop(memDyn(1, Op::Ld, 8, 0x2000));
    Uop younger = makeUop(memDyn(2, Op::Ld, 8, 0x2008));
    RingBuffer<Uop *> lq(2);
    lq.push_back(&younger); // inverted
    lq.push_back(&older);

    CycleView view;
    view.lq = &lq;
    // Ordered scans are sampled; drive enough cycles to trigger one.
    for (uint64_t cycle = 1; cycle <= 64; ++cycle) {
        view.cycle = cycle;
        auditor.onCycleEnd(view);
    }
    EXPECT_TRUE(caught(auditor, "structure.order")) << auditor.toJson();
}

TEST(AuditorCorruption, SquashedUopMayRefetch)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    auditor.onFetch(makeUop(aluDyn(0)), 0);
    auditor.onFetch(makeUop(aluDyn(1)), 0);
    auditor.onSquash(makeUop(aluDyn(1)), 5, "test");
    auditor.onFetch(makeUop(aluDyn(1)), 6); // refetch after squash
    auditor.onCommit(makeUop(aluDyn(0)), 10);
    auditor.onCommit(makeUop(aluDyn(1)), 11);
    auditor.onFinish(true, 20);
    EXPECT_TRUE(auditor.ok()) << auditor.toJson();
}

TEST(AuditorCorruption, JsonReportNamesViolation)
{
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    auditor.onCommit(makeUop(aluDyn(7)), 10);
    const std::string json = auditor.toJson();
    EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
    EXPECT_NE(json.find("commit.unknown"), std::string::npos) << json;
    EXPECT_NE(json.find("\"seq\":7"), std::string::npos) << json;
}
