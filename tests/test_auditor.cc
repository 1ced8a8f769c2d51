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

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

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

/** A µ-op over @a dyn, which must outlive it. */
Uop
makeUop(const DynInst &dyn)
{
    Uop uop;
    uop.seq = dyn.seq;
    uop.dyn = &dyn;
    uop.refreshFacts();
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

TEST(AuditorCorruption, EachNcsfPairRuleDetected)
{
    // Each row breaks one rule of an NCSF memory pair; its twin
    // differs only in that rule. The broken pair must be caught under
    // that rule's name and no other, and the twin must pass.
    const auto ld = [](uint64_t seq, unsigned base, uint64_t addr) {
        return memDyn(seq, Op::Ld, base, addr);
    };
    const auto sd = [](uint64_t seq, unsigned base, uint64_t addr) {
        return memDyn(seq, Op::Sd, base, addr);
    };
    const auto writing = [](DynInst dyn, unsigned rd) {
        dyn.inst.rd = uint8_t(rd);
        return dyn;
    };
    const unsigned limit =
        CoreParams::icelake(FusionMode::Helios).maxFusionDistance;
    const struct
    {
        const char *invariant;
        DynInst head, tail;         ///< breaks the rule
        DynInst twinHead, twinTail; ///< keeps it
    } rows[] = {
        {"pair.mixed_kind", ld(0, 8, 0x2000), sd(2, 8, 0x2008),
         ld(0, 8, 0x2000), ld(2, 8, 0x2008)},
        {"pair.distance", ld(0, 8, 0x2000), ld(limit + 1, 8, 0x2008),
         ld(0, 8, 0x2000), ld(limit, 8, 0x2008)},
        {"pair.store_dbr", sd(0, 8, 0x2000), sd(2, 9, 0x2008),
         sd(0, 8, 0x2000), sd(2, 8, 0x2008)},
        {"pair.dependent_base", writing(ld(0, 8, 0x2000), 9),
         ld(2, 9, 0x2008), writing(ld(0, 8, 0x2000), 12),
         ld(2, 9, 0x2008)},
    };
    // Head, ALU catalysts, tail: a pair Helios's predictor proposed.
    const auto fuse = [](PipelineAuditor &auditor, const DynInst &head,
                         const DynInst &tail) {
        auditor.onFetch(makeUop(head), 0);
        for (uint64_t seq = head.seq + 1; seq < tail.seq; ++seq)
            auditor.onFetch(makeUop(aluDyn(seq)), 0);
        auditor.onFetch(makeUop(tail), 0);
        auditor.onFusePair(makeUop(head), tail, FusionKind::NcsfMem,
                           false, 1);
    };
    for (const auto &row : rows) {
        SCOPED_TRACE(row.invariant);
        PipelineAuditor broken(CoreParams::icelake(FusionMode::Helios));
        fuse(broken, row.head, row.tail);
        EXPECT_TRUE(caught(broken, row.invariant)) << broken.toJson();
        for (const AuditViolation &violation : broken.violations())
            EXPECT_EQ(violation.invariant, row.invariant);

        PipelineAuditor twin(CoreParams::icelake(FusionMode::Helios));
        fuse(twin, row.twinHead, row.twinTail);
        EXPECT_TRUE(twin.ok()) << twin.toJson();
    }
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

TEST(AuditorCorruption, EachPairRecordCheckDetected)
{
    // A load head, an ALU catalyst and two tails it could pair with, all
    // fetched; the ghost pair is not.
    const DynInst head = memDyn(0, Op::Ld, 8, 0x2000);
    const DynInst catalyst = aluDyn(1);
    const DynInst tail = memDyn(2, Op::Ld, 8, 0x2008);
    const DynInst other = memDyn(3, Op::Ld, 8, 0x2010);
    const DynInst ghost_head = memDyn(5, Op::Ld, 8, 0x2000);
    const DynInst ghost_tail = memDyn(6, Op::Ld, 8, 0x2008);
    const auto fuse = [&](PipelineAuditor &auditor, const DynInst &with) {
        auditor.onFusePair(makeUop(head), with, FusionKind::NcsfMem,
                           false, 1);
    };
    const auto commit_fused = [&](PipelineAuditor &auditor,
                                  const DynInst &with) {
        Uop uop = makeUop(head);
        uop.fusion = FusionKind::NcsfMem;
        uop.hasTail = true;
        uop.tailDyn = &with;
        uop.refreshFacts();
        auditor.onCommit(uop, 4);
    };
    const struct
    {
        const char *invariant;
        uint64_t seq; ///< where the report points
        std::function<void(PipelineAuditor &)> events;
    } rows[] = {
        {"pair.unknown_head", ghost_head.seq,
         [&](PipelineAuditor &a) {
             a.onFusePair(makeUop(ghost_head), ghost_tail,
                          FusionKind::NcsfMem, false, 1);
         }},
        {"pair.double_fuse", head.seq,
         [&](PipelineAuditor &a) {
             fuse(a, tail);
             fuse(a, other);
         }},
        {"pair.unpaired_absorb", tail.seq,
         [&](PipelineAuditor &a) { a.onTailAbsorbed(tail.seq, head.seq, 2); }},
        {"pair.unfuse_unpaired", head.seq,
         [&](PipelineAuditor &a) { a.onUnfuse(makeUop(head), tail.seq, 2); }},
        {"pair.unfuse_tail", head.seq,
         [&](PipelineAuditor &a) {
             fuse(a, tail);
             a.onUnfuse(makeUop(head), other.seq, 2);
         }},
        {"pair.commit_unpaired", head.seq,
         [&](PipelineAuditor &a) { commit_fused(a, tail); }},
        {"pair.commit_tail", head.seq,
         [&](PipelineAuditor &a) {
             fuse(a, tail);
             commit_fused(a, other);
         }},
        {"pair.commit_unfused", head.seq,
         [&](PipelineAuditor &a) {
             fuse(a, tail);
             a.onCommit(makeUop(head), 4);
         }},
        {"leak.pair", head.seq,
         [&](PipelineAuditor &a) {
             fuse(a, tail);
             a.onFinish(true, 9);
         }},
    };
    for (const auto &row : rows) {
        SCOPED_TRACE(row.invariant);
        PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
        for (const DynInst *dyn : {&head, &catalyst, &tail, &other})
            auditor.onFetch(makeUop(*dyn), 0);
        row.events(auditor);
        const auto &found = auditor.violations();
        const auto it = std::find_if(
            found.begin(), found.end(), [&](const AuditViolation &v) {
                return v.invariant == row.invariant;
            });
        ASSERT_NE(it, found.end()) << auditor.toJson();
        EXPECT_EQ(it->seq, row.seq);
    }
}

TEST(AuditorCorruption, StructuralOverflowDetected)
{
    const CoreParams params = CoreParams::icelake(FusionMode::Helios);
    PipelineAuditor auditor(params);

    std::vector<DynInst> records;
    std::vector<Uop> storage;
    records.reserve(params.robSize + 1);
    storage.reserve(params.robSize + 1);
    RingBuffer<Uop *> rob(params.robSize + 1);
    for (uint64_t seq = 0; seq <= params.robSize; ++seq) {
        records.push_back(aluDyn(seq));
        storage.push_back(makeUop(records.back()));
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
    const DynInst older_dyn = memDyn(1, Op::Ld, 8, 0x2000);
    const DynInst younger_dyn = memDyn(2, Op::Ld, 8, 0x2008);
    Uop older = makeUop(older_dyn);
    Uop younger = makeUop(younger_dyn);
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

// ---------------------------------------------------------------------
// Corruption far apart: long runs between the events that break a rule
// ---------------------------------------------------------------------

namespace
{

/** Fetch and commit every seq in [@a first, @a last] but @a skip. */
void
fetchAndCommit(PipelineAuditor &auditor, uint64_t first, uint64_t last,
               std::initializer_list<uint64_t> skip = {})
{
    for (uint64_t seq = first; seq <= last; ++seq) {
        auditor.onFetch(makeUop(aluDyn(seq)), seq);
        if (std::find(skip.begin(), skip.end(), seq) == skip.end())
            auditor.onCommit(makeUop(aluDyn(seq)), seq + 1);
    }
}

/** Seqs of the recorded violations named @a invariant, in order. */
std::vector<uint64_t>
violationSeqs(const PipelineAuditor &auditor, const std::string &invariant)
{
    std::vector<uint64_t> seqs;
    for (const AuditViolation &violation : auditor.violations())
        if (violation.invariant == invariant)
            seqs.push_back(violation.seq);
    return seqs;
}

/** More seqs than the auditor holds records for at the Ice Lake
 *  defaults (the pipeline's in-flight span plus 8,192). */
constexpr uint64_t pastRetention = 1 << 16;

} // namespace

TEST(AuditorCorruption, LeakDetectedAfterLongRun)
{
    // Seq 0 never commits while many more seqs than the auditor keeps
    // records for flow past it.
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    fetchAndCommit(auditor, 0, pastRetention, {0});
    auditor.onFinish(true, pastRetention + 10);
    EXPECT_EQ(violationSeqs(auditor, "leak.inflight"),
              std::vector<uint64_t>{0})
        << auditor.toJson();
    EXPECT_TRUE(caught(auditor, "leak.count")) << auditor.toJson();
    EXPECT_EQ(auditor.violations().size(), 2u) << auditor.toJson();
}

TEST(AuditorCorruption, RefetchLongAfterCommitDetected)
{
    // A committed seq stays known 8,000 seqs later.
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    fetchAndCommit(auditor, 0, 8000);
    auditor.onFetch(makeUop(aluDyn(0)), 9000);
    EXPECT_EQ(violationSeqs(auditor, "fetch.refetch_committed"),
              std::vector<uint64_t>{0})
        << auditor.toJson();
    EXPECT_EQ(auditor.violations().size(), 1u) << auditor.toJson();
}

TEST(AuditorCorruption, LeaksReportInSeqOrder)
{
    // Seq 1 leaks early and seq 20,000 late, with a long run between:
    // the report lists them oldest first.
    PipelineAuditor auditor(CoreParams::icelake(FusionMode::Helios));
    fetchAndCommit(auditor, 0, 20'000, {1, 20'000});
    auditor.onFinish(true, 30'000);
    EXPECT_EQ(violationSeqs(auditor, "leak.inflight"),
              (std::vector<uint64_t>{1, 20'000}))
        << auditor.toJson();
}
