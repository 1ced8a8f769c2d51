/**
 * @file
 * Helios corner-case tests with hand-crafted programs exercising the
 * repair machinery of Sections IV-B and IV-C: dependence deadlocks,
 * serializing catalysts, region mispredictions and ordering
 * violations. Every run must still commit the exact functional stream.
 */

#include <map>
#include <set>
#include <string_view>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "harness/runner.hh"
#include "sim/hart.hh"
#include "uarch/pipeline.hh"

using namespace helios;

namespace
{

/** Run raw assembly through the pipeline under a fusion mode. */
RunResult
runAsm(const std::string &body, FusionMode mode,
       uint64_t max_insts = 400'000,
       PipelineObserver *observer = nullptr)
{
    const std::string source = body + R"(
        .text
        li a7, 93
        ecall
    )";
    Memory mem;
    Hart hart(mem);
    hart.reset(assemble(source));
    HartFeed feed(hart, max_insts);
    CoreParams params = CoreParams::icelake(mode);
    Pipeline pipeline(params, feed);
    if (observer)
        pipeline.attach(observer);
    const PipelineResult pres = pipeline.run();
    RunResult result;
    result.cycles = pres.cycles;
    result.instructions = pres.instructions;
    result.uops = pres.uops;
    result.stats = pipeline.stats();
    return result;
}

uint64_t
functionalLength(const std::string &body, uint64_t max_insts = 400'000)
{
    const std::string source = body + R"(
        .text
        li a7, 93
        ecall
    )";
    Memory mem;
    Hart hart(mem);
    hart.reset(assemble(source));
    return hart.runFast(max_insts);
}

/*
 * Kernels that break a predicted pair, shared by the test of each
 * repair and by Helios.EachPairBreakIsCountedAndReported.
 */

/** The tail's base depends on the head's result through the catalyst
 *  (Deadlock-Tag unfuse, case 2 of Section IV-C). */
const char *const deadlockKernel = R"(
        la x2, buf
        sd x2, 0(x2)     # buf[0] holds the buffer's own address
        li s3, 3000
    loop:
        ld x5, 0(x2)     # x5 = &buf
        andi x6, x5, 0   # x6 = 0, but depends on x5
        add x7, x6, x2   # x7 = &buf, depends on x5
        ld x8, 8(x7)     # same line as the first load, DBR
        add x9, x8, x5
        addi s3, s3, -1
        bnez s3, loop
        mv a0, x9
        .data
        .align 6
    buf:
        .zero 64
    )";

/** A fence between two same-line loads (case 4 of Section IV-C). */
const char *const serializingKernel = R"(
        la x2, buf
        li s3, 2000
    loop:
        ld x5, 0(x2)
        fence
        ld x7, 8(x2)
        add x8, x5, x7
        addi s3, s3, -1
        bnez s3, loop
        mv a0, x8
        .data
        .align 6
    buf:
        .zero 64
    )";

/** A store pair across the loop back-edge whose catalyst sometimes
 *  holds a store to a distant line (case 3, Section IV-B4). */
const char *const storeCatalystKernel = R"(
        la x2, buf
        la x3, far
        li s0, 4000
    loop:
        sd s0, 0(x2)
        li t0, 2654435761
        mul t0, t0, s0
        srli t0, t0, 28
        andi t0, t0, 15
        beqz t0, alt
        addi t1, t1, 1
        j join
    alt:
        sd s0, 64(x3)
        addi t2, t2, 1
    join:
        sd s0, 8(x2)
        andi t5, s0, 31
        slli t5, t5, 7
        add t5, t5, x3
        sd s0, 1024(t5)
        addi s0, s0, -1
        bnez s0, loop
        mv a0, t1
        .data
        .align 6
    buf:
        .zero 64
        .align 6
    far:
        .zero 8192
    )";

/** Three same-line load pairs interleaved: with nest depth 2 the third
 *  head reaches Rename while two nests are open (Section IV-B2). */
const char *const nestKernel = R"(
        la a1, buf
        la a2, buf2
        la a3, buf3
        li s1, 3000
    loop:
        ld t0, 0(a1)
        ld t1, 0(a2)
        ld t2, 0(a3)
        add a4, t0, t1
        ld t3, 8(a1)
        ld t4, 8(a2)
        ld t5, 8(a3)
        add a5, t3, t4
        add a0, a4, t5
        add a0, a0, t2
        addi s1, s1, -1
        bnez s1, loop
        .data
        .align 6
    buf:
        .zero 64
        .align 6
    buf2:
        .zero 64
        .align 6
    buf3:
        .zero 64
    )";

/** A load pair whose tail's base register is loaded inside the
 *  catalyst: a different-base (DBR) pair that the late-RaW refinement
 *  unfuses. The catalyst load reads a line of its own each iteration
 *  (64 pointer slots a line apart), so it never fuses and stands as a
 *  plain load in the catalyst. */
const char *const lateRawKernel = R"(
        la a1, buf
        la a2, ptrs
        addi t0, a1, 8
        mv t5, a2
        li t6, 64
    fill:
        sd t0, 0(t5)     # every slot holds &buf[1]
        addi t5, t5, 64
        addi t6, t6, -1
        bnez t6, fill
        li s1, 3000
    loop:
        andi t5, s1, 63
        slli t5, t5, 6
        add t5, t5, a2
        ld t1, 0(a1)     # head
        ld t2, 0(t5)     # catalyst load of the tail's base
        ld t3, 0(t2)     # tail: the head's line, base from the catalyst
        add a0, t1, t3
        addi s1, s1, -1
        bnez s1, loop
        .data
        .align 6
    buf:
        .zero 64
        .align 6
    ptrs:
        .zero 4096
    )";

} // namespace

TEST(Helios, PredictorFusesRecurringSameLinePairs)
{
    // Two same-line loads separated by ALU work: classic NCSF.
    const std::string body = R"(
        la x2, buf
        li s3, 4000
    loop:
        ld x5, 0(x2)
        add x6, x5, x5
        xor x6, x6, x5
        add x6, x6, x6
        ld x7, 16(x2)
        add x8, x7, x6
        addi s3, s3, -1
        bnez s3, loop
        mv a0, x8
        .data
        .align 6
    buf:
        .zero 64
    )";
    RunResult r = runAsm(body, FusionMode::Helios);
    // A handful of UCH matches suffice to train the predictor; once
    // fused, pairs stop entering the UCH.
    EXPECT_GT(r.stat("uch.matches"), 2u);
    EXPECT_GT(r.stat("pairs.ncsf"), 1000u);
    EXPECT_EQ(r.instructions, functionalLength(body));
}

TEST(Helios, DependentPairIsUnfusedNotDeadlocked)
{
    // The tail's base depends on the head's result through the
    // catalyst: the UCH/FP will propose the fusion (same line), and
    // the rename-time dependence check must unfuse it (case 2 of
    // Section IV-C) rather than hang.
    const std::string body = deadlockKernel;
    RunResult r = runAsm(body, FusionMode::Helios);
    // The repair fires repeatedly until the per-PC strike suppression
    // stops the predictor from proposing the doomed pair at all.
    EXPECT_GT(r.stat("fusion.unfuse_deadlock"), 5u);
    EXPECT_EQ(r.instructions, functionalLength(body));
}

TEST(Helios, SerializingCatalystUnfuses)
{
    // A fence between two same-line loads: once trained, the pair is
    // fused speculatively and must be unfused when the fence renames
    // (case 4 of Section IV-C).
    const std::string body = serializingKernel;
    RunResult r = runAsm(body, FusionMode::Helios);
    // Fires until strike suppression retires the pair (see above).
    EXPECT_GT(r.stat("fusion.unfuse_serializing"), 5u);
    EXPECT_EQ(r.instructions, functionalLength(body));
}

TEST(Helios, StoreInCatalystUnfusesStorePair)
{
    // The trained pair crosses the loop back-edge; a balanced diamond
    // in its catalyst occasionally contains a store to a distant
    // line, which must unfuse the pending store pair at rename
    // (case 3, Section IV-B4).
    const std::string body = storeCatalystKernel;
    RunResult r = runAsm(body, FusionMode::Helios);
    EXPECT_GT(r.stat("fusion.fp_applied"), 100u);
    // The repair fires on the first far-path occurrences; afterwards
    // the tournament migrates to the history-indexed component, which
    // learns not to predict fusion on the store-carrying path at all
    // (an emergent, and desirable, predictor behaviour).
    EXPECT_GE(r.stat("fusion.unfuse_store_catalyst"), 2u);
    EXPECT_EQ(r.instructions, functionalLength(body));
}

TEST(Helios, RegionMispredictFlushesAndRetrains)
{
    // The pair's distance is stable but the second address
    // periodically jumps out of the 64-byte region: case 5 flushes,
    // resets confidence, and execution stays architecturally exact.
    const std::string body = R"(
        la x2, buf
        li s0, 3000
        li s2, 0
    loop:
        andi t0, s0, 63
        snez t1, t0
        slli t1, t1, 3       # 8 when in-region, 0 -> far offset below
        sltiu t2, t1, 1
        slli t2, t2, 9       # 512 when t1 == 0
        or t1, t1, t2
        add t3, x2, t1
        ld x5, 0(x2)
        add s2, s2, x5
        ld x6, 0(t3)
        add s2, s2, x6
        addi s0, s0, -1
        bnez s0, loop
        mv a0, s2
        .data
        .align 6
    buf:
        .zero 1024
    )";
    RunResult r = runAsm(body, FusionMode::Helios);
    EXPECT_GT(r.stat("fusion.mispredict_region"), 5u);
    EXPECT_GT(r.stat("flush.fusion_region"), 5u);
    EXPECT_EQ(r.instructions, functionalLength(body));
}

TEST(Helios, HoistedPairViolationRetrainsPredictor)
{
    // A store between two same-line loads writes bytes the second
    // load reads: hoisting the pair causes an ordering violation; the
    // fusion predictor must lose confidence instead of looping.
    const std::string body = R"(
        la x2, buf
        li s3, 4000
    loop:
        ld x5, 0(x2)
        addi x6, x5, 1
        sd x6, 8(x2)
        ld x7, 8(x2)
        add x8, x7, x5
        addi s3, s3, -1
        bnez s3, loop
        mv a0, x8
        .data
        .align 6
    buf:
        .zero 64
    )";
    RunResult r = runAsm(body, FusionMode::Helios);
    EXPECT_EQ(r.instructions, functionalLength(body));
    // Either the pair never fused (store-to-load forwarding serves the
    // tail) or violations retrained the predictor; both are sound, but
    // the run must not livelock in violation flushes.
    EXPECT_LT(r.stat("flush.order_violation"), 400u);
}

TEST(Helios, NestDepthLimitsConcurrentFusions)
{
    // Three interleaved same-line pairs per iteration: with nest depth
    // 2, the third head nucleus entering rename must revert.
    const std::string body = nestKernel;
    RunResult r = runAsm(body, FusionMode::Helios);
    EXPECT_GT(r.stat("fusion.fp_applied"), 500u);
    EXPECT_EQ(r.instructions, functionalLength(body));
}

TEST(Helios, EachPairBreakIsCountedAndReported)
{
    // One kernel per reason a predicted pair breaks before issue: the
    // reason's counter moves, observers hear the break under that
    // reason (at most once per count: only a pair's first reason is
    // reported), and the run stays architecturally exact.
    struct Row
    {
        ProfBreak reason;
        const char *counter;
        const char *kernel;
    };
    const Row rows[] = {
        {ProfBreak::NestLimit, "fusion.fp_nest_limited", nestKernel},
        {ProfBreak::Deadlock, "fusion.unfuse_deadlock", deadlockKernel},
        {ProfBreak::StoreCatalyst, "fusion.unfuse_store_catalyst",
         storeCatalystKernel},
        {ProfBreak::Serializing, "fusion.unfuse_serializing",
         serializingKernel},
        {ProfBreak::LateRaw, "fusion.unfuse_late_raw", lateRawKernel},
    };
    struct Breaks : PipelineObserver
    {
        std::map<ProfBreak, uint64_t> count;

        void
        onPredictorBreak(uint64_t, ProfBreak reason) override
        {
            ++count[reason];
        }
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(profBreakName(row.reason));
        Breaks breaks;
        RunResult r =
            runAsm(row.kernel, FusionMode::Helios, 400'000, &breaks);
        EXPECT_GT(r.stat(row.counter), 0u);
        EXPECT_GT(breaks.count[row.reason], 0u);
        EXPECT_LE(breaks.count[row.reason], r.stat(row.counter));
        EXPECT_EQ(r.instructions, functionalLength(row.kernel));
    }
}

TEST(Helios, CatalystHoldIsChargedToTheFusedSite)
{
    // A fused load pair that has completed still waits at the ROB head
    // until the catalyst store behind the divider resolves its address
    // (the commit-time catalyst hold). Those cycles belong to
    // cpi.fusion.catalyst, with the pair's head as the blocked PC, not
    // to cpi.frontend: the ROB is full of work.
    const std::string body = R"(
        la x2, buf
        la x3, buf2
        li x10, 0
        li x11, 1
        li s0, 3000
    loop:
        ld x5, 0(x2)
        div x9, x10, x11
        add x13, x9, x3
        sd x5, 0(x13)
        ld x7, 16(x2)
        add x14, x7, x5
        addi s0, s0, -1
        bnez s0, loop
        mv a0, x14
        .data
        .align 6
    buf:
        .zero 64
        .align 6
    buf2:
        .zero 64
    )";
    struct Charges : PipelineObserver
    {
        std::set<uint64_t> ncsfHeads;
        uint64_t catalystCycles = 0;
        uint64_t atNcsfHead = 0;

        void
        onFusePair(const Uop &head, const DynInst &, FusionKind kind,
                   bool, uint64_t) override
        {
            if (kind == FusionKind::NcsfMem)
                ncsfHeads.insert(head.dyn->pc);
        }

        void
        onCycleEnd(const CycleView &view) override
        {
            if (std::string_view(view.cpiCategory) !=
                "cpi.fusion.catalyst")
                return;
            ++catalystCycles;
            if (view.headBlocked && ncsfHeads.count(view.blockedPc))
                ++atNcsfHead;
        }
    } charges;
    RunResult r = runAsm(body, FusionMode::Helios, 400'000, &charges);
    EXPECT_GT(r.stat("pairs.ncsf"), 1000u);
    EXPECT_GT(r.stat("cpi.fusion.catalyst"), 1000u);
    EXPECT_EQ(charges.catalystCycles, r.stat("cpi.fusion.catalyst"));
    EXPECT_EQ(charges.atNcsfHead, charges.catalystCycles);
    EXPECT_EQ(r.instructions, functionalLength(body));
}

TEST(Helios, OracleFusesWithoutPredictor)
{
    const std::string body = R"(
        la x2, buf
        li s0, 3000
    loop:
        ld x5, 0(x2)
        add x6, x5, x5
        ld x7, 16(x2)
        add x9, x7, x6
        addi s0, s0, -1
        bnez s0, loop
        mv a0, x9
        .data
        .align 6
    buf:
        .zero 64
    )";
    // The address oracle names the head from the first iteration on;
    // the UCH and the tournament predictor are never consulted.
    RunResult r = runAsm(body, FusionMode::Oracle);
    EXPECT_EQ(r.stat("pairs.ncsf"), 3000u);
    EXPECT_EQ(r.stat("uch.matches"), 0u);
    EXPECT_EQ(r.stat("fusion.mispredicts"), 0u);
    EXPECT_EQ(r.instructions, functionalLength(body));
}

TEST(Helios, DbrLoadPairsFuse)
{
    // Same line through two different base registers: invisible to
    // static fusion, captured by the predictive scheme (Section
    // IV-B5).
    const std::string body = R"(
        la x2, buf
        addi x3, x2, 8
        li s3, 3000
    loop:
        ld x5, 0(x2)
        add x6, x5, x5
        ld x7, 0(x3)
        add x8, x7, x6
        addi s3, s3, -1
        bnez s3, loop
        mv a0, x8
        .data
        .align 6
    buf:
        .zero 64
    )";
    RunResult r = runAsm(body, FusionMode::Helios);
    EXPECT_GT(r.stat("pairs.dbr"), 1000u);
    EXPECT_EQ(r.instructions, functionalLength(body));

    // CSF-SBR cannot touch these.
    RunResult csf = runAsm(body, FusionMode::CsfSbr);
    EXPECT_EQ(csf.stat("pairs.csf_mem") + csf.stat("pairs.ncsf"), 0u);
}

TEST(Helios, AsymmetricPairsFuse)
{
    const std::string body = R"(
        la x2, buf
        li s3, 3000
    loop:
        lw x5, 0(x2)
        add x6, x5, x5
        ld x7, 8(x2)
        add x8, x7, x6
        addi s3, s3, -1
        bnez s3, loop
        mv a0, x8
        .data
        .align 6
    buf:
        .zero 64
    )";
    RunResult r = runAsm(body, FusionMode::Helios);
    EXPECT_GT(r.stat("pairs.ncsf"), 1000u);
    EXPECT_EQ(r.instructions, functionalLength(body));
}

TEST(Helios, StorePairsRelieveStoreQueue)
{
    // A store burst to a large region: store pairs halve SQ entries.
    const std::string body = R"(
        la x2, buf
        li s0, 6000
        mv t0, x2
    loop:
        sd s0, 0(t0)
        sd s0, 8(t0)
        sd s0, 16(t0)
        sd s0, 24(t0)
        addi t0, t0, 32
        andi t1, s0, 1023
        bnez t1, no_reset
        mv t0, x2
    no_reset:
        addi s0, s0, -1
        bnez s0, loop
        li a0, 0
        .data
        .align 6
    buf:
        .zero 262144
    )";
    RunResult none = runAsm(body, FusionMode::None);
    RunResult csf = runAsm(body, FusionMode::CsfSbr);
    EXPECT_GT(csf.stat("pairs.csf_mem"), 5000u);
    EXPECT_LE(csf.cycles, none.cycles);
}

TEST(Helios, DifferentBaseStorePairsAreNotFused)
{
    // Stores through two bases into the same line: the predictor
    // learns the pair, and decode rejects it (Section IV-B).
    const std::string body = R"(
        la x2, buf
        addi x3, x2, 8
        li s0, 3000
    loop:
        sd s0, 0(x2)
        addi t1, t1, 1
        sd s0, 0(x3)
        addi s0, s0, -1
        bnez s0, loop
        mv a0, t1
        .data
        .align 6
    buf:
        .zero 64
    )";
    RunResult r = runAsm(body, FusionMode::Helios);
    EXPECT_EQ(r.stat("pairs.ncsf"), 0u);
    EXPECT_GT(r.stat("fusion.fp_store_dbr"), 100u);
}

TEST(Helios, PaperFigure1Example)
{
    // The exact example of Figure 1: head `ld x1, 0(x2)`, a
    // three-instruction catalyst with no dependence on the nucleii,
    // tail `ld x3, 8(x2)` — fused into one contiguous NCSF'd
    // load-pair µ-op at distance 4.
    const std::string body = R"(
        la x2, buf
        li s0, 3000
    loop:
        ld x1, 0(x2)
        add x7, x8, x5
        sub x12, x7, x11
        mv x15, x8
        ld x3, 8(x2)
        add x9, x1, x3
        addi s0, s0, -1
        bnez s0, loop
        mv a0, x9
        .data
        .align 6
    buf:
        .zero 64
    )";
    RunResult r = runAsm(body, FusionMode::Helios);
    EXPECT_GT(r.stat("pairs.ncsf"), 2000u);
    // distance = 4 µ-ops (three catalyst instructions in between).
    EXPECT_EQ(r.stat("pairs.distance_sum") / r.stat("pairs.ncsf"), 4u);
    EXPECT_EQ(r.stat("fusion.mispredicts"), 0u);
    EXPECT_EQ(r.instructions, functionalLength(body));
}
