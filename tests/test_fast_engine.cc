/**
 * @file
 * Decoder-cache execution tests: Hart::runFast() and Hart::step()
 * must match the oracle Hart::referenceStep() across the decoder
 * cache's edge cases — self-modifying code, instruction budgets
 * expiring mid-block, ecall handling inside blocks, indirect jumps
 * leaving the text segment, branches chaining into the middle of a
 * block or out of the last text word, and undecodable words whose
 * top bit is set. Suite-wide equivalence runs through the engine
 * differential harness (harness/differential.hh).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "harness/differential.hh"
#include "hart_paths.hh"
#include "sim/hart.hh"
#include "sim/memory.hh"

using namespace helios;

namespace
{

std::vector<const Workload *>
pick(std::initializer_list<const char *> names)
{
    std::vector<const Workload *> workloads;
    for (const char *name : names)
        workloads.push_back(&findWorkload(name));
    return workloads;
}

/** Run @a prog to completion along every path and assert step() and
 *  runFast() agree with the oracle on every architectural observable;
 *  returns the exit code. */
uint64_t
runAllPaths(const Program &prog, uint64_t max_insts = 1'000'000)
{
    Memory ref_mem;
    Hart ref(ref_mem);
    ref.reset(prog);
    const uint64_t ref_insts = runAlong(HartPath::Oracle, ref, max_insts);
    EXPECT_TRUE(ref.exited()) << "program did not exit";

    for (HartPath path : {HartPath::Step, HartPath::RunFast}) {
        Memory mem;
        Hart hart(mem);
        hart.reset(prog);
        const char *name = hartPathName(path);
        EXPECT_EQ(runAlong(path, hart, max_insts), ref_insts) << name;
        EXPECT_EQ(hart.instsExecuted(), ref.instsExecuted()) << name;
        EXPECT_EQ(hart.pc(), ref.pc()) << name;
        EXPECT_EQ(hart.exited(), ref.exited()) << name;
        EXPECT_EQ(hart.exitCode(), ref.exitCode()) << name;
        EXPECT_EQ(hart.output(), ref.output()) << name;
        EXPECT_EQ(hart.archChecksum(), ref.archChecksum()) << name;
        EXPECT_EQ(mem.checksum(), ref_mem.checksum()) << name;
    }
    return ref.exitCode();
}

uint64_t
runAllPaths(const std::string &source)
{
    return runAllPaths(assemble(source));
}

/** Run @a prog along @a path; returns the FatalError message. */
std::string
faultMessage(const Program &prog, HartPath path)
{
    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    try {
        runAlong(path, hart);
    } catch (const FatalError &err) {
        return err.what();
    }
    ADD_FAILURE() << hartPathName(path) << " did not fault";
    return "";
}

} // namespace

TEST(FastEngine, SmokeSubsetBitIdentical)
{
    // Traced lockstep plus chunked untraced stops over hot loops of
    // different shapes: mcf (pointer chase), qsort (scan loops), fft
    // (butterfly address gen), crc32 (table lookups).
    const EngineDiffReport report = runEngineDifferential(
        pick({"605.mcf_s", "qsort", "fft", "crc32"}), 50'000, 5'000);
    EXPECT_TRUE(report.ok()) << report.toJson();
    EXPECT_EQ(report.tracedInstructions, 4 * 5'000u);
    EXPECT_EQ(report.untracedInstructions, 4 * 50'000u);
    // Chunks of 1..64 instructions: at least one stop per 64.
    EXPECT_GE(report.untracedStops, 4 * 50'000u / 64);
}

TEST(FastEngine, AllWorkloadsWithSmcBitIdentical)
{
    // The whole suite plus the self-modifying kernel and the
    // ELF-loaded syscall kernel, budgeted so the sanitizer trees stay
    // fast.
    const EngineDiffReport report =
        runEngineDifferentialAll(100'000, 2'000);
    ASSERT_EQ(report.workloads.size(), allWorkloads().size() + 2);
    EXPECT_EQ(report.workloads[report.workloads.size() - 2],
              "smc_patch");
    EXPECT_EQ(report.workloads.back(), "elf_checksum");
    EXPECT_TRUE(report.ok()) << report.toJson();
}

TEST(FastEngine, SmcWorkloadBitIdentical)
{
    // The self-modifying kernel rewrites an addi immediate in its own
    // hot loop every iteration; any stale decoder-cache entry or
    // block descriptor diverges from the oracle immediately.
    const Workload &smc = smcPatchWorkload();
    const EngineDiffReport report =
        runEngineDifferential({&smc}, UINT64_MAX, UINT64_MAX);
    EXPECT_TRUE(report.ok()) << report.toJson();

    Memory mem;
    Hart hart(mem);
    hart.reset(smc.program());
    hart.runFast();
    ASSERT_TRUE(hart.exited());
    EXPECT_EQ(hart.exitCode(), smc.reference());
}

TEST(FastEngine, SmcRewritesTerminatorIntoStraightLine)
{
    // The store turns a block *terminator* (beq) into a nop, merging
    // two basic blocks: block lengths spanning the old boundary must
    // be rebuilt, and the next iteration has to fall through into the
    // previously skipped add.
    const std::string source = R"(
        li s0, 0
        li s1, 6
        la t0, spot
    outer:
    spot:
        beq zero, zero, skip
        addi s0, s0, 100
    skip:
        addi s0, s0, 1
        li t1, 0x13        # addi zero, zero, 0 (nop)
        sw t1, 0(t0)
        addi s1, s1, -1
        bnez s1, outer
        mv a0, s0
        li a7, 93
        ecall
    )";
    // Iteration 1 takes the branch (skips the +100); the store then
    // nops it out, so iterations 2..6 fall through: 1 + 5 * 101.
    EXPECT_EQ(runAllPaths(source), 506u);
}

TEST(FastEngine, MaxInstsExpiresMidBlockAndResumes)
{
    // One long straight-line block (16 addis) inside a loop: every
    // budget from 1 up cuts the block at a different interior point.
    // runFast() must stop on the exact instruction, agree with the
    // oracle on pc/seq/state, and resume cleanly from mid-block.
    std::string source = "li s0, 0\nli s1, 3\nloop:\n";
    for (int i = 0; i < 16; ++i)
        source += "addi s0, s0, 1\n";
    source += R"(
        addi s1, s1, -1
        bnez s1, loop
        mv a0, s0
        li a7, 93
        ecall
    )";
    const Program prog = assemble(source);

    for (uint64_t budget = 1; budget <= 60; ++budget) {
        Memory ref_mem, fast_mem;
        Hart ref(ref_mem), fast(fast_mem);
        ref.reset(prog);
        fast.reset(prog);
        EXPECT_EQ(runAlong(HartPath::Oracle, ref, budget),
                  fast.runFast(budget))
            << "budget " << budget;
        EXPECT_EQ(ref.instsExecuted(), fast.instsExecuted())
            << "budget " << budget;
        EXPECT_EQ(ref.pc(), fast.pc()) << "budget " << budget;
        EXPECT_EQ(ref.archChecksum(), fast.archChecksum())
            << "budget " << budget;

        // Resume from wherever the budget expired.
        runAlong(HartPath::Oracle, ref);
        fast.runFast();
        ASSERT_TRUE(fast.exited()) << "budget " << budget;
        EXPECT_EQ(ref.exitCode(), fast.exitCode());
        EXPECT_EQ(fast.exitCode(), 48u) << "budget " << budget;
        EXPECT_EQ(ref.archChecksum(), fast.archChecksum())
            << "budget " << budget;
    }
}

TEST(FastEngine, WriteEcallInsideBlockContinues)
{
    // A non-exit ecall (write) in the middle of the program: runFast()
    // leaves the dispatch loop, services the call with the pc pinned
    // to the ecall, and re-enters mid-stream. Output and the
    // post-call register state (a0 = bytes written) must match.
    const std::string source = R"(
        .data
    msg:
        .asciz "hi"
        .text
        li a0, 1
        la a1, msg
        li a2, 2
        li a7, 64
        ecall
        addi s0, a0, 40    # a0 holds the write's return value
        mv a0, s0
        li a7, 93
        ecall
    )";
    Memory mem;
    Hart hart(mem);
    hart.reset(assemble(source));
    EXPECT_EQ(runAllPaths(source), 42u);
    hart.runFast();
    EXPECT_EQ(hart.output(), "hi");
}

TEST(FastEngine, JalrToNonTextTargetFaultsIdentically)
{
    // An indirect jump into .data lands on a zero word -> invalid
    // instruction. Every path must throw FatalError with the oracle's
    // message (same raw word, same faulting pc).
    const Program prog = assemble(R"(
        .data
    pool:
        .dword 0
        .text
        la t0, pool
        jalr ra, 0(t0)
    )");
    const std::string oracle = faultMessage(prog, HartPath::Oracle);
    EXPECT_NE(oracle.find("invalid instruction"), std::string::npos)
        << oracle;
    EXPECT_EQ(faultMessage(prog, HartPath::Step), oracle);
    EXPECT_EQ(faultMessage(prog, HartPath::RunFast), oracle);
}

TEST(FastEngine, BranchInLastTextWordBeatsTextEnd)
{
    // The last text word is a bne whose taken edge is the only way
    // out; the not-taken fall-through would run off the end of text.
    // The branch's target must win over the text-end sentinel in the
    // slot after it.
    const std::string source = R"(
        li s0, 0
        li s1, 5
        j tail
    done:
        mv a0, s0
        li a7, 93
        ecall
    tail:
        addi s0, s0, 3
        addi s1, s1, -1
        beq s1, zero, done
        addi s0, s0, 0
        bne s1, zero, tail
    )";
    EXPECT_EQ(runAllPaths(source), 15u);
}

TEST(FastEngine, StraightLineOffTextEndFaultsIdentically)
{
    // Straight-line code running past the last text word: runFast()'s
    // text-end sentinel and step()'s off-text path must raise the
    // invalid-instruction fault the oracle raises when it fetches the
    // zero word past text.
    const Program prog = assemble(R"(
        li s0, 7
        addi s0, s0, 1
    )");
    const std::string oracle = faultMessage(prog, HartPath::Oracle);
    EXPECT_NE(oracle.find("invalid instruction"), std::string::npos)
        << oracle;
    EXPECT_EQ(faultMessage(prog, HartPath::Step), oracle);
    EXPECT_EQ(faultMessage(prog, HartPath::RunFast), oracle);
}

TEST(FastEngine, ChainIntoMidBlockRunsFromTheTarget)
{
    // Block lengths are kept for every word, not only for block
    // leaders. The loop back-edge chains to `mid`, the fourth word of
    // the straight-line run that starts at the entry point, so each
    // later iteration enters that block in the middle and is
    // budget-checked with the length counted from `mid`.
    const std::string source = R"(
        li s0, 0
        li s1, 4
        addi s0, s0, 100   # executed once, on the way in
    mid:
        addi s0, s0, 1     # mid-block word, also the loop target
        addi s1, s1, -1
        bnez s1, mid
        mv a0, s0
        li a7, 93
        ecall
    )";
    EXPECT_EQ(runAllPaths(source), 104u);
}

TEST(FastEngine, DecoderCacheIntrospection)
{
    // The cache covers every static instruction.
    const Workload &workload = findWorkload("qsort");
    Memory mem;
    Hart hart(mem);
    hart.reset(workload.program());
    EXPECT_EQ(hart.fastCacheEntries(), workload.program().code.size());
}

TEST(FastEngine, HighBitInvalidWordPastExitIsNeverRun)
{
    // An undecodable word with its top bit set sits after the exit
    // ecall, as arbitrary bytes can in an ELF's executable segment.
    // Translating it must not abort runFast(): the word is never
    // executed, so every path exits 7.
    Program prog = assemble(R"(
        li a0, 7
        li a7, 93
        ecall
    )");
    prog.code.push_back(0xffffffff);
    EXPECT_EQ(runAllPaths(prog), 7u);
}

TEST(FastEngine, HighBitInvalidWordFaultsIdentically)
{
    // The same word, executed: every path raises the oracle's fault,
    // naming the full 32-bit word and its pc.
    Program prog = assemble("li s0, 7\n");
    prog.code.push_back(0xffffffff);
    const std::string oracle = faultMessage(prog, HartPath::Oracle);
    EXPECT_NE(oracle.find("invalid instruction 0xffffffff at pc 0x10004"),
              std::string::npos)
        << oracle;
    EXPECT_EQ(faultMessage(prog, HartPath::Step), oracle);
    EXPECT_EQ(faultMessage(prog, HartPath::RunFast), oracle);
}

TEST(FastEngine, TracedStepMatchesReferenceThroughSmc)
{
    // step() must replay the oracle's exact DynInst stream even while
    // the program patches its own text under the stepper.
    const Workload &smc = smcPatchWorkload();
    Memory ref_mem, step_mem;
    Hart ref(ref_mem), stepper(step_mem);
    ref.reset(smc.program());
    stepper.reset(smc.program());

    DynInst a, b;
    uint64_t steps = 0;
    for (;;) {
        const bool more_ref = ref.referenceStep(a);
        const bool more_step = stepper.step(b);
        ASSERT_EQ(more_ref, more_step) << "at step " << steps;
        if (!more_ref)
            break;
        ASSERT_EQ(a.pc, b.pc) << "at seq " << a.seq;
        ASSERT_EQ(a.nextPc, b.nextPc) << "at seq " << a.seq;
        ASSERT_EQ(a.inst.raw, b.inst.raw) << "at seq " << a.seq;
        ASSERT_EQ(a.effAddr, b.effAddr) << "at seq " << a.seq;
        ASSERT_EQ(a.taken, b.taken) << "at seq " << a.seq;
        ++steps;
    }
    EXPECT_EQ(ref.exitCode(), stepper.exitCode());
    EXPECT_EQ(stepper.exitCode(), smc.reference());
}
