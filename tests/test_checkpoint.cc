/**
 * @file
 * Architectural checkpoint tests: bit-exact serialization round-trips
 * and — the property the sampled-simulation layer stands on —
 * continuation equivalence: a run cut at ANY dynamic instruction
 * index and restored into a fresh hart must finish bit-identically
 * (registers, memory, output, exit state) to the uninterrupted run,
 * along runFast(), step() and the oracle referenceStep(). Cuts are
 * exercised mid-basic-block, after self-modifying stores, and mid-way
 * through the stdin buffer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "harness/differential.hh"
#include "harness/elf_image.hh"
#include "harness/runner.hh"
#include "hart_paths.hh"
#include "sim/checkpoint.hh"
#include "sim/elf_loader.hh"
#include "sim/hart.hh"
#include "sim/memory.hh"
#include "workloads/workloads.hh"

using namespace helios;

namespace
{

/** Everything the differential harness fingerprints a run by. */
struct EndState
{
    uint64_t arch = 0;
    uint64_t mem = 0;
    uint64_t seq = 0;
    bool exited = false;
    uint64_t exitCode = 0;
    std::string output;

    bool operator==(const EndState &other) const = default;
};

EndState
capture(const Hart &hart, const Memory &mem)
{
    return {hart.archChecksum(), mem.checksum(), hart.instsExecuted(),
            hart.exited(),       hart.exitCode(), hart.output()};
}

/** Run @a prog uninterrupted for @a total instructions. */
EndState
runUninterrupted(const Program &prog, uint64_t total, HartPath path)
{
    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    runAlong(path, hart, total);
    return capture(hart, mem);
}

/** Cut @a prog at dynamic instruction @a cut via runFast(). */
Checkpoint
cutAt(const Program &prog, uint64_t cut)
{
    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    hart.runFast(cut);
    EXPECT_EQ(hart.instsExecuted(), cut);
    return hart.makeCheckpoint(prog.sourceHash);
}

/** Restore @a ckpt and run @a remaining more instructions. */
EndState
continueFrom(const Checkpoint &ckpt, uint64_t remaining, HartPath path)
{
    Memory mem;
    Hart hart(mem);
    hart.restoreCheckpoint(ckpt);
    runAlong(path, hart, remaining);
    return capture(hart, mem);
}

/** The continuation property at one cut, along every path. */
void
expectCutContinues(const Program &prog, uint64_t cut, uint64_t total)
{
    const EndState full = runUninterrupted(prog, total, HartPath::Oracle);
    for (HartPath path : {HartPath::Step, HartPath::RunFast})
        ASSERT_EQ(runUninterrupted(prog, total, path), full)
            << hartPathName(path)
            << " disagrees with the oracle before checkpointing is "
               "even involved";

    const Checkpoint ckpt = cutAt(prog, cut);
    EXPECT_EQ(ckpt.instIndex, cut);
    for (HartPath path : allHartPaths)
        EXPECT_EQ(continueFrom(ckpt, total - cut, path), full)
            << hartPathName(path) << " continuation diverged at cut "
            << cut;
}

} // namespace

TEST(Checkpoint, SerializeRoundTripBitExact)
{
    const Program prog = findWorkload("qsort").program();
    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    hart.runFast(12'345);

    const Checkpoint ckpt = hart.makeCheckpoint(prog.sourceHash);
    EXPECT_EQ(ckpt.instIndex, 12'345u);
    EXPECT_EQ(ckpt.programHash, prog.sourceHash);
    EXPECT_FALSE(ckpt.pages.empty());

    const std::string blob = ckpt.serialize();
    const Checkpoint back = Checkpoint::deserialize(blob);
    EXPECT_TRUE(ckpt == back);
    // Serialization is deterministic, so equal checkpoints produce
    // byte-identical blobs.
    EXPECT_EQ(back.serialize(), blob);
}

TEST(Checkpoint, SaveLoadFileRoundTrip)
{
    const Program prog = findWorkload("crc32").program();
    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    hart.runFast(5'000);
    const Checkpoint ckpt = hart.makeCheckpoint(prog.sourceHash);

    const std::string path = ::testing::TempDir() + "ckpt_roundtrip.bin";
    ckpt.save(path);
    const Checkpoint back = Checkpoint::load(path);
    EXPECT_TRUE(ckpt == back);
    std::remove(path.c_str());
}

TEST(Checkpoint, MalformedBlobsThrow)
{
    const Program prog = findWorkload("crc32").program();
    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    hart.runFast(1'000);
    const std::string blob =
        hart.makeCheckpoint(prog.sourceHash).serialize();

    EXPECT_THROW(Checkpoint::deserialize(std::string()), FatalError);
    EXPECT_THROW(
        Checkpoint::deserialize(blob.substr(0, blob.size() / 2)),
        FatalError);
    EXPECT_THROW(Checkpoint::deserialize(blob + "x"), FatalError);
    std::string bad_magic = blob;
    bad_magic[0] = 'X';
    EXPECT_THROW(Checkpoint::deserialize(bad_magic), FatalError);
}

TEST(Checkpoint, RestoreRequiresFreshMemory)
{
    const Program prog = findWorkload("crc32").program();
    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    hart.runFast(100);
    const Checkpoint ckpt = hart.makeCheckpoint(prog.sourceHash);

    // The hart's memory already holds the program image: restoring
    // on top would silently merge two states.
    EXPECT_THROW(hart.restoreCheckpoint(ckpt), FatalError);
}

TEST(Checkpoint, CutSweepContinuesBitIdentical)
{
    // Arbitrary dynamic indices, chosen to land mid-basic-block in
    // this kernel's hot loop; instruction-exact runFast stops make
    // every index a legal cut.
    const Program prog = findWorkload("crc32").program();
    const uint64_t total = 60'000;
    for (uint64_t cut : {uint64_t(1), uint64_t(2), uint64_t(777),
                         uint64_t(7'778), uint64_t(30'001),
                         uint64_t(59'999)})
        expectCutContinues(prog, cut, total);
}

TEST(Checkpoint, InitialStateCutEqualsReset)
{
    // Cut 0 — a checkpoint of the freshly reset hart — must behave
    // exactly like reset(prog): the sampling layer uses it for the
    // first interval.
    const Program prog = findWorkload("fft").program();
    expectCutContinues(prog, 0, 20'000);
}

TEST(Checkpoint, PostSmcCutContinues)
{
    // The self-modifying kernel rewrites an addi immediate inside its
    // own hot loop; cuts before, amid and after the patching stores
    // must restore correctly because the decoder cache is rebuilt
    // from the restored memory image, not serialized.
    const Workload &smc = smcPatchWorkload();
    const Program prog = smc.program();

    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    const uint64_t total = hart.runFast();
    ASSERT_TRUE(hart.exited());
    const EndState full = capture(hart, mem);
    ASSERT_EQ(hart.exitCode(), smc.reference());

    for (uint64_t cut :
         {total / 7, total / 3, total / 2, total - 3, total - 1}) {
        const Checkpoint ckpt = cutAt(prog, cut);
        for (HartPath path : allHartPaths)
            EXPECT_EQ(continueFrom(ckpt, UINT64_MAX, path), full)
                << "post-SMC " << hartPathName(path)
                << " continuation diverged at cut " << cut;
    }
}

namespace
{

/** Two read(2) calls drain an 8-byte stdin buffer in halves; the
 *  guest sums the bytes it read and exits with the sum, so any replay
 *  or loss changes the exit code. */
Program
stdinSumProgram()
{
    const Program assembled = assemble(R"(
        li s0, 0
        la a1, buf
        li a7, 63
        li a0, 0
        li a2, 4
        ecall
        add s0, s0, a0
        li a7, 63
        li a0, 0
        la a1, buf
        li a2, 4
        ecall
        add s0, s0, a0
        la t0, buf
        ld t1, 0(t0)
        add s0, s0, t1
        andi a0, s0, 255
        li a7, 93
        ecall
        .data
    buf:
        .dword 0
    )");
    Program prog = loadElf(buildElfImage(assembled));
    prog.stdinData = std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8);
    return prog;
}

} // namespace

TEST(Checkpoint, MidStdinCutPreservesReadPosition)
{
    // A cut between the two reads must carry the buffer *and* the
    // read position, or the second read replays the first half.
    const Program prog = stdinSumProgram();

    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    const uint64_t total = hart.runFast();
    ASSERT_TRUE(hart.exited());
    const EndState full = capture(hart, mem);

    // Every cut index: the interesting ones sit between the first
    // ecall (stdinPos = 4) and the second (stdinPos = 8).
    for (uint64_t cut = 1; cut < total; ++cut) {
        const Checkpoint ckpt = cutAt(prog, cut);
        for (HartPath path : allHartPaths)
            EXPECT_EQ(continueFrom(ckpt, UINT64_MAX, path), full)
                << "mid-stdin " << hartPathName(path)
                << " continuation diverged at cut " << cut;
    }
}

TEST(Checkpoint, CutsFromOneRunShareTheStdinBuffer)
{
    // A cut and a restore copy the stdin buffer's handle, not its
    // bytes: every checkpoint of one run, and every hart restored from
    // one, reads the one buffer the run was given.
    const Program prog = stdinSumProgram();
    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    const uint64_t total = hart.runFast();
    ASSERT_TRUE(hart.exited());
    const EndState full = capture(hart, mem);

    Memory cut_mem;
    Hart cutter(cut_mem);
    cutter.reset(prog);
    std::vector<Checkpoint> cuts;
    for (uint64_t cut = 1; cut < total; ++cut) {
        cutter.runFast(1);
        cuts.push_back(cutter.makeCheckpoint(prog.sourceHash));
    }
    ASSERT_GE(cuts.size(), 2u);
    EXPECT_EQ(cuts.front().sys.stdinPos, 0u);
    EXPECT_EQ(cuts.back().sys.stdinPos, 8u);
    const char *const shared = cuts.front().sys.stdinData.data();
    for (const Checkpoint &ckpt : cuts) {
        EXPECT_EQ(ckpt.sys.stdinData.data(), shared)
            << "cut " << ckpt.instIndex << " copied the stdin bytes";
        EXPECT_EQ(ckpt.sys.stdinData.view(), prog.stdinData);

        Memory restored_mem;
        Hart restored(restored_mem);
        restored.restoreCheckpoint(ckpt);
        EXPECT_EQ(restored.makeCheckpoint(prog.sourceHash)
                      .sys.stdinData.data(),
                  shared)
            << "restoring cut " << ckpt.instIndex
            << " copied the stdin bytes";
        restored.runFast();
        EXPECT_EQ(capture(restored, restored_mem), full)
            << "continuation diverged at cut " << ckpt.instIndex;
    }

    // A deserialized checkpoint holds its own copy, equal in content.
    const Checkpoint copy = Checkpoint::deserialize(cuts[0].serialize());
    EXPECT_NE(copy.sys.stdinData.data(), shared);
    EXPECT_TRUE(copy == cuts[0]);
}

TEST(Checkpoint, MidOutputCutPreservesCollectedBytes)
{
    // The write(2) output collected so far is part of the
    // architectural fingerprint (archChecksum hashes it); a cut
    // between two prints must carry the first print's bytes.
    const Program prog = assemble(R"(
        la a1, msg
        li a7, 64
        li a0, 1
        li a2, 3
        ecall
        la a1, msg2
        li a7, 64
        li a0, 1
        li a2, 3
        ecall
        li a0, 0
        li a7, 93
        ecall
        .data
    msg:
        .byte 102, 111, 111
    msg2:
        .byte 98, 97, 114
    )");

    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    const uint64_t total = hart.runFast();
    ASSERT_TRUE(hart.exited());
    ASSERT_EQ(hart.output(), "foobar");
    const EndState full = capture(hart, mem);

    for (uint64_t cut = 1; cut < total; ++cut) {
        const Checkpoint ckpt = cutAt(prog, cut);
        EXPECT_EQ(continueFrom(ckpt, UINT64_MAX, HartPath::RunFast),
                  full)
            << "mid-output continuation diverged at cut " << cut;
    }
}

TEST(Checkpoint, RestoredIntervalMatchesDetailedSlice)
{
    // The harness-level contract the sampling layer uses: a detailed
    // (timed) run restored from a checkpoint commits exactly the
    // instructions the budget asks for, and its hart ends in the same
    // architectural state as the uninterrupted functional run of
    // cut + budget instructions.
    const Workload &workload = findWorkload("dijkstra");
    const Program prog = workload.program();
    const uint64_t cut = 25'000, window = 10'000;

    const Checkpoint ckpt = cutAt(prog, cut);
    const RunResult timed =
        runOne(workload, CoreParams::icelake(FusionMode::Helios),
               window, &ckpt, 0);
    EXPECT_TRUE(timed.sampled);
    EXPECT_EQ(timed.sampleStartInst, cut);
    EXPECT_EQ(timed.instructions, window);

    const EndState functional =
        runUninterrupted(prog, cut + window, HartPath::RunFast);
    EXPECT_EQ(timed.archChecksum, functional.arch);
    EXPECT_EQ(timed.memChecksum, functional.mem);
    EXPECT_EQ(timed.hartInstructions, functional.seq);
}
