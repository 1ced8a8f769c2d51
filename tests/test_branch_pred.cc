/** @file Branch predictor (TAGE + BTB + RAS) tests. */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hh"
#include "uarch/branch_pred.hh"

using namespace helios;

namespace
{

Instruction
branchInst()
{
    Instruction inst;
    inst.op = Op::Bne;
    inst.rs1 = 5;
    inst.rs2 = 6;
    inst.imm = -16;
    return inst;
}

Instruction
jalInst(uint8_t rd = RegZero)
{
    Instruction inst;
    inst.op = Op::Jal;
    inst.rd = rd;
    return inst;
}

Instruction
jalrInst(uint8_t rd, uint8_t rs1)
{
    Instruction inst;
    inst.op = Op::Jalr;
    inst.rd = rd;
    inst.rs1 = rs1;
    return inst;
}

/**
 * Direct fold of the newest @a length bits of @a ghist into @a bits
 * bits: XOR of consecutive @a bits-wide chunks. Tage once computed
 * every index and tag this way on each lookup; it now keeps folded
 * registers, and this loop is their oracle.
 */
uint64_t
foldHistory(uint64_t ghist, unsigned length, unsigned bits)
{
    uint64_t folded = 0;
    unsigned consumed = 0;
    while (consumed < length) {
        const unsigned chunk = std::min(length - consumed, bits);
        folded ^= (ghist >> consumed) & ((1ULL << chunk) - 1);
        consumed += chunk;
    }
    return folded & ((1ULL << bits) - 1);
}

} // namespace

TEST(Tage, FoldedHistoryMatchesDirectFold)
{
    // Geometric history lengths of the tagged tables; each table
    // hashes at most the 63 bits a 64-bit history register supplies.
    const unsigned lengths[Tage::numTables] = {4,  7,  12,  21,
                                               36, 62, 106, 181};
    Tage tage;
    Rng rng(18);
    uint64_t ghist = 0, path = 0;
    for (int i = 0; i < 100'000; ++i) {
        const uint64_t pc = 0x10000 + 4 * rng.below(1u << 14);
        const bool taken = rng.next() & 1;
        tage.predict(pc);
        tage.update(pc, taken);
        tage.updateHistory(taken);
        ghist = (ghist << 1) | (taken ? 1 : 0);
        path = (path << 1) ^ (taken ? 3 : 1);

        const uint64_t probe = 0x10000 + 4 * rng.below(1u << 14);
        for (unsigned t = 0; t < Tage::numTables; ++t) {
            const unsigned window = std::min(lengths[t], 63u);
            const uint64_t index =
                ((probe >> 2) ^ (probe >> (Tage::tableBits - 2)) ^
                 foldHistory(ghist, window, Tage::tableBits) ^
                 (path >> (t + 1))) &
                ((1u << Tage::tableBits) - 1);
            const uint64_t tag =
                ((probe >> 2) ^ foldHistory(ghist, window, Tage::tagBits) ^
                 (foldHistory(ghist, window, Tage::tagBits - 1) << 1)) &
                ((1u << Tage::tagBits) - 1);
            ASSERT_EQ(tage.tableIndex(t, probe), index)
                << "table " << t << " after " << i + 1 << " outcomes";
            ASSERT_EQ(tage.tableTag(t, probe), tag)
                << "table " << t << " after " << i + 1 << " outcomes";
        }
    }
}

TEST(BranchPredictor, LearnsAlwaysTaken)
{
    BranchPredictor bp;
    const Instruction inst = branchInst();
    unsigned wrong = 0;
    for (int i = 0; i < 200; ++i)
        wrong += !bp.predictAndCheck(0x1000, inst, true, 0x0ff0);
    EXPECT_LT(wrong, 5u);
}

TEST(BranchPredictor, LearnsLoopPattern)
{
    BranchPredictor bp;
    const Instruction inst = branchInst();
    // 7 taken, 1 not-taken, repeated: TAGE history should capture it.
    unsigned wrong_late = 0;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 8; ++i) {
            const bool taken = i != 7;
            const bool ok = bp.predictAndCheck(
                0x2000, inst, taken, taken ? 0x1ff0 : 0x2004);
            if (round > 150)
                wrong_late += !ok;
        }
    }
    // 49 × 8 late predictions; allow a small residue.
    EXPECT_LT(wrong_late, 30u);
}

TEST(BranchPredictor, AlternatingPattern)
{
    BranchPredictor bp;
    const Instruction inst = branchInst();
    unsigned wrong_late = 0;
    for (int i = 0; i < 400; ++i) {
        const bool taken = i & 1;
        const bool ok = bp.predictAndCheck(0x3000, inst, taken,
                                           taken ? 0x2ff0 : 0x3004);
        if (i > 300)
            wrong_late += !ok;
    }
    EXPECT_LT(wrong_late, 10u);
}

TEST(BranchPredictor, JalLearnsTarget)
{
    BranchPredictor bp;
    const Instruction inst = jalInst();
    EXPECT_FALSE(bp.predictAndCheck(0x4000, inst, true, 0x5000));
    EXPECT_TRUE(bp.predictAndCheck(0x4000, inst, true, 0x5000));
}

TEST(BranchPredictor, CallReturnPairsViaRas)
{
    BranchPredictor bp;
    const Instruction call = jalInst(RegRa);
    const Instruction ret = jalrInst(RegZero, RegRa);

    // Warm the call target.
    bp.predictAndCheck(0x6000, call, true, 0x7000);
    // Nested calls from different sites return correctly through the
    // stack without target training.
    unsigned wrong = 0;
    for (int i = 0; i < 50; ++i) {
        bp.predictAndCheck(0x6000, call, true, 0x7000);
        bp.predictAndCheck(0x7000 + 4 * (i % 3), call, true, 0x8000);
        wrong += !bp.predictAndCheck(0x8100, ret,
                                     true, 0x7004 + 4 * (i % 3));
        wrong += !bp.predictAndCheck(0x7100, ret, true, 0x6004);
    }
    EXPECT_EQ(wrong, 0u);
}

TEST(BranchPredictor, IndirectJumpUsesBtb)
{
    BranchPredictor bp;
    const Instruction jump = jalrInst(RegZero, 7); // not a return
    EXPECT_FALSE(bp.predictAndCheck(0x9000, jump, true, 0xa000));
    EXPECT_TRUE(bp.predictAndCheck(0x9000, jump, true, 0xa000));
    // Target change mispredicts once, then re-learns.
    EXPECT_FALSE(bp.predictAndCheck(0x9000, jump, true, 0xb000));
    EXPECT_TRUE(bp.predictAndCheck(0x9000, jump, true, 0xb000));
}

TEST(BranchPredictor, StatsAccumulate)
{
    BranchPredictor bp;
    const Instruction inst = branchInst();
    for (int i = 0; i < 10; ++i)
        bp.predictAndCheck(0x1000, inst, true, 0x0ff0);
    EXPECT_EQ(bp.lookups, 10u);
    EXPECT_LE(bp.mispredicts, 10u);
}

TEST(Ras, PushPopOrder)
{
    ReturnAddressStack ras;
    EXPECT_TRUE(ras.empty());
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_TRUE(ras.empty());
    EXPECT_EQ(ras.pop(), 0u); // underflow is graceful
}

TEST(Ras, OverflowWrapsOldestEntries)
{
    ReturnAddressStack ras;
    for (unsigned i = 0; i < ReturnAddressStack::depth + 4; ++i)
        ras.push(i);
    // The newest entries survive.
    EXPECT_EQ(ras.pop(), ReturnAddressStack::depth + 3);
    EXPECT_EQ(ras.pop(), ReturnAddressStack::depth + 2);
}
