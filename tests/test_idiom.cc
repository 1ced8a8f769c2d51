/**
 * @file
 * Fusion pairing rules: the Table I idiom matcher and the NCSF
 * eligibility predicate (fusion/ncsf_rules.hh).
 */

#include <optional>

#include <gtest/gtest.h>

#include "fusion/idiom.hh"
#include "fusion/ncsf_rules.hh"

using namespace helios;

namespace
{

Instruction
make(Op op, uint8_t rd, uint8_t rs1, uint8_t rs2, int64_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.rd = rd;
    inst.rs1 = rs1;
    inst.rs2 = rs2;
    inst.imm = imm;
    return inst;
}

Instruction
load(uint8_t rd, uint8_t base, int64_t imm, Op op = Op::Ld)
{
    return make(op, rd, base, 0, imm);
}

Instruction
store(uint8_t data, uint8_t base, int64_t imm, Op op = Op::Sd)
{
    return make(op, 0, base, data, imm);
}

DynInst
access(const Instruction &inst, uint64_t addr)
{
    DynInst dyn;
    dyn.inst = inst;
    dyn.effAddr = addr;
    return dyn;
}

} // namespace

TEST(Idiom, LoadPairContiguous)
{
    EXPECT_EQ(matchIdiom(load(4, 2, 0), load(5, 2, 8)),
              Idiom::LoadPair);
    EXPECT_EQ(matchIdiom(load(4, 2, 8), load(5, 2, 0)),
              Idiom::LoadPair); // descending order also contiguous
    EXPECT_EQ(matchIdiom(load(4, 2, -16), load(5, 2, -8)),
              Idiom::LoadPair);
}

TEST(Idiom, LoadPairRejectsGapsAndOverlap)
{
    EXPECT_EQ(matchIdiom(load(4, 2, 0), load(5, 2, 16)), Idiom::None);
    EXPECT_EQ(matchIdiom(load(4, 2, 0), load(5, 2, 4)), Idiom::None);
    EXPECT_EQ(matchIdiom(load(4, 2, 0), load(5, 2, 0)), Idiom::None);
}

TEST(Idiom, LoadPairRejectsDifferentBase)
{
    EXPECT_EQ(matchIdiom(load(4, 2, 0), load(5, 3, 8)), Idiom::None);
}

TEST(Idiom, LoadPairRejectsDependentLoads)
{
    // ld x2, 0(x2) ; ld x5, 8(x2): the second depends on the first
    // (Section II-B, dependent loads).
    EXPECT_EQ(matchIdiom(load(2, 2, 0), load(5, 2, 8)), Idiom::None);
}

TEST(Idiom, LoadPairAsymmetric)
{
    // lw + ld contiguous (asymmetric sizes allowed per CSF-SBR).
    EXPECT_EQ(matchIdiom(load(4, 2, 0, Op::Lw), load(5, 2, 4)),
              Idiom::LoadPair);
}

TEST(Idiom, StorePair)
{
    EXPECT_EQ(matchIdiom(store(4, 2, 0), store(5, 2, 8)),
              Idiom::StorePair);
    EXPECT_EQ(matchIdiom(store(4, 2, 0), store(5, 2, 12)), Idiom::None);
    EXPECT_EQ(matchIdiom(store(4, 2, 0), store(5, 3, 8)), Idiom::None);
    EXPECT_EQ(matchIdiom(store(4, 2, 0, Op::Sw), store(5, 2, 4)),
              Idiom::StorePair);
}

TEST(Idiom, MixedMemKindsNeverPair)
{
    EXPECT_EQ(matchIdiom(load(4, 2, 0), store(5, 2, 8)), Idiom::None);
    EXPECT_EQ(matchIdiom(store(4, 2, 0), load(5, 2, 8)), Idiom::None);
}

TEST(Idiom, LeaSlliAdd)
{
    // slli a5, a4, 2 ; add a5, a5, a0
    EXPECT_EQ(matchIdiom(make(Op::Slli, 15, 14, 0, 2),
                         make(Op::Add, 15, 15, 10, 0)),
              Idiom::LeaSlliAdd);
    // commuted add
    EXPECT_EQ(matchIdiom(make(Op::Slli, 15, 14, 0, 3),
                         make(Op::Add, 15, 10, 15, 0)),
              Idiom::LeaSlliAdd);
    // shift amount 4 is not an indexing idiom
    EXPECT_EQ(matchIdiom(make(Op::Slli, 15, 14, 0, 4),
                         make(Op::Add, 15, 15, 10, 0)),
              Idiom::None);
    // different destination breaks the idiom
    EXPECT_EQ(matchIdiom(make(Op::Slli, 15, 14, 0, 2),
                         make(Op::Add, 16, 15, 10, 0)),
              Idiom::None);
}

TEST(Idiom, LuiAddi)
{
    EXPECT_EQ(matchIdiom(make(Op::Lui, 10, 0, 0, 0x12345),
                         make(Op::Addi, 10, 10, 0, 0x67)),
              Idiom::LuiAddi);
    EXPECT_EQ(matchIdiom(make(Op::Lui, 10, 0, 0, 0x12345),
                         make(Op::Addiw, 10, 10, 0, 0x67)),
              Idiom::LuiAddi);
    EXPECT_EQ(matchIdiom(make(Op::Lui, 10, 0, 0, 1),
                         make(Op::Addi, 11, 10, 0, 1)),
              Idiom::None);
}

TEST(Idiom, AuipcAddi)
{
    EXPECT_EQ(matchIdiom(make(Op::Auipc, 10, 0, 0, 4),
                         make(Op::Addi, 10, 10, 0, 16)),
              Idiom::AuipcAddi);
}

TEST(Idiom, ClearUpper)
{
    EXPECT_EQ(matchIdiom(make(Op::Slli, 10, 11, 0, 32),
                         make(Op::Srli, 10, 10, 0, 32)),
              Idiom::ClearUpper);
    // mismatched shift amounts are not a zero-extension
    EXPECT_EQ(matchIdiom(make(Op::Slli, 10, 11, 0, 32),
                         make(Op::Srli, 10, 10, 0, 16)),
              Idiom::None);
}

TEST(Idiom, LuiLoadAndStore)
{
    EXPECT_EQ(matchIdiom(make(Op::Lui, 15, 0, 0, 0x200),
                         load(15, 15, 16)),
              Idiom::LuiLoad);
    EXPECT_EQ(matchIdiom(make(Op::Lui, 15, 0, 0, 0x200),
                         store(10, 15, 16)),
              Idiom::LuiStore);
    // store data register must not be the address register
    EXPECT_EQ(matchIdiom(make(Op::Lui, 15, 0, 0, 0x200),
                         store(15, 15, 16)),
              Idiom::None);
}

TEST(Idiom, MemoryIdiomClassification)
{
    EXPECT_TRUE(isMemoryIdiom(Idiom::LoadPair));
    EXPECT_TRUE(isMemoryIdiom(Idiom::StorePair));
    EXPECT_FALSE(isMemoryIdiom(Idiom::LuiAddi));
    EXPECT_FALSE(isMemoryIdiom(Idiom::LuiLoad));
    EXPECT_FALSE(isMemoryIdiom(Idiom::None));
}

TEST(Idiom, NamesAreDistinct)
{
    EXPECT_STREQ(idiomName(Idiom::LoadPair), "load_pair");
    EXPECT_STREQ(idiomName(Idiom::None), "none");
}

/** Property sweep: symmetric pairs at every width and both orders. */
class PairWidth : public ::testing::TestWithParam<int>
{};

TEST_P(PairWidth, ContiguousPairsMatch)
{
    static const Op load_ops[] = {Op::Lb, Op::Lh, Op::Lw, Op::Ld};
    static const Op store_ops[] = {Op::Sb, Op::Sh, Op::Sw, Op::Sd};
    const int index = GetParam();
    const Op lop = load_ops[index];
    const Op sop = store_ops[index];
    const int64_t size = opInfo(lop).memSize;

    EXPECT_EQ(matchIdiom(load(4, 2, 0, lop), load(5, 2, size, lop)),
              Idiom::LoadPair);
    EXPECT_EQ(matchIdiom(load(4, 2, size, lop), load(5, 2, 0, lop)),
              Idiom::LoadPair);
    EXPECT_EQ(matchIdiom(store(4, 2, 0, sop), store(5, 2, size, sop)),
              Idiom::StorePair);
    // One byte short of contiguous never matches.
    if (size > 1) {
        EXPECT_EQ(
            matchIdiom(load(4, 2, 0, lop), load(5, 2, size - 1, lop)),
            Idiom::None);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PairWidth, ::testing::Range(0, 4));

TEST(NcsfRules, EachRuleRejectsItsPair)
{
    // One row per rule of Sections II-B and IV, each next to a pair
    // that differs only in the broken rule. Addresses are 8-byte
    // accesses around one 64-byte line at 0x1000.
    struct Row
    {
        const char *name;
        DynInst head;
        DynInst tail;
        std::optional<DynInst> catalyst;
        bool dbrStorePairs;
        NcsfBreak broken;
        bool hoistBlocked;
    };
    const DynInst ld_head = access(load(4, 2, 0), 0x1000);
    const DynInst ld_tail = access(load(5, 2, 16), 0x1010);
    const DynInst sd_head = access(store(4, 2, 0), 0x1000);
    const DynInst sd_tail = access(store(5, 2, 16), 0x1010);
    const DynInst sd_dbr_tail = access(store(5, 3, 16), 0x1010);
    const Row rows[] = {
        {"same-line load pair", ld_head, ld_tail, {}, false,
         NcsfBreak::None, false},
        {"mixed kinds", ld_head, sd_tail, {}, false,
         NcsfBreak::MixedKinds, false},
        {"span over 64 B", ld_head, access(load(5, 2, 60), 0x103c), {},
         false, NcsfBreak::RegionSpan, false},
        {"span of exactly 64 B", ld_head, access(load(5, 2, 56), 0x1038),
         {}, false, NcsfBreak::None, false},
        {"head writes the tail's base", access(load(2, 2, 0), 0x1000),
         ld_tail, {}, false, NcsfBreak::HeadWritesBase, false},
        {"DBR store pair", sd_head, sd_dbr_tail, {}, false,
         NcsfBreak::DbrStorePair, false},
        {"DBR store pair, counted as Figure 5 potential", sd_head,
         sd_dbr_tail, {}, true, NcsfBreak::None, false},
        {"DBR load pair", ld_head, access(load(5, 3, 16), 0x1010), {},
         false, NcsfBreak::None, false},
        {"catalyst store overlaps the hoisted load", ld_head, ld_tail,
         access(store(6, 7, 4), 0x1014), false, NcsfBreak::None, true},
        {"catalyst store to the head's bytes", ld_head, ld_tail,
         access(store(6, 7, 0), 0x1000), false, NcsfBreak::None, false},
        {"catalyst load on the tail's bytes", ld_head, ld_tail,
         access(load(6, 7, 0), 0x1010), false, NcsfBreak::None, false},
        {"catalyst store inside a store pair", sd_head, sd_tail,
         access(store(6, 7, 0), 0x1010), false, NcsfBreak::None, false},
    };
    for (const Row &row : rows) {
        const NcsfRules rules{64, row.dbrStorePairs};
        EXPECT_EQ(rules.broken(row.head, row.tail), row.broken)
            << row.name;
        EXPECT_EQ(rules.pairable(row.head, row.tail),
                  row.broken == NcsfBreak::None)
            << row.name;
        EXPECT_EQ(row.catalyst &&
                      NcsfRules::blocksHoist(*row.catalyst, row.tail),
                  row.hoistBlocked)
            << row.name;
    }
}
