/**
 * @file
 * Differential fuzzing of the functional simulator: random
 * straight-line integer programs are executed by the Hart and by an
 * independent evaluator written directly from the RV64IM
 * specification; the architectural register files must agree.
 */

#include <array>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "common/random.hh"
#include "isa/disasm.hh"
#include "sim/hart.hh"

using namespace helios;

namespace
{

/** Independent RV64IM ALU semantics (no memory, no control flow). */
uint64_t
evaluate(Op op, uint64_t a, uint64_t b, int64_t imm)
{
    const auto s = [](uint64_t v) { return int64_t(v); };
    const auto w = [](uint64_t v) {
        return uint64_t(int64_t(int32_t(v)));
    };
    switch (op) {
      case Op::Add: return a + b;
      case Op::Sub: return a - b;
      case Op::Sll: return a << (b & 63);
      case Op::Slt: return s(a) < s(b);
      case Op::Sltu: return a < b;
      case Op::Xor: return a ^ b;
      case Op::Srl: return a >> (b & 63);
      case Op::Sra: return uint64_t(s(a) >> (b & 63));
      case Op::Or: return a | b;
      case Op::And: return a & b;
      case Op::Addw: return w(a + b);
      case Op::Subw: return w(a - b);
      case Op::Sllw: return w(a << (b & 31));
      case Op::Srlw: return w(uint32_t(a) >> (b & 31));
      case Op::Sraw: return uint64_t(int64_t(int32_t(a) >> (b & 31)));
      case Op::Mul: return a * b;
      case Op::Mulh:
        return uint64_t((__int128(s(a)) * __int128(s(b))) >> 64);
      case Op::Mulhu:
        return uint64_t(((unsigned __int128)a *
                         (unsigned __int128)b) >> 64);
      case Op::Mulhsu:
        return uint64_t((__int128(s(a)) * (unsigned __int128)b) >> 64);
      case Op::Mulw: return w(a * b);
      case Op::Div:
        if (b == 0)
            return ~0ULL;
        if (s(a) == INT64_MIN && s(b) == -1)
            return a;
        return uint64_t(s(a) / s(b));
      case Op::Divu: return b ? a / b : ~0ULL;
      case Op::Rem:
        if (b == 0)
            return a;
        if (s(a) == INT64_MIN && s(b) == -1)
            return 0;
        return uint64_t(s(a) % s(b));
      case Op::Remu: return b ? a % b : a;
      case Op::Divw: {
        const int32_t da = int32_t(a), db = int32_t(b);
        if (db == 0)
            return ~0ULL;
        if (da == INT32_MIN && db == -1)
            return w(uint32_t(da));
        return uint64_t(int64_t(da / db));
      }
      case Op::Divuw: {
        const uint32_t da = uint32_t(a), db = uint32_t(b);
        return db ? w(da / db) : ~0ULL;
      }
      case Op::Remw: {
        const int32_t da = int32_t(a), db = int32_t(b);
        if (db == 0)
            return w(a);
        if (da == INT32_MIN && db == -1)
            return 0;
        return uint64_t(int64_t(da % db));
      }
      case Op::Remuw: {
        const uint32_t da = uint32_t(a), db = uint32_t(b);
        return db ? w(da % db) : w(a);
      }
      case Op::Addi: return a + uint64_t(imm);
      case Op::Slti: return s(a) < imm;
      case Op::Sltiu: return a < uint64_t(imm);
      case Op::Xori: return a ^ uint64_t(imm);
      case Op::Ori: return a | uint64_t(imm);
      case Op::Andi: return a & uint64_t(imm);
      case Op::Slli: return a << (imm & 63);
      case Op::Srli: return a >> (imm & 63);
      case Op::Srai: return uint64_t(s(a) >> (imm & 63));
      case Op::Addiw: return w(a + uint64_t(imm));
      case Op::Slliw: return w(a << (imm & 31));
      case Op::Srliw: return w(uint32_t(a) >> (imm & 31));
      case Op::Sraiw:
        return uint64_t(int64_t(int32_t(a) >> (imm & 31)));
      default:
        ADD_FAILURE() << "unexpected op";
        return 0;
    }
}

const Op aluOps[] = {
    Op::Add,  Op::Sub,   Op::Sll,   Op::Slt,   Op::Sltu, Op::Xor,
    Op::Srl,  Op::Sra,   Op::Or,    Op::And,   Op::Addw, Op::Subw,
    Op::Sllw, Op::Srlw,  Op::Sraw,  Op::Mul,   Op::Mulh, Op::Mulhu,
    Op::Mulhsu, Op::Mulw, Op::Div,  Op::Divu,  Op::Rem,  Op::Remu,
    Op::Divw, Op::Divuw, Op::Remw,  Op::Remuw, Op::Addi, Op::Slti,
    Op::Sltiu, Op::Xori, Op::Ori,   Op::Andi,  Op::Slli, Op::Srli,
    Op::Srai, Op::Addiw, Op::Slliw, Op::Srliw, Op::Sraiw,
};

class HartFuzz : public ::testing::TestWithParam<unsigned>
{};

} // namespace

TEST_P(HartFuzz, RandomAluProgramMatchesEvaluator)
{
    Rng rng(GetParam() * 2654435761u + 17);

    // Model register file (x0 fixed at zero).
    std::array<uint64_t, numArchRegs> regs{};
    std::string source;

    // Seed registers x1..x15 with random 64-bit values via li.
    for (unsigned r = 1; r <= 15; ++r) {
        regs[r] = rng.next();
        source += "li " + regName(r) + ", " +
                  std::to_string(int64_t(regs[r])) + "\n";
    }

    // 200 random ALU instructions over x1..x31.
    for (int i = 0; i < 200; ++i) {
        const Op op = aluOps[rng.below(std::size(aluOps))];
        const OpInfo &info = opInfo(op);
        Instruction inst;
        inst.op = op;
        inst.rd = uint8_t(rng.range(1, 31));
        inst.rs1 = uint8_t(rng.below(32));
        if (info.readsRs2) {
            inst.rs2 = uint8_t(rng.below(32));
        } else if (op == Op::Slli || op == Op::Srli || op == Op::Srai) {
            inst.imm = rng.range(0, 63);
        } else if (op == Op::Slliw || op == Op::Srliw ||
                   op == Op::Sraiw) {
            inst.imm = rng.range(0, 31);
        } else {
            inst.imm = rng.range(-2048, 2047);
        }
        source += disassemble(inst) + "\n";
        regs[inst.rd] =
            evaluate(op, regs[inst.rs1], regs[inst.rs2], inst.imm);
    }
    source += "li a7, 93\nli a0, 0\necall\n";

    Memory memory;
    Hart hart(memory);
    hart.reset(assemble(source));
    hart.runFast(10'000);
    ASSERT_TRUE(hart.exited());

    // a0/a7 were clobbered by the exit stub; check everything else.
    for (unsigned r = 0; r < numArchRegs; ++r) {
        if (r == RegA0 || r == RegA7)
            continue;
        EXPECT_EQ(hart.reg(r), regs[r]) << "x" << r;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HartFuzz, ::testing::Range(0u, 24u));
