/** @file Functional simulator tests: semantics of RV64IM execution. */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "sim/hart.hh"

using namespace helios;

namespace
{

/** Assemble, run to completion and return the exit code (a0). */
uint64_t
runProgram(const std::string &body)
{
    // The exit stub continues the text section even when the body ends
    // inside .data; code emission is contiguous across section switches.
    const std::string source = body + R"(
        .text
        li a7, 93
        ecall
    )";
    Memory mem;
    Hart hart(mem);
    hart.reset(assemble(source));
    hart.runFast(1'000'000);
    EXPECT_TRUE(hart.exited()) << "program did not exit";
    return hart.exitCode();
}

} // namespace

TEST(Hart, ArithmeticBasics)
{
    EXPECT_EQ(runProgram("li a0, 2\n li a1, 3\n add a0, a0, a1"), 5u);
    EXPECT_EQ(runProgram("li a0, 2\n li a1, 3\n sub a0, a0, a1"),
              uint64_t(-1));
    EXPECT_EQ(runProgram("li a0, 6\n li a1, 7\n mul a0, a0, a1"), 42u);
}

TEST(Hart, SignedUnsignedCompares)
{
    EXPECT_EQ(runProgram("li a0, -1\n li a1, 1\n slt a0, a0, a1"), 1u);
    EXPECT_EQ(runProgram("li a0, -1\n li a1, 1\n sltu a0, a0, a1"), 0u);
    EXPECT_EQ(runProgram("li a0, 5\n sltiu a0, a0, 6"), 1u);
}

TEST(Hart, ShiftSemantics)
{
    EXPECT_EQ(runProgram("li a0, 1\n slli a0, a0, 40"), 1ULL << 40);
    EXPECT_EQ(runProgram("li a0, -8\n srai a0, a0, 2"), uint64_t(-2));
    EXPECT_EQ(runProgram("li a0, -8\n li a1, 2\n srl a0, a0, a1"),
              (~0ULL - 7) >> 2);
}

TEST(Hart, WordOperationsSignExtend)
{
    // addw wraps at 32 bits and sign-extends.
    EXPECT_EQ(runProgram(R"(
        li a0, 0x7fffffff
        li a1, 1
        addw a0, a0, a1
    )"),
              0xffffffff80000000ULL);
    EXPECT_EQ(runProgram("li a0, 0x80000000\n sext.w a0, a0"),
              0xffffffff80000000ULL);
    EXPECT_EQ(runProgram("li a0, 1\n slliw a0, a0, 31"),
              0xffffffff80000000ULL);
}

TEST(Hart, DivisionEdgeCases)
{
    // Division by zero: quotient all ones, remainder = dividend.
    EXPECT_EQ(runProgram("li a0, 7\n li a1, 0\n div a0, a0, a1"),
              ~0ULL);
    EXPECT_EQ(runProgram("li a0, 7\n li a1, 0\n rem a0, a0, a1"), 7u);
    // INT64_MIN / -1 overflow.
    EXPECT_EQ(runProgram(R"(
        li a0, -9223372036854775808
        li a1, -1
        div a0, a0, a1
    )"),
              0x8000000000000000ULL);
    EXPECT_EQ(runProgram(R"(
        li a0, -9223372036854775808
        li a1, -1
        rem a0, a0, a1
    )"),
              0u);
    // Unsigned division.
    EXPECT_EQ(runProgram("li a0, 100\n li a1, 7\n divu a0, a0, a1"),
              14u);
    EXPECT_EQ(runProgram("li a0, 100\n li a1, 7\n remu a0, a0, a1"),
              2u);
}

TEST(Hart, MulHighVariants)
{
    EXPECT_EQ(runProgram(R"(
        li a0, -1
        li a1, -1
        mulh a0, a0, a1
    )"),
              0u); // (-1 * -1) >> 64 == 0
    EXPECT_EQ(runProgram(R"(
        li a0, -1
        li a1, -1
        mulhu a0, a0, a1
    )"),
              ~1ULL); // (2^64-1)^2 >> 64
    EXPECT_EQ(runProgram(R"(
        li a0, -1
        li a1, -1
        mulhsu a0, a0, a1
    )"),
              ~0ULL);
}

TEST(Hart, LoadStoreWidths)
{
    EXPECT_EQ(runProgram(R"(
        la t0, buf
        li t1, 0x1122334455667788
        sd t1, 0(t0)
        lb a0, 7(t0)
        .data
    buf: .zero 8
    )"),
              0x11u);
    EXPECT_EQ(runProgram(R"(
        la t0, buf
        li t1, -1
        sw t1, 0(t0)
        lwu a0, 0(t0)
        .data
    buf: .zero 8
    )"),
              0xffffffffULL);
    EXPECT_EQ(runProgram(R"(
        la t0, buf
        li t1, 0x80
        sb t1, 3(t0)
        lb a0, 3(t0)
        .data
    buf: .zero 8
    )"),
              uint64_t(int64_t(-128)));
}

TEST(Hart, BranchesAndLoops)
{
    // Sum 1..10 = 55.
    EXPECT_EQ(runProgram(R"(
        li a0, 0
        li t0, 1
        li t1, 10
    loop:
        add a0, a0, t0
        addi t0, t0, 1
        ble t0, t1, loop
    )"),
              55u);
}

TEST(Hart, FunctionCallAndReturn)
{
    EXPECT_EQ(runProgram(R"(
        li a0, 5
        call double_it
        call double_it
        j end
    double_it:
        add a0, a0, a0
        ret
    end:
    )"),
              20u);
}

TEST(Hart, JalrTargetClearsLowBit)
{
    EXPECT_EQ(runProgram(R"(
        la t0, target
        ori t0, t0, 1
        jalr zero, t0, 0
        li a0, 111
    target:
        li a0, 7
    )"),
              7u);
}

TEST(Hart, ZeroRegisterIgnoresWrites)
{
    EXPECT_EQ(runProgram(R"(
        li t0, 99
        add zero, t0, t0
        mv a0, zero
    )"),
              0u);
}

TEST(Hart, EcallWriteCollectsOutput)
{
    Memory mem;
    Hart hart(mem);
    hart.reset(assemble(R"(
        la a1, msg
        li a2, 5
        li a0, 1
        li a7, 64
        ecall
        li a7, 93
        li a0, 0
        ecall
        .data
    msg: .asciz "hello"
    )"));
    hart.runFast();
    EXPECT_TRUE(hart.exited());
    EXPECT_EQ(hart.output(), "hello");
}

TEST(Hart, InvalidInstructionFaults)
{
    Memory mem;
    Hart hart(mem);
    Program prog = assemble("nop");
    prog.code[0] = 0; // all-zero word is not a valid instruction
    hart.reset(prog);
    DynInst rec;
    EXPECT_THROW(hart.step(rec), FatalError);
}

TEST(Hart, DynInstRecordsFacts)
{
    Memory mem;
    Hart hart(mem);
    hart.reset(assemble(R"(
        la t0, buf
        ld a0, 8(t0)
        beq a0, zero, skip
        nop
    skip:
        li a7, 93
        ecall
        .data
    buf: .zero 16
    )"));

    DynInst rec;
    uint64_t buf_addr = 0;
    while (hart.step(rec)) {
        if (rec.inst.op == Op::Ld) {
            buf_addr = rec.effAddr;
            EXPECT_EQ(rec.memSize(), 8);
        }
        if (rec.inst.op == Op::Beq) {
            EXPECT_TRUE(rec.taken); // buf is zero-initialized
            EXPECT_EQ(rec.nextPc, rec.pc + 8);
        }
    }
    EXPECT_EQ(buf_addr, defaultDataBase + 8);
}

TEST(Hart, SequenceNumbersAreDense)
{
    Memory mem;
    Hart hart(mem);
    hart.reset(assemble(R"(
        li t0, 5
    loop:
        addi t0, t0, -1
        bnez t0, loop
        li a7, 93
        ecall
    )"));
    DynInst rec;
    uint64_t expected = 0;
    while (hart.step(rec))
        EXPECT_EQ(rec.seq, expected++);
    EXPECT_GT(expected, 10u);
}
