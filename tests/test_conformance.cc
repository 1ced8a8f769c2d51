/**
 * @file
 * RV64IM conformance suite over the real-binary ELF frontend.
 *
 * Every case is a directed, self-checking kernel targeting one
 * instruction (or one architectural edge of it): the expected value
 * is computed by hand from the ISA manual, never by running the
 * simulator. Each kernel is assembled in-process, packed into a
 * static ELF64 image (harness/elf_image.hh), re-loaded through the
 * real ELF loader, and executed to its exit ecall through BOTH
 * execution engines — the reference step() loop and the fast-forward
 * decoder-cache engine — which must agree on the exit code and on the
 * final architectural/memory checksums.
 *
 * Set HELIOS_CONFORMANCE_OUT=<path> to write a machine-readable JSON
 * report of every case (name, expected/actual, per-engine checksums);
 * CI uploads it as an artifact.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "harness/elf_image.hh"
#include "sim/elf_loader.hh"
#include "sim/hart.hh"
#include "sim/memory.hh"

using namespace helios;

namespace
{

struct ConformanceCase
{
    const char *name;  ///< gtest-safe identifier, e.g. "div_overflow"
    const char *text;  ///< kernel body; leaves the result in a0
    const char *data = "";   ///< optional .data section body
    uint64_t expected = 0;   ///< architected a0 at the exit ecall
};

/** gtest prints a parameter without a printer as its raw bytes, which
 *  for the pointers here change with ASLR — and ctest names each
 *  discovered case after that printout. Print the stable name. */
void
PrintTo(const ConformanceCase &c, std::ostream *os)
{
    *os << c.name;
}

/** One engine's observables at the exit ecall. */
struct EngineState
{
    bool exited = false;
    uint64_t exitCode = 0;
    uint64_t archChecksum = 0;
    uint64_t memChecksum = 0;
    uint64_t instructions = 0;
};

/** Result row for the optional JSON report. */
struct CaseResult
{
    std::string name;
    uint64_t expected = 0;
    EngineState reference;
    EngineState fast;
    bool passed = false;
};

/** Assemble the case and pack it through the real ELF frontend. */
Program
buildCase(const ConformanceCase &c)
{
    std::string source = std::string(c.text) +
                         "\n    li a7, 93\n    ecall\n";
    if (c.data && *c.data)
        source += std::string("    .data\n") + c.data + "\n";
    const Program assembled = assemble(source);
    return loadElf(buildElfImage(assembled));
}

EngineState
runEngine(const Program &prog, bool fast)
{
    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    EngineState state;
    state.instructions = fast ? hart.runFast() : hart.run();
    state.exited = hart.exited();
    state.exitCode = hart.exitCode();
    state.archChecksum = hart.archChecksum();
    state.memChecksum = mem.checksum();
    return state;
}

// The directed corpus. Expected values come straight from the RV64IM
// semantics: *W ops operate on the low 32 bits and sign-extend,
// shifts mask to 6 (5 for *W) bits, division follows the
// divide-by-zero / signed-overflow table in the M extension.
const ConformanceCase kCases[] = {
    // ---- RV64I arithmetic --------------------------------------------
    {"add_basic", R"(
        li a0, 5
        li t0, 7
        add a0, a0, t0)", "", 12},
    {"add_wraps_to_zero", R"(
        li a0, -1
        li t0, 1
        add a0, a0, t0)", "", 0},
    {"sub_negative_result", R"(
        li a0, 5
        li t0, 7
        sub a0, a0, t0)", "", 0xfffffffffffffffeULL},
    {"addi_min_immediate", R"(
        li a0, 0
        addi a0, a0, -2048)", "", 0xfffffffffffff800ULL},
    {"addw_overflow_sign_extends", R"(
        li a0, 0x7fffffff
        li t0, 1
        addw a0, a0, t0)", "", 0xffffffff80000000ULL},
    {"addiw_truncates_to_32", R"(
        li a0, 1
        slli a0, a0, 32
        addiw a0, a0, 5)", "", 5},
    {"subw_borrows_into_sign", R"(
        li a0, 0
        li t0, 1
        subw a0, a0, t0)", "", 0xffffffffffffffffULL},
    {"lui_sign_extends", R"(
        lui a0, -524288)", "", 0xffffffff80000000ULL},
    {"auipc_matches_label", R"(
    here:
        auipc a0, 0
        la t0, here
        sub a0, a0, t0)", "", 0},

    // ---- logic -------------------------------------------------------
    {"and_masks", R"(
        li a0, 0xff0f
        li t0, 0x0ff0
        and a0, a0, t0)", "", 0x0f00},
    {"or_merges", R"(
        li a0, 0xf000
        li t0, 0x000f
        or a0, a0, t0)", "", 0xf00f},
    {"xor_self_is_zero", R"(
        li a0, 0x1234
        xor a0, a0, a0)", "", 0},
    {"xori_not_idiom", R"(
        li a0, 0
        xori a0, a0, -1)", "", 0xffffffffffffffffULL},
    {"andi_sign_extended_mask", R"(
        li a0, 0x1ff
        andi a0, a0, -16)", "", 0x1f0},
    {"ori_sign_extended", R"(
        li a0, 0
        ori a0, a0, -2048)", "", 0xfffffffffffff800ULL},

    // ---- comparisons -------------------------------------------------
    {"slt_signed_negative", R"(
        li t0, -1
        li t1, 1
        slt a0, t0, t1)", "", 1},
    {"sltu_unsigned_negative", R"(
        li t0, -1
        li t1, 1
        sltu a0, t0, t1)", "", 0},
    {"slti_boundary", R"(
        li t0, -2049
        slti a0, t0, -2048)", "", 1},
    {"sltiu_max_immediate", R"(
        li t0, 0
        sltiu a0, t0, -1)", "", 1},

    // ---- shifts ------------------------------------------------------
    {"slli_to_top_bit", R"(
        li a0, 1
        slli a0, a0, 63)", "", 0x8000000000000000ULL},
    {"srli_from_top_bit", R"(
        li a0, 1
        slli a0, a0, 63
        srli a0, a0, 63)", "", 1},
    {"srai_keeps_sign", R"(
        li a0, -16
        srai a0, a0, 2)", "", 0xfffffffffffffffcULL},
    {"sll_amount_masked_mod_64", R"(
        li a0, 3
        li t0, 64
        sll a0, a0, t0)", "", 3},
    {"srl_register_amount", R"(
        li a0, 1
        slli a0, a0, 63
        li t0, 63
        srl a0, a0, t0)", "", 1},
    {"sra_register_amount", R"(
        li a0, -64
        li t0, 3
        sra a0, a0, t0)", "", 0xfffffffffffffff8ULL},
    {"sllw_sign_extends_bit31", R"(
        li a0, 1
        li t0, 31
        sllw a0, a0, t0)", "", 0xffffffff80000000ULL},
    {"srlw_ignores_upper_word", R"(
        li a0, 1
        slli a0, a0, 63
        ori a0, a0, 0x700
        li t0, 8
        srlw a0, a0, t0)", "", 7},
    {"sraw_shifts_low_word_sign", R"(
        li a0, 1
        slli a0, a0, 31
        li t0, 31
        sraw a0, a0, t0)", "", 0xffffffffffffffffULL},
    {"sllw_amount_masked_mod_32", R"(
        li a0, 5
        li t0, 32
        sllw a0, a0, t0)", "", 5},

    // ---- M extension: multiply ---------------------------------------
    {"mul_basic", R"(
        li a0, 7
        li t0, 6
        mul a0, a0, t0)", "", 42},
    {"mulh_negative_operands", R"(
        li t0, -2
        li t1, 3
        mulh a0, t0, t1)", "", 0xffffffffffffffffULL},
    {"mulhu_all_ones", R"(
        li t0, -1
        li t1, -1
        mulhu a0, t0, t1)", "", 0xfffffffffffffffeULL},
    {"mulhsu_mixed_sign", R"(
        li t0, -1
        li t1, 2
        mulhsu a0, t0, t1)", "", 0xffffffffffffffffULL},
    {"mulw_wraps_and_sign_extends", R"(
        li t0, 0x7fffffff
        li t1, 2
        mulw a0, t0, t1)", "", 0xfffffffffffffffeULL},

    // ---- M extension: divide / remainder -----------------------------
    {"div_truncates_toward_zero", R"(
        li t0, -7
        li t1, 2
        div a0, t0, t1)", "", 0xfffffffffffffffdULL},
    {"div_by_zero_returns_minus_one", R"(
        li t0, 42
        li t1, 0
        div a0, t0, t1)", "", 0xffffffffffffffffULL},
    {"div_overflow_int64min", R"(
        li t0, 1
        slli t0, t0, 63
        li t1, -1
        div a0, t0, t1)", "", 0x8000000000000000ULL},
    {"divu_by_zero_all_ones", R"(
        li t0, 42
        li t1, 0
        divu a0, t0, t1)", "", 0xffffffffffffffffULL},
    {"rem_sign_follows_dividend", R"(
        li t0, -7
        li t1, 2
        rem a0, t0, t1)", "", 0xffffffffffffffffULL},
    {"rem_by_zero_returns_dividend", R"(
        li t0, 42
        li t1, 0
        rem a0, t0, t1)", "", 42},
    {"rem_overflow_is_zero", R"(
        li t0, 1
        slli t0, t0, 63
        li t1, -1
        rem a0, t0, t1)", "", 0},
    {"remu_basic", R"(
        li t0, 43
        li t1, 5
        remu a0, t0, t1)", "", 3},
    {"divw_overflow_int32min", R"(
        li t0, 1
        slli t0, t0, 31
        li t1, -1
        divw a0, t0, t1)", "", 0xffffffff80000000ULL},
    {"divuw_by_zero_sign_extends", R"(
        li t0, 7
        li t1, 0
        divuw a0, t0, t1)", "", 0xffffffffffffffffULL},
    {"remw_by_zero_sign_extends_dividend", R"(
        li t0, 1
        slli t0, t0, 31
        li t1, 0
        remw a0, t0, t1)", "", 0xffffffff80000000ULL},
    {"remuw_ignores_upper_word", R"(
        li t0, 1
        slli t0, t0, 32
        ori t0, t0, 43
        li t1, 5
        remuw a0, t0, t1)", "", 3},

    // ---- loads / stores ----------------------------------------------
    {"sb_lb_sign_extends", R"(
        la t0, buf
        li t1, 0x80
        sb t1, 0(t0)
        lb a0, 0(t0))", "buf: .dword 0", 0xffffffffffffff80ULL},
    {"lbu_zero_extends", R"(
        la t0, buf
        li t1, 0x80
        sb t1, 0(t0)
        lbu a0, 0(t0))", "buf: .dword 0", 0x80},
    {"sh_lh_sign_extends", R"(
        la t0, buf
        li t1, 0x8001
        sh t1, 2(t0)
        lh a0, 2(t0))", "buf: .dword 0", 0xffffffffffff8001ULL},
    {"lhu_zero_extends", R"(
        la t0, buf
        li t1, 0x8001
        sh t1, 2(t0)
        lhu a0, 2(t0))", "buf: .dword 0", 0x8001},
    {"sw_lw_sign_extends", R"(
        la t0, buf
        li t1, 1
        slli t1, t1, 31
        sw t1, 4(t0)
        lw a0, 4(t0))", "buf: .dword 0, 0", 0xffffffff80000000ULL},
    {"lwu_zero_extends", R"(
        la t0, buf
        li t1, 1
        slli t1, t1, 31
        sw t1, 4(t0)
        lwu a0, 4(t0))", "buf: .dword 0, 0", 0x80000000ULL},
    {"sd_ld_roundtrip", R"(
        la t0, buf
        li t1, -2
        sd t1, 8(t0)
        ld a0, 8(t0))", "buf: .dword 0, 0", 0xfffffffffffffffeULL},
    {"byte_stores_little_endian", R"(
        la t0, buf
        li t1, 0x11
        sb t1, 0(t0)
        li t1, 0x22
        sb t1, 1(t0)
        li t1, 0x33
        sb t1, 2(t0)
        li t1, 0x44
        sb t1, 3(t0)
        lw a0, 0(t0))", "buf: .dword 0", 0x44332211},
    {"preinitialized_data_load", R"(
        la t0, vals
        ld a0, 0(t0)
        ld t1, 8(t0)
        add a0, a0, t1)",
     "vals: .dword 40, 2", 42},

    // ---- control flow ------------------------------------------------
    {"beq_taken", R"(
        li a0, 1
        li t0, 3
        li t1, 3
        beq t0, t1, over
        li a0, 99
    over:)", "", 1},
    {"bne_not_taken", R"(
        li a0, 1
        li t0, 3
        li t1, 3
        bne t0, t1, over
        li a0, 2
    over:)", "", 2},
    {"blt_signed_negative", R"(
        li a0, 0
        li t0, -1
        li t1, 1
        blt t0, t1, over
        li a0, 99
    over:
        addi a0, a0, 1)", "", 1},
    {"bge_equal_is_taken", R"(
        li a0, 1
        li t0, 5
        li t1, 5
        bge t0, t1, over
        li a0, 99
    over:)", "", 1},
    {"bltu_minus_one_is_max", R"(
        li a0, 0
        li t0, -1
        li t1, 1
        bltu t0, t1, poison
        li a0, 7
        beq zero, zero, over
    poison:
        li a0, 99
    over:)", "", 7},
    {"bgeu_wraps_unsigned", R"(
        li a0, 0
        li t0, -1
        li t1, 1
        bgeu t0, t1, over
        li a0, 99
    over:
        addi a0, a0, 3)", "", 3},
    {"jal_skips_poison", R"(
        li a0, 1
        jal ra, over
        li a0, 99
    over:
        addi a0, a0, 1)", "", 2},
    {"jal_links_return_address", R"(
        jal ra, over
    link:
        li a0, 99
        beq zero, zero, done
    over:
        la t0, link
        sub a0, ra, t0
    done:)", "", 0},
    {"jalr_clears_low_bit", R"(
        la t0, over
        addi t0, t0, 1
        li a0, 0
        jalr ra, t0, 0
        li a0, 99
    over:
        addi a0, a0, 5)", "", 5},
    {"loop_sums_one_to_ten", R"(
        li a0, 0
        li t0, 10
    loop:
        add a0, a0, t0
        addi t0, t0, -1
        bnez t0, loop)", "", 55},
};

/** Run one case through both engines; no gtest assertions. */
CaseResult
evaluateCase(const ConformanceCase &c)
{
    const Program prog = buildCase(c);
    CaseResult row;
    row.name = c.name;
    row.expected = c.expected;
    row.reference = runEngine(prog, false);
    row.fast = runEngine(prog, true);
    row.passed =
        row.reference.exited && row.fast.exited &&
        row.reference.exitCode == c.expected &&
        row.fast.exitCode == row.reference.exitCode &&
        row.fast.archChecksum == row.reference.archChecksum &&
        row.fast.memChecksum == row.reference.memChecksum &&
        row.fast.instructions == row.reference.instructions;
    return row;
}

class Conformance : public ::testing::TestWithParam<ConformanceCase>
{};

} // namespace

TEST_P(Conformance, BothEnginesMatchGolden)
{
    const ConformanceCase &c = GetParam();
    const CaseResult row = evaluateCase(c);

    // Reference engine against the hand-computed golden value.
    EXPECT_TRUE(row.reference.exited) << c.name;
    EXPECT_EQ(row.reference.exitCode, c.expected) << c.name;

    // Fast engine must be bit-identical to the reference.
    EXPECT_TRUE(row.fast.exited) << c.name;
    EXPECT_EQ(row.fast.exitCode, row.reference.exitCode) << c.name;
    EXPECT_EQ(row.fast.archChecksum, row.reference.archChecksum)
        << c.name;
    EXPECT_EQ(row.fast.memChecksum, row.reference.memChecksum)
        << c.name;
    EXPECT_EQ(row.fast.instructions, row.reference.instructions)
        << c.name;
    EXPECT_TRUE(row.passed) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Rv64im, Conformance, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<ConformanceCase> &info) {
        return std::string(info.param.name);
    });

/**
 * When HELIOS_CONFORMANCE_OUT names a file, evaluate the whole corpus
 * (independently of gtest's test ordering) and dump every case as
 * JSON for the CI artifact.
 */
TEST(ConformanceReport, WriteJsonWhenRequested)
{
    const char *path = std::getenv("HELIOS_CONFORMANCE_OUT");
    if (!path || !*path)
        GTEST_SKIP() << "HELIOS_CONFORMANCE_OUT not set";

    std::vector<CaseResult> rows;
    for (const ConformanceCase &c : kCases)
        rows.push_back(evaluateCase(c));
    ASSERT_FALSE(rows.empty());

    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot open " << path;

    size_t passed = 0;
    for (const CaseResult &row : rows)
        passed += row.passed;

    out << "{\n  \"suite\": \"rv64im-conformance\",\n"
        << "  \"cases\": " << rows.size() << ",\n"
        << "  \"passed\": " << passed << ",\n  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const CaseResult &row = rows[i];
        out << "    {\"name\": \"" << row.name << "\""
            << ", \"passed\": " << (row.passed ? "true" : "false")
            << ", \"expected\": " << row.expected
            << ", \"reference_exit\": " << row.reference.exitCode
            << ", \"fast_exit\": " << row.fast.exitCode
            << ", \"arch_checksum\": " << row.reference.archChecksum
            << ", \"mem_checksum\": " << row.reference.memChecksum
            << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    ASSERT_TRUE(out.good());

    // Every case must pass when the suite itself is green; make the
    // artifact writer fail loudly if the corpus disagrees.
    EXPECT_EQ(passed, rows.size());
}
