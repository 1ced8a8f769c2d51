/**
 * @file
 * ELF loader robustness: round-trip fidelity, directed malformed
 * images, and a seeded mutation fuzzer.
 *
 * The loader's contract is "valid static RV64IM executables load
 * bit-exactly; everything else dies with a clear FatalError" — no
 * crashes, no silent partial loads. The fuzzer hammers that second
 * half with truncations, bit flips and field overwrites; it runs in
 * the ASan/UBSan CI trees, so any out-of-bounds read in the parser
 * is caught even when it happens not to change behaviour.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "asm/program.hh"
#include "common/logging.hh"
#include "harness/elf_image.hh"
#include "hart_paths.hh"
#include "sim/elf_loader.hh"
#include "sim/hart.hh"
#include "sim/memory.hh"

using namespace helios;

namespace
{

/** A small kernel with text, initialized data and a store. */
constexpr const char *kKernelSource = R"(
        la t0, vals
        ld a0, 0(t0)
        ld t1, 8(t0)
        add a0, a0, t1
        sd a0, 16(t0)
        li a7, 93
        ecall
        .data
    vals:
        .dword 40, 2, 0
)";

std::vector<uint8_t>
kernelImage()
{
    return buildElfImage(assemble(kKernelSource));
}

/** Overwrite a little-endian field inside the image. */
void
poke(std::vector<uint8_t> &image, size_t offset, uint64_t value,
     unsigned size)
{
    ASSERT_LE(offset + size, image.size());
    for (unsigned i = 0; i < size; ++i)
        image[offset + i] = uint8_t(value >> (8 * i));
}

/** loadElf must reject the image with a message naming the defect. */
void
expectRejected(const std::vector<uint8_t> &image,
               const std::string &needle)
{
    try {
        loadElf(image);
        FAIL() << "image unexpectedly loaded (wanted error containing "
               << "'" << needle << "')";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find(needle),
                  std::string::npos)
            << "error message '" << error.what()
            << "' does not mention '" << needle << "'";
    }
}

/** Deterministic 64-bit LCG for the fuzzer (no host randomness). */
uint64_t
lcg(uint64_t &state)
{
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 16;
}

} // namespace

// ---------------------------------------------------------------------
// Round-trip fidelity

TEST(ElfLoader, RoundTripPreservesProgramStructure)
{
    const Program direct = assemble(kKernelSource);
    const Program loaded = loadElf(buildElfImage(direct));

    EXPECT_EQ(loaded.textBase, direct.textBase);
    EXPECT_EQ(loaded.entry, direct.entry);
    ASSERT_EQ(loaded.code.size(), direct.code.size());
    EXPECT_EQ(loaded.code, direct.code);

    // The ELF path flips the program into Linux-ABI mode and stamps
    // the image fingerprint.
    EXPECT_TRUE(loaded.linuxAbi);
    EXPECT_FALSE(direct.linuxAbi);
    ASSERT_EQ(loaded.argv.size(), 1u);
    EXPECT_NE(loaded.sourceHash, 0u);
    EXPECT_GE(loaded.brkBase, loaded.imageEnd());
}

TEST(ElfLoader, RoundTripExecutesBitIdentically)
{
    const Program direct = assemble(kKernelSource);
    Program loaded = loadElf(buildElfImage(direct));

    // Force the loaded program back onto the bare-metal start
    // convention so the architectural end state must be bit-exact
    // against the directly assembled original.
    loaded.linuxAbi = false;
    loaded.argv.clear();
    loaded.stdinData.clear();

    Memory mem_a, mem_b;
    Hart a(mem_a), b(mem_b);
    a.reset(direct);
    b.reset(loaded);
    const uint64_t insts_a = a.runFast();
    const uint64_t insts_b = b.runFast();

    EXPECT_EQ(insts_a, insts_b);
    EXPECT_TRUE(a.exited());
    EXPECT_TRUE(b.exited());
    EXPECT_EQ(a.exitCode(), 42u);
    EXPECT_EQ(b.exitCode(), 42u);
    EXPECT_EQ(a.archChecksum(), b.archChecksum());
    EXPECT_EQ(mem_a.checksum(), mem_b.checksum());
}

// ---------------------------------------------------------------------
// Directed malformed images

TEST(ElfLoader, RejectsTinyImage)
{
    std::vector<uint8_t> image = kernelImage();
    image.resize(10);
    expectRejected(image, "too small");
}

TEST(ElfLoader, RejectsBadMagic)
{
    std::vector<uint8_t> image = kernelImage();
    image[0] = 0x7e;
    expectRejected(image, "bad magic");
}

TEST(ElfLoader, Rejects32BitClass)
{
    std::vector<uint8_t> image = kernelImage();
    image[4] = 1; // ELFCLASS32
    expectRejected(image, "not a 64-bit");
}

TEST(ElfLoader, RejectsBigEndian)
{
    std::vector<uint8_t> image = kernelImage();
    image[5] = 2; // ELFDATA2MSB
    expectRejected(image, "not little-endian");
}

TEST(ElfLoader, RejectsForeignMachine)
{
    std::vector<uint8_t> image = kernelImage();
    poke(image, 18, 62, 2); // EM_X86_64
    expectRejected(image, "not RISC-V");
}

TEST(ElfLoader, RejectsPieWithLinkHint)
{
    std::vector<uint8_t> image = kernelImage();
    poke(image, 16, 3, 2); // ET_DYN
    expectRejected(image, "-static");
}

TEST(ElfLoader, RejectsRelocatableObject)
{
    std::vector<uint8_t> image = kernelImage();
    poke(image, 16, 1, 2); // ET_REL
    expectRejected(image, "relocatable");
}

TEST(ElfLoader, RejectsWrongPhentsize)
{
    std::vector<uint8_t> image = kernelImage();
    poke(image, 54, 60, 2);
    expectRejected(image, "e_phentsize");
}

TEST(ElfLoader, RejectsZeroProgramHeaders)
{
    std::vector<uint8_t> image = kernelImage();
    poke(image, 56, 0, 2);
    expectRejected(image, "no program headers");
}

TEST(ElfLoader, RejectsAbsurdProgramHeaderCount)
{
    std::vector<uint8_t> image = kernelImage();
    poke(image, 56, 65, 2);
    expectRejected(image, "limit");
}

TEST(ElfLoader, RejectsTruncatedHeaderTable)
{
    std::vector<uint8_t> image = kernelImage();
    image.resize(100); // mid-phdr-table
    expectRejected(image, "runs past the image");
}

TEST(ElfLoader, RejectsMisalignedEntry)
{
    std::vector<uint8_t> image = kernelImage();
    const Program direct = assemble(kKernelSource);
    poke(image, 24, direct.entry + 2, 8);
    expectRejected(image, "not 4-byte aligned");
}

TEST(ElfLoader, RejectsEntryOutsideText)
{
    std::vector<uint8_t> image = kernelImage();
    poke(image, 24, 0x10, 8);
    expectRejected(image, "outside the text segment");
}

TEST(ElfLoader, RejectsFileszBeyondMemsz)
{
    std::vector<uint8_t> image = kernelImage();
    // First phdr starts at 64; p_memsz at +40.
    poke(image, 64 + 40, 1, 8);
    expectRejected(image, "p_filesz");
}

TEST(ElfLoader, RejectsSegmentPastGuestLimit)
{
    std::vector<uint8_t> image = kernelImage();
    // Move the data segment (second phdr) beyond the 112 MiB image
    // window that precedes the stack/heap reservation.
    poke(image, 64 + 56 + 16, guestImageLimit + 0x1000, 8);
    expectRejected(image, "guest image limit");
}

TEST(ElfLoader, RejectsOverlappingSegments)
{
    std::vector<uint8_t> image = kernelImage();
    const Program direct = assemble(kKernelSource);
    // Park the data segment on top of the text segment.
    poke(image, 64 + 56 + 16, direct.textBase + 4, 8);
    expectRejected(image, "overlap");
}

TEST(ElfLoader, RejectsImageWithoutExecutableSegment)
{
    std::vector<uint8_t> image = kernelImage();
    poke(image, 64 + 4, 4 | 2, 4); // text flags -> RW
    expectRejected(image, "no executable");
}

TEST(ElfLoader, RejectsMultipleExecutableSegments)
{
    std::vector<uint8_t> image = kernelImage();
    poke(image, 64 + 56 + 4, 4 | 1, 4); // data flags -> RX
    expectRejected(image, "multiple executable");
}

TEST(ElfLoader, RejectsMissingFileWithClearMessage)
{
    try {
        loadElfFile("/nonexistent/helios-test.elf");
        FAIL() << "missing file unexpectedly loaded";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("cannot open"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Seeded mutation fuzzing

TEST(ElfLoader, FuzzedImagesNeverCrashTheParser)
{
    const std::vector<uint8_t> base = kernelImage();
    uint64_t rng = 0x5eed5eed5eed5eedULL;

    size_t parsed = 0, rejected = 0, executed = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<uint8_t> image = base;

        // 1-3 mutations: truncate, flip a byte, or overwrite a
        // 64-bit field with an adversarial value.
        const unsigned mutations = 1 + lcg(rng) % 3;
        for (unsigned m = 0; m < mutations; ++m) {
            switch (lcg(rng) % 3) {
            case 0:
                image.resize(lcg(rng) % (base.size() + 1));
                break;
            case 1:
                if (!image.empty())
                    image[lcg(rng) % image.size()] ^=
                        uint8_t(1u << (lcg(rng) % 8));
                break;
            case 2:
                if (image.size() >= 8) {
                    static const uint64_t evil[] = {
                        0,          UINT64_MAX,
                        0x8000000000000000ULL,
                        0x7fffffffffffffffULL,
                        guestImageLimit,
                        guestImageLimit + 1,
                        0x10000,    0xfff};
                    const size_t off =
                        lcg(rng) % (image.size() - 7);
                    uint64_t value =
                        evil[lcg(rng) % (sizeof(evil) /
                                         sizeof(evil[0]))];
                    for (unsigned i = 0; i < 8; ++i)
                        image[off + i] = uint8_t(value >> (8 * i));
                }
                break;
            }
        }

        try {
            const Program prog = loadElf(image);
            ++parsed;

            // A surviving image must still be runnable without any
            // crash. Cap how much memory it may claim and how many
            // instructions it may execute; execution ending in an
            // exit, a budget stop or a FatalError are all fine.
            uint64_t mem_claim = prog.code.size() * 4;
            for (const Program::Segment &seg : prog.segments)
                mem_claim += seg.memSize ? seg.memSize
                                         : seg.bytes.size();
            if (mem_claim <= (4u << 20)) {
                try {
                    Memory mem;
                    Hart hart(mem);
                    hart.reset(prog);
                    hart.runFast(1000);
                    ++executed;
                } catch (const FatalError &) {
                    // e.g. an unsupported ecall from scrambled text
                }
            }
        } catch (const FatalError &) {
            ++rejected;
        }
    }

    // The corpus must actually exercise both outcomes.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(parsed, 0u);
    EXPECT_EQ(parsed + rejected, 2000u);
    (void)executed;
}

// ---------------------------------------------------------------------
// Syscall shim edges reachable only through loaded binaries

TEST(ElfLoader, ReadSyscallPatchingTextInvalidatesBothEngines)
{
    // The guest read(2)s 4 bytes from stdin directly over its own
    // poison instruction; the replacement word is
    // `addi a0, zero, 42` (0x02a00513). runFast() must observe the
    // patch through the decoder-cache invalidation the ecall shim
    // triggers, like the oracle, which decodes from memory.
    const Program assembled = assemble(R"(
        li a7, 63
        li a0, 0
        la a1, patch
        li a2, 4
        ecall
    patch:
        li a0, 99
        li a7, 93
        ecall
    )");
    Program prog = loadElf(buildElfImage(assembled));
    prog.stdinData = std::string("\x13\x05\xa0\x02", 4);

    Memory mem_ref, mem_fast;
    Hart ref(mem_ref), fast(mem_fast);
    ref.reset(prog);
    fast.reset(prog);
    runAlong(HartPath::Oracle, ref);
    fast.runFast();

    EXPECT_TRUE(ref.exited());
    EXPECT_EQ(ref.exitCode(), 42u);
    EXPECT_TRUE(fast.exited());
    EXPECT_EQ(fast.exitCode(), 42u);
    EXPECT_EQ(ref.archChecksum(), fast.archChecksum());
    EXPECT_EQ(mem_ref.checksum(), mem_fast.checksum());
}

TEST(ElfLoader, BrkBeyondGuestLimitDiesWithDiagnostic)
{
    const Program assembled = assemble(R"(
        li a7, 214
        li a0, 0x7100000
        ecall
        li a7, 93
        ecall
    )");
    Program prog = loadElf(buildElfImage(assembled));

    Memory mem;
    Hart hart(mem);
    hart.reset(prog);
    try {
        hart.runFast();
        FAIL() << "brk beyond the guest heap limit did not fail";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("guest heap limit"),
                  std::string::npos)
            << error.what();
    }
}
