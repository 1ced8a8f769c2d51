/** @file Sparse memory tests. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "asm/assembler.hh"
#include "sim/memory.hh"

using namespace helios;

TEST(Memory, UninitializedReadsZero)
{
    Memory mem;
    EXPECT_EQ(mem.read(0x1000, 8), 0u);
    EXPECT_EQ(mem.readByte(0xdeadbeef), 0u);
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(Memory, ByteReadWrite)
{
    Memory mem;
    mem.writeByte(0x42, 0xab);
    EXPECT_EQ(mem.readByte(0x42), 0xab);
    EXPECT_EQ(mem.readByte(0x43), 0);
}

TEST(Memory, LittleEndianMultiByte)
{
    Memory mem;
    mem.write(0x100, 0x0102030405060708ULL, 8);
    EXPECT_EQ(mem.readByte(0x100), 0x08);
    EXPECT_EQ(mem.readByte(0x107), 0x01);
    EXPECT_EQ(mem.read(0x100, 4), 0x05060708u);
    EXPECT_EQ(mem.read(0x104, 4), 0x01020304u);
    EXPECT_EQ(mem.read(0x100, 8), 0x0102030405060708ULL);
}

TEST(Memory, CrossPageAccess)
{
    Memory mem;
    const uint64_t addr = Memory::pageSize - 4;
    mem.write(addr, 0x1122334455667788ULL, 8);
    EXPECT_EQ(mem.read(addr, 8), 0x1122334455667788ULL);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(Memory, BlockCopyRoundTrip)
{
    Memory mem;
    std::vector<uint8_t> src(10000);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = uint8_t(i * 7);
    mem.writeBlock(Memory::pageSize - 123, src.data(), src.size());
    std::vector<uint8_t> dst(src.size());
    mem.readBlock(Memory::pageSize - 123, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
}

TEST(Memory, LoadProgramPlacesTextAndData)
{
    Program prog = assemble(R"(
        addi a0, zero, 7
        .data
        .word 0xcafebabe
    )");
    Memory mem;
    mem.loadProgram(prog);
    EXPECT_EQ(mem.read(prog.textBase, 4), prog.code[0]);
    EXPECT_EQ(mem.read(prog.dataBase, 4), 0xcafebabeu);
}

TEST(Memory, OverwriteIsLastWriteWins)
{
    Memory mem;
    mem.write(0x10, 0xffffffffffffffffULL, 8);
    mem.write(0x12, 0x0, 2);
    EXPECT_EQ(mem.read(0x10, 8), 0xffffffff0000ffffULL);
}

TEST(Memory, ChecksumMatchesNaiveReference)
{
    // checksum() walks the residency bitmap / high-page map through
    // forEachResidentPage; this recomputes the digest from first
    // principles — the test tracks which pages it wrote itself, reads
    // them back with readBlock and hashes page-by-page — so a walker
    // that skips, duplicates or reorders a page cannot agree.
    Memory mem;
    std::set<uint64_t> written;
    auto touch = [&](uint64_t addr, uint8_t value) {
        mem.writeByte(addr, value);
        written.insert(addr >> Memory::pageBits);
    };

    // Arena pages in deliberately non-ascending touch order, plus a
    // cross-page write and high pages beyond the contiguous arena
    // (allocated in the hash map, whose iteration order must not
    // leak into the digest).
    touch(0x5000, 0x11);
    touch(0x0, 0x22);
    touch(0x123456, 0x33);
    mem.write(Memory::pageSize * 9 - 2, 0xbeef, 4); // spans two pages
    written.insert(8);
    written.insert(9);
    touch(0x400000000ULL, 0x44); // high page (beyond the 128 MiB arena)
    touch(0x7f0000000ULL, 0x55);
    touch(0x400000000ULL + 7, 0x66); // same high page twice

    // Zero words take a one-multiply path: an all-zero page, a word
    // with one nonzero byte at each of its eight offsets, and a page
    // of random bytes.
    const uint64_t zero_page = 0x20000;
    for (unsigned i = 0; i < 8; ++i)
        touch(zero_page + i, 0x00);
    const uint64_t sparse_page = 0x31000;
    for (unsigned offset = 0; offset < 8; ++offset)
        touch(sparse_page + 64 * offset + offset, uint8_t(0x80 | offset));
    const uint64_t random_page = 0x42000;
    uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (uint64_t i = 0; i < Memory::pageSize; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        touch(random_page + i, uint8_t(state >> 56));
    }

    // Every tracked page is resident and vice versa along the walk,
    // in strictly ascending order.
    std::vector<uint64_t> visited;
    mem.forEachResidentPage(
        [&](uint64_t index, const uint8_t *) {
            visited.push_back(index);
            EXPECT_TRUE(mem.pageResident(index));
        });
    EXPECT_EQ(std::vector<uint64_t>(written.begin(), written.end()),
              visited);

    // Naive reference: FNV-1a over (8 LE index bytes, 4096 data
    // bytes) per resident page, ascending.
    uint64_t hash = 1469598103934665603ULL;
    constexpr uint64_t prime = 1099511628211ULL;
    for (uint64_t index : written) {
        for (unsigned shift = 0; shift < 64; shift += 8) {
            hash ^= (index >> shift) & 0xff;
            hash *= prime;
        }
        std::vector<uint8_t> page(Memory::pageSize);
        mem.readBlock(index << Memory::pageBits, page.data(),
                      page.size());
        for (uint8_t byte : page) {
            hash ^= byte;
            hash *= prime;
        }
    }
    EXPECT_EQ(mem.checksum(), hash);

    // And the digest actually depends on content: flip one byte.
    mem.writeByte(0x5001, 0x99);
    EXPECT_NE(mem.checksum(), hash);
}
