#include "sim/memory.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace helios
{

Memory::Memory()
    : arena(static_cast<uint8_t *>(std::calloc(arenaBytes, 1)))
{
    helios_assert(arena != nullptr, "memory arena allocation failed");
}

uint64_t
Memory::read(uint64_t addr, unsigned size) const
{
    helios_assert(size == 1 || size == 2 || size == 4 || size == 8,
                  "bad access size");
    uint64_t value = 0;
    if (addr <= arenaBytes - size) {
        for (unsigned i = 0; i < size; ++i)
            value |= uint64_t(arena[addr + i]) << (8 * i);
        return value;
    }
    // High pages and accesses straddling the arena edge: byte loop.
    for (unsigned i = 0; i < size; ++i)
        value |= uint64_t(readByte(addr + i)) << (8 * i);
    return value;
}

void
Memory::write(uint64_t addr, uint64_t value, unsigned size)
{
    helios_assert(size == 1 || size == 2 || size == 4 || size == 8,
                  "bad access size");
    if (addr <= arenaBytes - size) {
        for (unsigned i = 0; i < size; ++i)
            arena[addr + i] = uint8_t(value >> (8 * i));
        const uint64_t first = addr >> pageBits;
        const uint64_t last = (addr + size - 1) >> pageBits;
        markResident(first);
        if (last != first)
            markResident(last);
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        writeByte(addr + i, uint8_t(value >> (8 * i)));
}

void
Memory::writeBlock(uint64_t addr, const void *src, size_t len)
{
    const auto *bytes = static_cast<const uint8_t *>(src);
    size_t done = 0;
    if (addr < arenaBytes && len > 0) {
        const size_t chunk =
            std::min<uint64_t>(len, arenaBytes - addr);
        std::memcpy(arena.get() + addr, bytes, chunk);
        const uint64_t last = (addr + chunk - 1) >> pageBits;
        for (uint64_t p = addr >> pageBits; p <= last; ++p)
            markResident(p);
        done = chunk;
    }
    while (done < len) {
        const uint64_t offset = (addr + done) & (pageSize - 1);
        const size_t chunk =
            std::min<size_t>(len - done, pageSize - offset);
        std::memcpy(touchHighPage(addr + done).data() + offset,
                    bytes + done, chunk);
        done += chunk;
    }
}

void
Memory::readBlock(uint64_t addr, void *dst, size_t len) const
{
    auto *bytes = static_cast<uint8_t *>(dst);
    size_t done = 0;
    if (addr < arenaBytes && len > 0) {
        const size_t chunk =
            std::min<uint64_t>(len, arenaBytes - addr);
        std::memcpy(bytes, arena.get() + addr, chunk);
        done = chunk;
    }
    while (done < len) {
        const uint64_t offset = (addr + done) & (pageSize - 1);
        const size_t chunk =
            std::min<size_t>(len - done, pageSize - offset);
        const Page *page = findHighPage(addr + done);
        if (page)
            std::memcpy(bytes + done, page->data() + offset, chunk);
        else
            std::memset(bytes + done, 0, chunk);
        done += chunk;
    }
}

void
Memory::forEachResidentPage(
    const std::function<void(uint64_t page_index,
                             const uint8_t *data)> &visit) const
{
    // Arena pages first (ascending by construction): their indices
    // are all below any high page's, so the combined order is
    // globally ascending.
    for (size_t w = 0; w < resident.size(); ++w) {
        uint64_t bits = resident[w];
        while (bits) {
            const uint64_t index =
                w * 64 + uint64_t(std::countr_zero(bits));
            visit(index, arena.get() + (index << pageBits));
            bits &= bits - 1;
        }
    }

    // Sort high page indices so the walk does not depend on
    // unordered_map iteration order.
    std::vector<uint64_t> indices;
    indices.reserve(pages.size());
    for (const auto &[index, page] : pages)
        indices.push_back(index);
    std::sort(indices.begin(), indices.end());
    for (uint64_t index : indices)
        visit(index, pages.at(index)->data());
}

uint64_t
Memory::checksum() const
{
    uint64_t hash = 1469598103934665603ULL; // FNV offset basis
    constexpr uint64_t prime = 1099511628211ULL;
    // FNV-1a over eight zero bytes is eight multiplies by the prime,
    // so a zero word takes one multiply by its eighth power.
    constexpr uint64_t prime8 =
        prime * prime * prime * prime * prime * prime * prime * prime;
    static_assert(pageSize % 8 == 0);
    forEachResidentPage([&](uint64_t index, const uint8_t *data) {
        for (unsigned shift = 0; shift < 64; shift += 8) {
            hash ^= (index >> shift) & 0xff;
            hash *= prime;
        }
        for (size_t i = 0; i < pageSize; i += 8) {
            uint64_t word = 0;
            std::memcpy(&word, data + i, sizeof(word));
            if (word == 0) {
                hash *= prime8;
                continue;
            }
            for (size_t b = i; b < i + 8; ++b) {
                hash ^= data[b];
                hash *= prime;
            }
        }
    });
    return hash;
}

void
Memory::loadProgram(const Program &prog)
{
    for (size_t i = 0; i < prog.code.size(); ++i)
        write(prog.textBase + i * 4, prog.code[i], 4);
    if (!prog.data.empty())
        writeBlock(prog.dataBase, prog.data.data(), prog.data.size());
    for (const Program::Segment &seg : prog.segments) {
        if (!seg.bytes.empty())
            writeBlock(seg.vaddr, seg.bytes.data(), seg.bytes.size());
        // The zero-initialized tail (bss) is written explicitly so a
        // reused Memory holds no stale bytes and the pages count as
        // resident identically across engines and configurations.
        uint64_t addr = seg.vaddr + seg.bytes.size();
        uint64_t left = seg.memSize > seg.bytes.size()
                            ? seg.memSize - seg.bytes.size()
                            : 0;
        static const uint8_t zeros[4096] = {};
        while (left > 0) {
            const size_t chunk =
                size_t(std::min<uint64_t>(left, sizeof(zeros)));
            writeBlock(addr, zeros, chunk);
            addr += chunk;
            left -= chunk;
        }
    }
}

} // namespace helios
