#include "harness/elf_image.hh"

#include <cstring>
#include <fstream>

#include "common/bits.hh"
#include "common/logging.hh"
#include "sim/elf_loader.hh"

namespace helios
{

namespace
{

constexpr uint64_t ehdrSize = 64;
constexpr uint64_t phentSize = 56;
constexpr uint64_t pageAlign = 0x1000;

/** Append a little-endian field to the image. */
template <typename T>
void
put(std::vector<uint8_t> &image, T value)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        image.push_back(uint8_t(uint64_t(value) >> (8 * i)));
}

/** One output segment: bytes to place in the file plus a bss tail. */
struct OutSegment
{
    uint64_t vaddr = 0;
    std::vector<uint8_t> bytes;
    uint64_t memSize = 0;
    uint32_t flags = 0; // PF_R=4, PF_W=2, PF_X=1
    uint64_t offset = 0; // assigned during layout
};

} // namespace

std::vector<uint8_t>
buildElfImage(const Program &prog)
{
    if (prog.code.empty())
        fatal("cannot build an ELF image from a program with no code");

    std::vector<OutSegment> segs;

    OutSegment text;
    text.vaddr = prog.textBase;
    text.bytes.reserve(prog.code.size() * 4);
    for (uint32_t word : prog.code)
        for (unsigned i = 0; i < 4; ++i)
            text.bytes.push_back(uint8_t(word >> (8 * i)));
    text.memSize = text.bytes.size();
    text.flags = 4 | 1; // R+X
    segs.push_back(std::move(text));

    if (!prog.data.empty()) {
        OutSegment data;
        data.vaddr = prog.dataBase;
        data.bytes = prog.data;
        data.memSize = data.bytes.size();
        data.flags = 4 | 2; // R+W
        segs.push_back(std::move(data));
    }
    for (const Program::Segment &extra : prog.segments) {
        OutSegment seg;
        seg.vaddr = extra.vaddr;
        seg.bytes = extra.bytes;
        seg.memSize = extra.memSize ? extra.memSize
                                    : extra.bytes.size();
        seg.flags = 4 | 2;
        segs.push_back(std::move(seg));
    }

    // Layout: header + program header table, then each segment at a
    // file offset congruent to its vaddr modulo the page size (the
    // standard loadable-segment invariant real kernels require).
    uint64_t offset = ehdrSize + segs.size() * phentSize;
    for (OutSegment &seg : segs) {
        const uint64_t misalign = seg.vaddr & (pageAlign - 1);
        offset = alignUp(offset, pageAlign) + misalign;
        seg.offset = offset;
        offset += seg.bytes.size();
    }

    // ELF header.
    std::vector<uint8_t> image = {0x7f, 'E', 'L', 'F',
                                  2,  // ELFCLASS64
                                  1,  // ELFDATA2LSB
                                  1,  // EV_CURRENT
                                  0, 0, 0, 0, 0, 0, 0, 0, 0};
    image.reserve(size_t(offset));
    put<uint16_t>(image, 2);    // e_type = ET_EXEC
    put<uint16_t>(image, 243);  // e_machine = EM_RISCV
    put<uint32_t>(image, 1);    // e_version
    put<uint64_t>(image, prog.entry);
    put<uint64_t>(image, ehdrSize); // e_phoff: right after the header
    put<uint64_t>(image, 0);    // e_shoff: no sections
    put<uint32_t>(image, 0);    // e_flags
    put<uint16_t>(image, uint16_t(ehdrSize));
    put<uint16_t>(image, uint16_t(phentSize));
    put<uint16_t>(image, uint16_t(segs.size()));
    put<uint16_t>(image, 0);    // e_shentsize
    put<uint16_t>(image, 0);    // e_shnum
    put<uint16_t>(image, 0);    // e_shstrndx

    // Program header table.
    for (const OutSegment &seg : segs) {
        put<uint32_t>(image, 1); // PT_LOAD
        put<uint32_t>(image, seg.flags);
        put<uint64_t>(image, seg.offset);
        put<uint64_t>(image, seg.vaddr);
        put<uint64_t>(image, seg.vaddr); // p_paddr mirrors p_vaddr
        put<uint64_t>(image, seg.bytes.size());
        put<uint64_t>(image, seg.memSize);
        put<uint64_t>(image, pageAlign);
    }

    // Segment contents at their assigned offsets.
    for (const OutSegment &seg : segs) {
        image.resize(size_t(seg.offset), 0);
        image.insert(image.end(), seg.bytes.begin(), seg.bytes.end());
    }
    return image;
}

void
writeElfFile(const std::string &path, const Program &prog)
{
    const std::vector<uint8_t> image = buildElfImage(prog);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out.write(reinterpret_cast<const char *>(image.data()),
              std::streamsize(image.size()));
    if (!out)
        fatal("failed writing ELF image to '%s'", path.c_str());
}

Workload
makeElfWorkload(const std::string &name,
                const std::string &description,
                std::vector<uint8_t> image,
                std::vector<std::string> argv, std::string stdin_data)
{
    Workload workload;
    workload.name = name;
    workload.suite = Suite::MiBench;
    workload.description = description;
    workload.makeProgram = [image = std::move(image),
                            argv = std::move(argv),
                            stdin_data = std::move(stdin_data)] {
        Program prog = loadElf(image);
        if (!argv.empty())
            prog.argv = argv;
        prog.stdinData = stdin_data;
        return prog;
    };
    return workload;
}

} // namespace helios
