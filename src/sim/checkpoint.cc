#include "sim/checkpoint.hh"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace helios
{

namespace
{

/** File magic: identifies a Helios checkpoint at a glance. */
constexpr char kMagic[8] = {'H', 'E', 'L', 'I', 'O', 'S', 'C', 'P'};

void
appendU32(std::string &out, uint32_t value)
{
    char buf[4];
    std::memcpy(buf, &value, 4);
    out.append(buf, 4);
}

void
appendU64(std::string &out, uint64_t value)
{
    char buf[8];
    std::memcpy(buf, &value, 8);
    out.append(buf, 8);
}

/** Bounds-checked reader over the serialized byte string. */
class Reader
{
  public:
    explicit Reader(const std::string &bytes) : data(bytes) {}

    void
    raw(void *dst, size_t len)
    {
        if (len > data.size() - pos)
            fatal("checkpoint: truncated (need %zu bytes at offset "
                  "%zu of %zu)",
                  len, pos, data.size());
        std::memcpy(dst, data.data() + pos, len);
        pos += len;
    }

    uint32_t
    u32()
    {
        uint32_t value = 0;
        raw(&value, 4);
        return value;
    }

    uint64_t
    u64()
    {
        uint64_t value = 0;
        raw(&value, 8);
        return value;
    }

    std::string
    blob(uint64_t len)
    {
        if (len > data.size() - pos)
            fatal("checkpoint: truncated blob (%llu bytes at offset "
                  "%zu of %zu)",
                  (unsigned long long)len, pos, data.size());
        std::string out = data.substr(pos, len);
        pos += len;
        return out;
    }

    bool done() const { return pos == data.size(); }

  private:
    const std::string &data;
    size_t pos = 0;
};

} // namespace

std::string
Checkpoint::serialize() const
{
    JsonValue header = JsonValue::object();
    header.set("version", JsonValue(uint64_t(kVersion)));
    header.set("program_hash", JsonValue(programHash));
    header.set("inst_index", JsonValue(instIndex));
    header.set("pc", JsonValue(pc));
    header.set("exited", JsonValue(exited));
    header.set("exit_code", JsonValue(exitCode));
    header.set("text_base", JsonValue(textBase));
    header.set("text_limit", JsonValue(textLimit));

    JsonValue reg_array = JsonValue::array();
    for (uint64_t reg : regs)
        reg_array.push(JsonValue(reg));
    header.set("regs", std::move(reg_array));

    JsonValue shim = JsonValue::object();
    shim.set("brk", JsonValue(sys.brk));
    shim.set("brk_base", JsonValue(sys.brkBase));
    shim.set("brk_limit", JsonValue(sys.brkLimit));
    shim.set("stdin_pos", JsonValue(sys.stdinPos));
    shim.set("clock_ticks", JsonValue(sys.clockTicks));
    header.set("sys", std::move(shim));

    header.set("pages", JsonValue(uint64_t(pages.size())));
    header.set("output_bytes", JsonValue(uint64_t(output.size())));
    header.set("stdin_bytes", JsonValue(uint64_t(sys.stdinData.size())));

    const std::string header_text = header.dump();

    std::string out;
    out.reserve(sizeof(kMagic) + 8 + header_text.size() +
                pages.size() * (8 + Memory::pageSize) + output.size() +
                sys.stdinData.size() + 16);
    out.append(kMagic, sizeof(kMagic));
    appendU32(out, kVersion);
    appendU32(out, uint32_t(header_text.size()));
    out += header_text;

    for (const PageRecord &page : pages) {
        helios_assert(page.bytes.size() == Memory::pageSize,
                      "checkpoint page record has a bad size");
        appendU64(out, page.index);
        out.append(reinterpret_cast<const char *>(page.bytes.data()),
                   page.bytes.size());
    }
    appendU64(out, output.size());
    out += output;
    appendU64(out, sys.stdinData.size());
    out += sys.stdinData.view();
    return out;
}

Checkpoint
Checkpoint::deserialize(const std::string &bytes)
{
    Reader in(bytes);

    char magic[sizeof(kMagic)] = {};
    in.raw(magic, sizeof(magic));
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        fatal("checkpoint: bad magic (not a Helios checkpoint)");
    const uint32_t version = in.u32();
    if (version != kVersion)
        fatal("checkpoint: format version %u is not the supported "
              "version %u",
              version, kVersion);

    const uint32_t header_len = in.u32();
    const JsonValue header = JsonValue::parse(in.blob(header_len));

    Checkpoint ckpt;
    ckpt.programHash = header.at("program_hash").asUint();
    ckpt.instIndex = header.at("inst_index").asUint();
    ckpt.pc = header.at("pc").asUint();
    ckpt.exited = header.at("exited").asBool();
    ckpt.exitCode = header.at("exit_code").asUint();
    ckpt.textBase = header.at("text_base").asUint();
    ckpt.textLimit = header.at("text_limit").asUint();

    const JsonValue &reg_array = header.at("regs");
    if (reg_array.size() != numArchRegs)
        fatal("checkpoint: %zu registers in header (expected %u)",
              reg_array.size(), numArchRegs);
    for (unsigned i = 0; i < numArchRegs; ++i)
        ckpt.regs[i] = reg_array.at(i).asUint();

    const JsonValue &shim = header.at("sys");
    ckpt.sys.brk = shim.at("brk").asUint();
    ckpt.sys.brkBase = shim.at("brk_base").asUint();
    ckpt.sys.brkLimit = shim.at("brk_limit").asUint();
    ckpt.sys.stdinPos = shim.at("stdin_pos").asUint();
    ckpt.sys.clockTicks = shim.at("clock_ticks").asUint();

    const uint64_t page_count = header.at("pages").asUint();
    ckpt.pages.reserve(page_count);
    uint64_t prev_index = 0;
    for (uint64_t i = 0; i < page_count; ++i) {
        PageRecord page;
        page.index = in.u64();
        if (i > 0 && page.index <= prev_index)
            fatal("checkpoint: page indices out of order");
        prev_index = page.index;
        page.bytes.resize(Memory::pageSize);
        in.raw(page.bytes.data(), Memory::pageSize);
        ckpt.pages.push_back(std::move(page));
    }

    const std::string output_blob = in.blob(in.u64());
    if (output_blob.size() != header.at("output_bytes").asUint())
        fatal("checkpoint: output blob size disagrees with header");
    ckpt.output = output_blob;

    std::string stdin_blob = in.blob(in.u64());
    if (stdin_blob.size() != header.at("stdin_bytes").asUint())
        fatal("checkpoint: stdin blob size disagrees with header");
    ckpt.sys.stdinData = SharedBytes(std::move(stdin_blob));

    if (!in.done())
        fatal("checkpoint: trailing bytes after payload");
    return ckpt;
}

void
Checkpoint::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("checkpoint: cannot open '%s' for writing", path.c_str());
    const std::string bytes = serialize();
    out.write(bytes.data(), std::streamsize(bytes.size()));
    if (!out)
        fatal("checkpoint: write to '%s' failed", path.c_str());
}

Checkpoint
Checkpoint::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("checkpoint: cannot open '%s'", path.c_str());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return deserialize(buffer.str());
}

bool
Checkpoint::operator==(const Checkpoint &other) const
{
    return programHash == other.programHash &&
           instIndex == other.instIndex &&
           std::memcmp(regs, other.regs, sizeof(regs)) == 0 &&
           pc == other.pc && exited == other.exited &&
           exitCode == other.exitCode && output == other.output &&
           textBase == other.textBase && textLimit == other.textLimit &&
           sys == other.sys && pages == other.pages;
}

} // namespace helios
