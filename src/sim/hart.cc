#include "sim/hart.hh"

#include <algorithm>
#include <iterator>

#include "common/bits.hh"
#include "common/logging.hh"
#include "isa/decoder.hh"
#include "isa/disasm.hh"
#include "sim/checkpoint.hh"

namespace helios
{

namespace
{

int64_t s64(uint64_t v) { return static_cast<int64_t>(v); }
int32_t s32(uint64_t v) { return static_cast<int32_t>(v); }

uint64_t
sext32(uint64_t v)
{
    return static_cast<uint64_t>(static_cast<int64_t>(s32(v)));
}

uint64_t
mulhu64(uint64_t a, uint64_t b)
{
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(a) * b) >> 64);
}

uint64_t
mulh64(int64_t a, int64_t b)
{
    return static_cast<uint64_t>(
        (static_cast<__int128>(a) * b) >> 64);
}

uint64_t
mulhsu64(int64_t a, uint64_t b)
{
    return static_cast<uint64_t>(
        (static_cast<__int128>(a) *
         static_cast<unsigned __int128>(b)) >> 64);
}

} // namespace

Hart::Hart(Memory &memory) : mem(memory) {}

void
Hart::reset(const Program &prog)
{
    for (uint64_t &reg : regs)
        reg = 0;
    regs[RegSp] = defaultStackTop;
    thePc = prog.entry;
    seq = 0;
    hasExited = false;
    theExitCode = 0;
    theOutput.clear();
    mem.loadProgram(prog);

    // The heap floor: where the ELF loader placed it, or one page
    // above the highest loaded byte for assembled kernels. The shim
    // refuses to grow brk past guestImageLimit (the stack reserve).
    const uint64_t brk_base = prog.brkBase
                                  ? prog.brkBase
                                  : alignUp(prog.imageEnd(),
                                            Memory::pageSize);
    sys.reset(brk_base, guestImageLimit);
    sys.setStdin(prog.stdinData);
    if (prog.linuxAbi)
        setupStartStack(prog);

    fastCache.clear();
    textBase = prog.textBase;
    textLimit = prog.textBase + 4 * prog.code.size();
}

Checkpoint
Hart::makeCheckpoint(uint64_t program_hash) const
{
    Checkpoint ckpt;
    ckpt.programHash = program_hash;
    ckpt.instIndex = seq;
    std::copy(std::begin(regs), std::end(regs),
              std::begin(ckpt.regs));
    ckpt.pc = thePc;
    ckpt.exited = hasExited;
    ckpt.exitCode = theExitCode;
    ckpt.output = theOutput;
    ckpt.textBase = textBase;
    ckpt.textLimit = textLimit;
    ckpt.sys = sys.state();
    mem.forEachResidentPage([&](uint64_t index, const uint8_t *data) {
        Checkpoint::PageRecord page;
        page.index = index;
        page.bytes.assign(data, data + Memory::pageSize);
        ckpt.pages.push_back(std::move(page));
    });
    return ckpt;
}

void
Hart::restoreCheckpoint(const Checkpoint &ckpt)
{
    // Restoring on top of live pages would leave stale residents the
    // checkpoint never knew about, silently skewing checksums.
    if (mem.numPages() != 0)
        fatal("checkpoint restore needs a fresh Memory (%zu pages "
              "already resident)",
              mem.numPages());

    std::copy(std::begin(ckpt.regs), std::end(ckpt.regs),
              std::begin(regs));
    thePc = ckpt.pc;
    seq = ckpt.instIndex;
    hasExited = ckpt.exited;
    theExitCode = ckpt.exitCode;
    theOutput = ckpt.output;
    sys.restoreState(ckpt.sys);

    // writeBlock marks residency exactly as the original run's stores
    // did, so numPages()/checksum() match the checkpointed state.
    for (const Checkpoint::PageRecord &page : ckpt.pages)
        mem.writeBlock(page.index << Memory::pageBits,
                       page.bytes.data(), page.bytes.size());

    // The decoder cache is rebuilt from the restored image on first
    // use, exactly as after reset(): a run that patched its own text
    // before the cut decodes the *patched* words.
    textBase = ckpt.textBase;
    textLimit = ckpt.textLimit;
    fastCache.clear();
}

void
Hart::setupStartStack(const Program &prog)
{
    // The Linux process start contract (System V gABI as the RISC-V
    // kernel implements it): sp points at argc; above it the argv
    // pointer array (NULL-terminated), the (empty) envp array's NULL,
    // and the auxiliary vector; the strings and the AT_RANDOM bytes
    // live higher still, below the stack top. Everything written
    // here is deterministic, so engine/config differentials see
    // identical memory.
    uint64_t sp = regs[RegSp];

    std::vector<uint64_t> arg_ptrs;
    for (const std::string &arg : prog.argv) {
        sp -= arg.size() + 1;
        mem.writeBlock(sp, arg.c_str(), arg.size() + 1);
        arg_ptrs.push_back(sp);
    }

    // 16 deterministic bytes for AT_RANDOM (musl seeds its stack
    // protector from these).
    static const uint8_t at_random[16] = {0x68, 0x65, 0x6c, 0x69,
                                          0x6f, 0x73, 0x2d, 0x61,
                                          0x74, 0x2d, 0x72, 0x6e,
                                          0x64, 0x30, 0x31, 0x36};
    sp -= sizeof(at_random);
    const uint64_t random_ptr = sp;
    mem.writeBlock(sp, at_random, sizeof(at_random));

    // auxv: AT_PAGESZ, AT_RANDOM, AT_NULL.
    const uint64_t auxv[] = {6, Memory::pageSize, 25, random_ptr, 0, 0};
    const size_t words = 1 + arg_ptrs.size() + 1 // argc, argv, NULL
                         + 1                     // envp: NULL
                         + std::size(auxv);
    sp = (sp - 8 * words) & ~uint64_t(15);

    uint64_t slot = sp;
    const auto push = [&](uint64_t value) {
        mem.write(slot, value, 8);
        slot += 8;
    };
    push(arg_ptrs.size());
    for (uint64_t ptr : arg_ptrs)
        push(ptr);
    push(0);
    push(0);
    for (uint64_t value : auxv)
        push(value);

    regs[RegSp] = sp;
    // Mirror argc/argv into a0/a1: Linux leaves registers undefined
    // and crt0 reads the stack, but newlib-style bare entry points
    // take them as arguments; serving both costs nothing.
    regs[RegA0] = arg_ptrs.size();
    regs[RegA1] = sp + 8;
}

void
Hart::invalidateText(uint64_t addr, uint64_t size)
{
    if (addr >= textLimit || addr + size <= textBase)
        return;
    const uint64_t lo = std::max(addr, textBase);
    const uint64_t hi = std::min(addr + size - 1, textLimit - 1);
    if (fastCache.built())
        fastCache.invalidate(mem, (lo - textBase) >> 2,
                             (hi - textBase) >> 2);
}

uint64_t
Hart::archChecksum() const
{
    uint64_t hash = 1469598103934665603ULL; // FNV offset basis
    constexpr uint64_t prime = 1099511628211ULL;
    auto mix = [&hash](uint64_t value) {
        for (unsigned shift = 0; shift < 64; shift += 8) {
            hash ^= (value >> shift) & 0xff;
            hash *= prime;
        }
    };
    for (uint64_t reg : regs)
        mix(reg);
    mix(thePc);
    mix(hasExited ? theExitCode + 1 : 0);
    for (char c : theOutput) {
        hash ^= uint8_t(c);
        hash *= prime;
    }
    return hash;
}

void
Hart::setReg(unsigned index, uint64_t value)
{
    helios_assert(index < numArchRegs, "register index out of range");
    if (index != RegZero)
        regs[index] = value;
}

bool
Hart::referenceStep(DynInst &out)
{
    if (hasExited)
        return false;

    // Decoded from memory on every call, never from the cache.
    const Instruction inst =
        decode(static_cast<uint32_t>(mem.read(thePc, 4)));
    if (inst.op == Op::Invalid)
        fatal("invalid instruction 0x%08x at pc 0x%llx", inst.raw,
              static_cast<unsigned long long>(thePc));

    out = DynInst{};
    out.seq = seq++;
    out.pc = thePc;
    out.inst = inst;
    execute(out.inst, out);
    out.nextPc = thePc;
    return true;
}

void
Hart::execute(const Instruction &inst, DynInst &rec)
{
    const uint64_t a = regs[inst.rs1];
    const uint64_t b = regs[inst.rs2];
    const int64_t imm = inst.imm;
    uint64_t next_pc = thePc + 4;
    uint64_t result = 0;
    bool writes = inst.writesReg();

    switch (inst.op) {
      case Op::Lui:
        result = static_cast<uint64_t>(imm << 12);
        break;
      case Op::Auipc:
        result = thePc + static_cast<uint64_t>(imm << 12);
        break;
      case Op::Jal:
        result = thePc + 4;
        next_pc = thePc + static_cast<uint64_t>(imm);
        rec.taken = true;
        break;
      case Op::Jalr:
        result = thePc + 4;
        next_pc = (a + static_cast<uint64_t>(imm)) & ~1ULL;
        rec.taken = true;
        break;

      case Op::Beq: rec.taken = a == b; break;
      case Op::Bne: rec.taken = a != b; break;
      case Op::Blt: rec.taken = s64(a) < s64(b); break;
      case Op::Bge: rec.taken = s64(a) >= s64(b); break;
      case Op::Bltu: rec.taken = a < b; break;
      case Op::Bgeu: rec.taken = a >= b; break;

      case Op::Lb: case Op::Lh: case Op::Lw: case Op::Ld:
      case Op::Lbu: case Op::Lhu: case Op::Lwu: {
        const uint64_t addr = a + static_cast<uint64_t>(imm);
        rec.effAddr = addr;
        const uint64_t raw = mem.read(addr, inst.memSize());
        if (inst.info().memSigned)
            result = static_cast<uint64_t>(
                sextBits(raw, 8 * inst.memSize()));
        else
            result = raw;
        break;
      }

      case Op::Sb: case Op::Sh: case Op::Sw: case Op::Sd: {
        const uint64_t addr = a + static_cast<uint64_t>(imm);
        rec.effAddr = addr;
        mem.write(addr, b, inst.memSize());
        invalidateText(addr, inst.memSize());
        break;
      }

      case Op::Addi: result = a + static_cast<uint64_t>(imm); break;
      case Op::Slti: result = s64(a) < imm ? 1 : 0; break;
      case Op::Sltiu:
        result = a < static_cast<uint64_t>(imm) ? 1 : 0;
        break;
      case Op::Xori: result = a ^ static_cast<uint64_t>(imm); break;
      case Op::Ori: result = a | static_cast<uint64_t>(imm); break;
      case Op::Andi: result = a & static_cast<uint64_t>(imm); break;
      case Op::Slli: result = a << (imm & 63); break;
      case Op::Srli: result = a >> (imm & 63); break;
      case Op::Srai:
        result = static_cast<uint64_t>(s64(a) >> (imm & 63));
        break;

      case Op::Add: result = a + b; break;
      case Op::Sub: result = a - b; break;
      case Op::Sll: result = a << (b & 63); break;
      case Op::Slt: result = s64(a) < s64(b) ? 1 : 0; break;
      case Op::Sltu: result = a < b ? 1 : 0; break;
      case Op::Xor: result = a ^ b; break;
      case Op::Srl: result = a >> (b & 63); break;
      case Op::Sra:
        result = static_cast<uint64_t>(s64(a) >> (b & 63));
        break;
      case Op::Or: result = a | b; break;
      case Op::And: result = a & b; break;

      case Op::Addiw:
        result = sext32(a + static_cast<uint64_t>(imm));
        break;
      case Op::Slliw: result = sext32(a << (imm & 31)); break;
      case Op::Srliw:
        result = sext32(static_cast<uint32_t>(a) >> (imm & 31));
        break;
      case Op::Sraiw:
        result = static_cast<uint64_t>(
            static_cast<int64_t>(s32(a) >> (imm & 31)));
        break;
      case Op::Addw: result = sext32(a + b); break;
      case Op::Subw: result = sext32(a - b); break;
      case Op::Sllw: result = sext32(a << (b & 31)); break;
      case Op::Srlw:
        result = sext32(static_cast<uint32_t>(a) >> (b & 31));
        break;
      case Op::Sraw:
        result = static_cast<uint64_t>(
            static_cast<int64_t>(s32(a) >> (b & 31)));
        break;

      case Op::Mul: result = a * b; break;
      case Op::Mulh: result = mulh64(s64(a), s64(b)); break;
      case Op::Mulhsu: result = mulhsu64(s64(a), b); break;
      case Op::Mulhu: result = mulhu64(a, b); break;
      case Op::Div:
        if (b == 0)
            result = ~0ULL;
        else if (s64(a) == INT64_MIN && s64(b) == -1)
            result = a;
        else
            result = static_cast<uint64_t>(s64(a) / s64(b));
        break;
      case Op::Divu: result = b == 0 ? ~0ULL : a / b; break;
      case Op::Rem:
        if (b == 0)
            result = a;
        else if (s64(a) == INT64_MIN && s64(b) == -1)
            result = 0;
        else
            result = static_cast<uint64_t>(s64(a) % s64(b));
        break;
      case Op::Remu: result = b == 0 ? a : a % b; break;

      case Op::Mulw: result = sext32(a * b); break;
      case Op::Divw: {
        const int32_t da = s32(a), db = s32(b);
        if (db == 0)
            result = ~0ULL;
        else if (da == INT32_MIN && db == -1)
            result = sext32(static_cast<uint64_t>(
                static_cast<uint32_t>(da)));
        else
            result = static_cast<uint64_t>(
                static_cast<int64_t>(da / db));
        break;
      }
      case Op::Divuw: {
        const uint32_t da = static_cast<uint32_t>(a);
        const uint32_t db = static_cast<uint32_t>(b);
        result = db == 0 ? ~0ULL : sext32(da / db);
        break;
      }
      case Op::Remw: {
        const int32_t da = s32(a), db = s32(b);
        if (db == 0)
            result = sext32(a);
        else if (da == INT32_MIN && db == -1)
            result = 0;
        else
            result = static_cast<uint64_t>(
                static_cast<int64_t>(da % db));
        break;
      }
      case Op::Remuw: {
        const uint32_t da = static_cast<uint32_t>(a);
        const uint32_t db = static_cast<uint32_t>(b);
        result = db == 0 ? sext32(a) : sext32(da % db);
        break;
      }

      case Op::Fence:
        break;
      case Op::Ecall:
        doEcall();
        break;
      case Op::Ebreak:
        fatal("ebreak at pc 0x%llx",
              static_cast<unsigned long long>(thePc));

      default:
        panic("unhandled opcode in Hart::execute: %s",
              disassemble(inst).c_str());
    }

    if (inst.isCondBranch() && rec.taken)
        next_pc = thePc + static_cast<uint64_t>(imm);

    if (writes)
        regs[inst.rd] = result;
    thePc = next_pc;
}

void
Hart::doEcall()
{
    const SyscallResult res = sys.handle(regs, mem, thePc, theOutput);
    if (res.exited) {
        hasExited = true;
        theExitCode = res.exitCode;
    }
    // A syscall that wrote guest memory (read(2), stat/clock stubs)
    // may have overwritten text: keep the decoder caches coherent
    // exactly as a store would.
    if (res.writeLen)
        invalidateText(res.writeAddr, res.writeLen);
}

} // namespace helios
