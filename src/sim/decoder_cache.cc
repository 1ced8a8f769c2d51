/**
 * @file
 * The decoder cache and the two dispatchers built on it:
 * Hart::runFast() (computed-goto threaded block runner) and
 * Hart::step() (one base instruction, producing the DynInst the
 * pipeline feed consumes). Both expand the same instruction bodies
 * from fast_ops.inc, so they cannot drift from each other; the engine
 * differential (src/harness/differential.cc) checks both against the
 * decode-every-step oracle in hart.cc.
 */

#include "sim/decoder_cache.hh"

#include <cstdint>
#include <cstring>
#include <iterator>

#include "common/logging.hh"
#include "isa/decoder.hh"
#include "sim/hart.hh"
#include "sim/memory.hh"

namespace helios
{

namespace
{

int64_t s64(uint64_t v) { return static_cast<int64_t>(v); }
int32_t s32(uint64_t v) { return static_cast<int32_t>(v); }

uint64_t
sext8(uint64_t v)
{
    return static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int8_t>(v)));
}

uint64_t
sext16(uint64_t v)
{
    return static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int16_t>(v)));
}

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

FastEntry
DecoderCache::makeEntry(const Instruction &inst, uint64_t pc)
{
    FastEntry entry;
    entry.op = inst.op;
    entry.rd = inst.rd;
    entry.rs1 = inst.rs1;
    entry.rs2 = inst.rs2;
    switch (inst.op) {
      case Op::Lui:
      case Op::Auipc:
        // auipc's handler adds the pc, so the entry fits a RunEntry
        // wherever the word sits.
        entry.imm = inst.imm << 12;
        break;
      case Op::Jal:
      case Op::Beq: case Op::Bne: case Op::Blt:
      case Op::Bge: case Op::Bltu: case Op::Bgeu:
        // Absolute target; the handlers never re-derive pc + imm.
        entry.imm = static_cast<int64_t>(
            pc + static_cast<uint64_t>(inst.imm));
        break;
      case Op::Invalid:
        // Keep the raw word for the fault message, sign-extended so
        // that a word with its top bit set still fits a RunEntry.
        entry.imm = static_cast<int32_t>(inst.raw);
        break;
      default:
        entry.imm = inst.imm;
        break;
    }
    return entry;
}

void
DecoderCache::decodeWord(const Memory &memory, size_t w)
{
    const uint64_t pc = base + 4 * w;
    insts[w] = decode(static_cast<uint32_t>(memory.read(pc, 4)));
    entries[w] = makeEntry(insts[w], pc);
}

void
DecoderCache::build(const Memory &memory, uint64_t text_base,
                    size_t num_words)
{
    base = text_base;
    words = num_words;
    ++version_;
    entries.assign(num_words, FastEntry{});
    insts.assign(num_words, Instruction{});
    // One sentinel slot past the last word, permanently 1: a branch
    // chaining to pc == textLimit budget-checks it like a real block
    // before dispatching the text-end handler.
    blockLens.assign(num_words + 1, 1);
    for (size_t w = 0; w < num_words; ++w)
        decodeWord(memory, w);

    if (num_words > 0)
        rebuildRange(0, num_words - 1);
}

void
DecoderCache::clear()
{
    entries.clear();
    insts.clear();
    blockLens.clear();
    base = 0;
    words = 0;
}

void
DecoderCache::invalidate(const Memory &memory, size_t lo_word,
                         size_t hi_word)
{
    if (words == 0)
        return;
    ++version_;
    for (size_t w = lo_word; w <= hi_word; ++w)
        decodeWord(memory, w);

    // Expand to the enclosing straight-line region *under the new
    // contents*: back to the previous terminator (block lengths of
    // every upstream word in the run change with the patch) and
    // forward to the next.
    size_t lo = lo_word;
    while (lo > 0 && !isBlockTerminatorOp(entries[lo - 1].op))
        --lo;
    size_t hi = hi_word;
    while (hi + 1 < words && !isBlockTerminatorOp(entries[hi].op))
        ++hi;
    rebuildRange(lo, hi);
}

void
DecoderCache::rebuildRange(size_t lo, size_t hi)
{
    // Innermost-out. entries[hi] is a terminator or the last text
    // word, so blockLens[hi + 1] is never needed.
    for (size_t w = hi + 1; w-- > lo;) {
        if (isBlockTerminatorOp(entries[w].op) || w == words - 1)
            blockLens[w] = 1;
        else
            blockLens[w] = blockLens[w + 1] + 1;
    }
}

void
Hart::ensureFastCache()
{
    if (!fastCache.built())
        fastCache.build(mem, textBase, (textLimit - textBase) / 4);
}

size_t
Hart::fastCacheEntries()
{
    ensureFastCache();
    return fastCache.numWords();
}

/*
 * The untraced block runner. Shape of the hot path:
 *
 *   - one budget / residency check per *block* (blockLens), not per
 *     instruction;
 *   - computed-goto threaded dispatch: every handler jumps straight
 *     to the next handler through the label table, so the indirect
 *     branch predictor sees one distinct branch per static handler
 *     (the classic threaded-interpreter win over a central switch);
 *   - non-control handlers never touch thePc — the pc is implied by
 *     the entry pointer and only materialized (FAST_PC) by handlers
 *     that need it;
 *   - block chaining: a terminator settles seq/executed from the
 *     pointer distance, bounds- and budget-checks its own target
 *     inline (FAST_GOTO) and jumps straight to the target block's
 *     first handler — each static branch gets its own indirect
 *     dispatch site, so the predictor learns per-branch targets. The
 *     outer loop is only re-entered on the slow paths: off-text or
 *     misaligned pc, budget expiry, ecall, SMC invalidation, and the
 *     text-end sentinel (all via `chain_exit`).
 *
 * On any fatal() (invalid/ebreak/bad ecall) instsExecuted() is
 * block-aligned — in-block progress before the fault is not folded
 * into seq. step() is the contract for fault *state* (message and
 * pc); counters after a throw are not part of it.
 */
uint64_t
Hart::runFast(uint64_t max_insts)
{
    ensureFastCache();
    const uint32_t *const block_lens = fastCache.blockLenArray();
    const uint64_t text_base = fastCache.textBase();
    const size_t text_words = fastCache.numWords();
    const uint64_t text_bytes = text_words * 4;
    Memory &mem = this->mem;
    uint64_t executed = 0;
    DynInst scratch;

    // Execute on a local copy of the register file. Simulated-memory
    // stores go through byte arrays, which in C++ may alias *any*
    // object — including this->regs — so working on the members would
    // force the compiler to reload source registers after every
    // store. A local array whose address never escapes is provably
    // unaliased. The RAII guard publishes it back on every exit,
    // including fatal() unwinds, so post-catch architectural state
    // matches step()'s.
    uint64_t lregs[numArchRegs];
    std::memcpy(lregs, this->regs, sizeof(lregs));
    struct RegPublish
    {
        Hart *hart;
        const uint64_t *local;
        ~RegPublish()
        {
            std::memcpy(hart->regs, local, sizeof(hart->regs));
        }
    } reg_publish{this, lregs};
    uint64_t *const regs = lregs;

    // One label per opcode, in Op order: an entry's op indexes it.
    static const void *const handlers[] = {
        &&h_Invalid, &&h_Lui, &&h_Auipc, &&h_Jal, &&h_Jalr,
        &&h_Beq, &&h_Bne, &&h_Blt, &&h_Bge, &&h_Bltu, &&h_Bgeu,
        &&h_Lb, &&h_Lh, &&h_Lw, &&h_Ld, &&h_Lbu, &&h_Lhu, &&h_Lwu,
        &&h_Sb, &&h_Sh, &&h_Sw, &&h_Sd,
        &&h_Addi, &&h_Slti, &&h_Sltiu, &&h_Xori, &&h_Ori, &&h_Andi,
        &&h_Slli, &&h_Srli, &&h_Srai,
        &&h_Add, &&h_Sub, &&h_Sll, &&h_Slt, &&h_Sltu, &&h_Xor,
        &&h_Srl, &&h_Sra, &&h_Or, &&h_And,
        &&h_Addiw, &&h_Slliw, &&h_Srliw, &&h_Sraiw,
        &&h_Addw, &&h_Subw, &&h_Sllw, &&h_Srlw, &&h_Sraw,
        &&h_Mul, &&h_Mulh, &&h_Mulhsu, &&h_Mulhu,
        &&h_Div, &&h_Divu, &&h_Rem, &&h_Remu,
        &&h_Mulw, &&h_Divw, &&h_Divuw, &&h_Remw, &&h_Remuw,
        &&h_Fence, &&h_Ecall, &&h_Ebreak,
    };
    static_assert(std::size(handlers) == size_t(Op::NumOps));
    const void *const text_end = &&h_TextEnd;

    // Translate the durable cache into the dispatch table the hot
    // loop actually walks: resolved label pointer + packed operands,
    // two loads per handler. Re-translated whenever the cache version
    // moves (first run after reset/build, SMC invalidation mid-run).
    const auto retranslate = [&] {
        const FastEntry *const ce = fastCache.entryArray();
        runEntries.resize(text_words + 1);
        for (size_t w = 0; w < text_words; ++w) {
            helios_assert(
                ce[w].imm == int64_t(int32_t(uint32_t(
                                 uint64_t(ce[w].imm)))),
                "fast-engine immediate overflows the packed run entry");
            runEntries[w].handler = handlers[size_t(ce[w].op)];
            runEntries[w].meta = packFastMeta(ce[w].rd, ce[w].rs1,
                                              ce[w].rs2, ce[w].imm);
        }
        // The slot past the last word: straight-line code running off
        // the end of text dispatches here instead of off the array.
        runEntries[text_words] = RunEntry{text_end, 0};
        runEntriesVersion = fastCache.version();
    };
    if (runEntriesVersion != fastCache.version())
        retranslate();
    const RunEntry *const entry_base = runEntries.data();

    while (!hasExited && executed < max_insts) {
        const uint64_t offset = thePc - text_base;
        if (offset >= text_bytes || (offset & 3) != 0) {
            // Off-text (or misaligned) pc: step() decodes the word
            // from memory and runs (or faults on) it. step() works on
            // the member register file, so sync the local copy around
            // it.
            std::memcpy(this->regs, lregs, sizeof(lregs));
            const bool stepped = step(scratch);
            std::memcpy(lregs, this->regs, sizeof(lregs));
            if (!stepped)
                break;
            ++executed;
            continue;
        }

        // An SMC store exits its block after bumping the cache
        // version; refresh the dispatch table before running the next
        // block. resize() keeps the same length, so entry_base stays
        // valid.
        if (runEntriesVersion != fastCache.version())
            retranslate();

        const RunEntry *e = entry_base + (offset >> 2);
        const RunEntry *block_start = e;
        if (uint64_t(block_lens[offset >> 2]) > max_insts - executed) {
            // The budget expires inside this block: single-step the
            // tail so the stop lands on the exact instruction.
            std::memcpy(this->regs, lregs, sizeof(lregs));
            while (executed < max_insts && step(scratch))
                ++executed;
            std::memcpy(lregs, this->regs, sizeof(lregs));
            break;
        }

        goto *e->handler;

/*
 * Untraced dispatch context. FAST_OP opens a scope that loads the
 * packed meta word once — entry reads never repeat after a register
 * write — and FAST_END/FAST_TERM close it after advancing to the next
 * handler pointer (one load).
 */
#define FAST_OP(name)                                                  \
      h_##name: {                                                      \
        const uint64_t fe_meta = e->meta;                              \
        (void)fe_meta;
#define FAST_END                                                       \
        ++e;                                                           \
        goto *e->handler;                                              \
      }
#define FAST_TERM                                                      \
        {                                                              \
            const uint64_t blk = uint64_t(e - block_start) + 1;        \
            executed += blk;                                           \
            seq += blk;                                                \
        }                                                              \
        goto chain_exit;                                               \
      }
/*
 * Block chaining: a terminator that knows its successor pc settles
 * this block's counters, budget-checks the target block, and jumps
 * straight to its handler — the outer loop is only re-entered on the
 * slow paths (off-text target, budget expiry, ecall, SMC). Keeping
 * the dispatch in each terminator gives every static jump/branch its
 * own indirect-branch site, which the host predictor tracks far
 * better than one shared dispatch point.
 */
#define FAST_GOTO(target)                                              \
        do {                                                           \
            const uint64_t chain_pc = (target);                        \
            const uint64_t blk = uint64_t(e - block_start) + 1;        \
            executed += blk;                                           \
            seq += blk;                                                \
            const uint64_t chain_off = chain_pc - text_base;           \
            if (chain_off > text_bytes || (chain_off & 3) != 0) {      \
                thePc = chain_pc;                                      \
                goto chain_exit;                                       \
            }                                                          \
            const size_t ci = size_t(chain_off >> 2);                  \
            if (uint64_t(block_lens[ci]) > max_insts - executed) {     \
                thePc = chain_pc;                                      \
                goto chain_exit;                                       \
            }                                                          \
            e = entry_base + ci;                                       \
            block_start = e;                                           \
            goto *e->handler;                                          \
        } while (0)
#define FRD fastMetaRd(fe_meta)
#define FRS1 fastMetaRs1(fe_meta)
#define FRS2 fastMetaRs2(fe_meta)
#define FIMM fastMetaImm(fe_meta)
#define FAST_PC                                                        \
        (text_base + (uint64_t(e - entry_base) << 2))
#define WREG(r, v)                                                     \
        do {                                                           \
            const uint8_t wreg_rd = (r);                               \
            const uint64_t wreg_val = (v);                             \
            if (wreg_rd != 0)                                          \
                regs[wreg_rd] = wreg_val;                              \
        } while (0)
#define RECORD_EA(a) ((void)0)
#define RECORD_TAKEN(t) ((void)(t))
#define SMC_EXIT                                                       \
        do {                                                           \
            const uint64_t blk = uint64_t(e - block_start) + 1;        \
            executed += blk;                                           \
            seq += blk;                                                \
            thePc = FAST_PC + 4;                                       \
            goto chain_exit;                                           \
        } while (0)
#define FAST_SYNC_OUT std::memcpy(this->regs, lregs, sizeof(lregs))
#define FAST_SYNC_IN std::memcpy(lregs, this->regs, sizeof(lregs))

#include "sim/fast_ops.inc"

      h_TextEnd: {
        // Straight-line code ran off the end of text: settle the
        // instructions executed on the way here, then hand the pc to
        // the outer loop, whose off-text path hands it to step()
        // on the next iteration.
        const uint64_t blk = uint64_t(e - block_start);
        executed += blk;
        seq += blk;
        thePc = text_base + (uint64_t(e - entry_base) << 2);
        goto chain_exit;
      }

#undef FAST_OP
#undef FAST_END
#undef FAST_TERM
#undef FAST_GOTO
#undef FRD
#undef FRS1
#undef FRS2
#undef FIMM
#undef FAST_PC
#undef WREG
#undef RECORD_EA
#undef RECORD_TAKEN
#undef SMC_EXIT
#undef FAST_SYNC_OUT
#undef FAST_SYNC_IN

      chain_exit:;
    }
    return executed;
}

/*
 * The single-stepper: same cache, same bodies, but dispatching through
 * a switch on the entry's op and filling the DynInst the pipeline feed
 * and the trace analyses consume. Also runFast()'s fallback for
 * off-text pcs and budget tails.
 */
bool
Hart::step(DynInst &out)
{
    if (hasExited)
        return false;
    ensureFastCache();

    const uint64_t pc = thePc;
    const uint64_t offset = pc - fastCache.textBase();
    const FastEntry *e;
    const Instruction *inst;
    FastEntry off_text_entry;
    Instruction off_text_inst;
    if (offset < fastCache.numWords() * 4 && (offset & 3) == 0) {
        e = fastCache.entryArray() + (offset >> 2);
        inst = fastCache.instArray() + (offset >> 2);
    } else {
        // No cache slot: decode this one word from memory.
        off_text_inst = decode(static_cast<uint32_t>(mem.read(pc, 4)));
        off_text_entry = DecoderCache::makeEntry(off_text_inst, pc);
        e = &off_text_entry;
        inst = &off_text_inst;
    }
    // Fault before seq is consumed.
    if (e->op == Op::Invalid)
        fatal("invalid instruction 0x%08x at pc 0x%llx",
              unsigned(inst->raw), (unsigned long long)pc);

    out = DynInst{};
    out.seq = seq++;
    out.pc = pc;
    // Copied before executing: a store into text re-decodes the
    // cache slot *inst points at.
    out.inst = *inst;
    thePc = pc + 4; // non-control default; handlers override

    switch (e->op) {

#define FAST_OP(name) case Op::name:
#define FAST_END break
#define FAST_TERM break
#define FAST_GOTO(target) thePc = (target)
#define FRD (e->rd)
#define FRS1 (e->rs1)
#define FRS2 (e->rs2)
#define FIMM (e->imm)
#define FAST_PC pc
#define WREG(r, v)                                                     \
        do {                                                           \
            const uint8_t wreg_rd = (r);                               \
            const uint64_t wreg_val = (v);                             \
            if (wreg_rd != 0)                                          \
                regs[wreg_rd] = wreg_val;                              \
        } while (0)
#define RECORD_EA(a) out.effAddr = (a)
#define RECORD_TAKEN(t) out.taken = (t)
#define SMC_EXIT ((void)0)
    // step() executes on the member register file, so the syscall
    // sync hooks are no-ops here.
#define FAST_SYNC_OUT ((void)0)
#define FAST_SYNC_IN ((void)0)

#include "sim/fast_ops.inc"

#undef FAST_OP
#undef FAST_END
#undef FAST_TERM
#undef FAST_GOTO
#undef FRD
#undef FRS1
#undef FRS2
#undef FIMM
#undef FAST_PC
#undef WREG
#undef RECORD_EA
#undef RECORD_TAKEN
#undef SMC_EXIT
#undef FAST_SYNC_OUT
#undef FAST_SYNC_IN

      default:
        panic("unhandled opcode in Hart::step: %u",
              unsigned(e->op));
    }

    out.nextPc = thePc;
    return true;
}

} // namespace helios
