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

/**
 * Fused-pair matcher. The caller guarantees @a head is not a block
 * terminator and @a tail lies inside the same block. Every fused
 * handler executes head-then-tail sequentially against the register
 * file, so apart from HidFusedLi (which folds the constant and needs
 * the addi to read the lui's rd) no operand-role constraint is
 * required for correctness — the op-pair table just picks the paper's
 * hot idioms.
 */
uint8_t
matchFusion(const FastEntry &head, const FastEntry &tail)
{
    switch (head.op) {
      case Op::Lui:
        // lui rd, hi ; addi rdx, rd, lo — materialize a constant.
        if (tail.op == Op::Addi && tail.rs1 == head.rd &&
            head.rd != 0)
            return HidFusedLi;
        return 0;
      case Op::Addi:
        // addi ; branch — the loop-step idiom (addi t0,t0,-1 ;
        // bnez t0,loop) — and addi ; slli index scaling.
        switch (tail.op) {
          case Op::Beq: return HidFusedAddiBeq;
          case Op::Bne: return HidFusedAddiBne;
          case Op::Blt: return HidFusedAddiBlt;
          case Op::Bge: return HidFusedAddiBge;
          case Op::Bltu: return HidFusedAddiBltu;
          case Op::Bgeu: return HidFusedAddiBgeu;
          case Op::Slli: return HidFusedAddiSlli;
          default: return 0;
        }
      case Op::Ld:
        // ld ; {alu, second field load, scan-loop branch}.
        switch (tail.op) {
          case Op::Add: return HidFusedLdAdd;
          case Op::Addi: return HidFusedLdAddi;
          case Op::Ld: return HidFusedLdLd;
          case Op::Bltu: return HidFusedLdBltu;
          default: return 0;
        }
      case Op::Lw:
        if (tail.op == Op::Add)
            return HidFusedLwAdd;
        if (tail.op == Op::Addi)
            return HidFusedLwAddi;
        return 0;
      case Op::Add:
        // add ; xor checksum folds, add ; ld indexed loads.
        if (tail.op == Op::Xor)
            return HidFusedAddXor;
        if (tail.op == Op::Ld)
            return HidFusedAddLd;
        return 0;
      case Op::Slli:
        if (tail.op == Op::Add)
            return HidFusedSlliAdd;
        return 0;
      default:
        return 0;
    }
}

/**
 * Multi-instruction idioms, matched longest-first before pair fusion.
 * Like the pairs, the fused handlers execute every instruction's
 * exact semantics in order against the register file, so the op
 * sequence is the only constraint. Interior ops are never block
 * terminators; a terminator may only appear as the final op.
 */
struct FusionPattern
{
    uint8_t len;
    Op ops[5];
    uint8_t hid;
};

constexpr FusionPattern longPatterns[] = {
    // Scaled-index scan loop step (qsort's Hoare partition scans):
    // addi i ; slli t, i, k ; add t, t, base ; ld v ; bltu.
    {5, {Op::Addi, Op::Slli, Op::Add, Op::Ld, Op::Bltu},
     HidFusedScanBltu},
    // Scaled-index load + bounds test (validation sweeps).
    {4, {Op::Slli, Op::Add, Op::Ld, Op::Bgeu, Op::Invalid},
     HidFusedSlliAddLdBgeu},
    // Field-pair fetch + checksum fold (mcf's list traversal).
    {4, {Op::Ld, Op::Ld, Op::Add, Op::Xor, Op::Invalid},
     HidFusedLdLdAddXor},
    // Field-pair fetch + signed compare (range-stack pop).
    {3, {Op::Ld, Op::Ld, Op::Bge, Op::Invalid, Op::Invalid},
     HidFusedLdLdBge},
    // Pointer-chase + count-down loop close.
    {3, {Op::Ld, Op::Addi, Op::Bne, Op::Invalid, Op::Invalid},
     HidFusedLdAddiBne},
    // Double pointer/counter step + loop close.
    {3, {Op::Addi, Op::Addi, Op::Bne, Op::Invalid, Op::Invalid},
     HidFusedAddiAddiBne},
    // Scaled-index address generation + load.
    {3, {Op::Slli, Op::Add, Op::Ld, Op::Invalid, Op::Invalid},
     HidFusedSlliAddLd},
};

} // namespace

FastEntry
DecoderCache::makeEntry(const Instruction &inst, uint64_t pc)
{
    FastEntry entry;
    entry.op = inst.op;
    entry.hid = static_cast<uint8_t>(inst.op);
    entry.rd = inst.rd;
    entry.rs1 = inst.rs1;
    entry.rs2 = inst.rs2;
    switch (inst.op) {
      case Op::Lui:
        entry.imm = inst.imm << 12;
        break;
      case Op::Auipc:
        entry.imm = static_cast<int64_t>(
            pc + static_cast<uint64_t>(inst.imm << 12));
        break;
      case Op::Jal:
      case Op::Beq: case Op::Bne: case Op::Blt:
      case Op::Bge: case Op::Bltu: case Op::Bgeu:
        // Absolute target; the handlers never re-derive pc + imm.
        entry.imm = static_cast<int64_t>(
            pc + static_cast<uint64_t>(inst.imm));
        break;
      case Op::Invalid:
        // Keep the raw word for the fault message.
        entry.imm = static_cast<int64_t>(uint64_t(inst.raw));
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
    entries.assign(num_words + 1, FastEntry{});
    insts.assign(num_words, Instruction{});
    // One sentinel slot past the last word, permanently 1: a branch
    // chaining to pc == textLimit budget-checks it like a real block
    // before dispatching the text-end handler.
    blockLens.assign(num_words + 1, 1);
    for (size_t w = 0; w < num_words; ++w)
        decodeWord(memory, w);

    // Sentinel: straight-line code running past the last text word
    // dispatches here instead of off the end of the array.
    entries[num_words].hid = HidTextEnd;
    entries[num_words].op = Op::Invalid;

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
    if (entries.empty() || words == 0)
        return;
    ++version_;
    for (size_t w = lo_word; w <= hi_word; ++w)
        decodeWord(memory, w);

    // Expand to the enclosing straight-line region *under the new
    // contents*: back to the previous terminator (block lengths of
    // every upstream word in the run change with the patch, and a
    // fused head is never a terminator, so this also unwinds pairs
    // reaching into the patched words) and forward to the next.
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
    // Back to unfused handlers before re-pairing.
    for (size_t w = lo; w <= hi; ++w)
        entries[w].hid = static_cast<uint8_t>(entries[w].op);

    // Block lengths, innermost-out. entries[hi] is a terminator or
    // the last text word, so blockLens[hi + 1] is never needed.
    for (size_t w = hi + 1; w-- > lo;) {
        if (isBlockTerminatorOp(entries[w].op) || w == words - 1)
            blockLens[w] = 1;
        else
            blockLens[w] = blockLens[w + 1] + 1;
    }

    // Greedy in-order fusion within each block, longest idiom first.
    size_t w = lo;
    while (w <= hi) {
        const size_t block_end = w + blockLens[w] - 1;
        size_t i = w;
        while (i <= block_end) {
            size_t advance = 1;
            for (const FusionPattern &p : longPatterns) {
                if (i + p.len - 1 > block_end)
                    continue;
                bool match = true;
                for (unsigned k = 0; k < p.len; ++k)
                    if (entries[i + k].op != p.ops[k]) {
                        match = false;
                        break;
                    }
                if (match) {
                    entries[i].hid = p.hid;
                    advance = p.len;
                    break;
                }
            }
            if (advance == 1 && i < block_end) {
                const uint8_t fused =
                    matchFusion(entries[i], entries[i + 1]);
                if (fused != 0) {
                    entries[i].hid = fused;
                    advance = 2;
                }
            }
            i += advance;
        }
        w = block_end + 1;
    }
}

size_t
DecoderCache::fusedPairs() const
{
    size_t count = 0;
    for (size_t w = 0; w < words; ++w)
        if (entries[w].hid >= static_cast<uint8_t>(Op::NumOps) &&
            entries[w].hid != HidTextEnd)
            ++count;
    return count;
}

void
Hart::ensureFastCache()
{
    if (!fastCache.built())
        fastCache.build(mem, textBase, (textLimit - textBase) / 4);
}

size_t
Hart::fastFusedPairs()
{
    ensureFastCache();
    return fastCache.fusedPairs();
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
 *     inline (FAST_GOTO_N) and jumps straight to the target block's
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

    static const void *const handlers[NumFastHids] = {
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
        &&h_FusedLi,
        &&h_FusedAddiBeq, &&h_FusedAddiBne, &&h_FusedAddiBlt,
        &&h_FusedAddiBge, &&h_FusedAddiBltu, &&h_FusedAddiBgeu,
        &&h_FusedLdAdd, &&h_FusedLdAddi,
        &&h_FusedLwAdd, &&h_FusedLwAddi,
        &&h_FusedLdLd, &&h_FusedLdBltu,
        &&h_FusedAddXor, &&h_FusedAddLd,
        &&h_FusedAddiSlli, &&h_FusedSlliAdd,
        &&h_FusedLdAddiBne, &&h_FusedLdLdAddXor, &&h_FusedScanBltu,
        &&h_FusedSlliAddLd, &&h_FusedSlliAddLdBgeu,
        &&h_FusedAddiAddiBne, &&h_FusedLdLdBge,
        &&h_TextEnd,
    };

    // Translate the durable cache into the dispatch table the hot
    // loop actually walks: resolved label pointer + packed operands,
    // two loads per handler. Re-translated whenever the cache version
    // moves (first run after reset/build, SMC invalidation mid-run).
    const auto retranslate = [&] {
        const FastEntry *const ce = fastCache.entryArray();
        runEntries.resize(text_words + 1);
        for (size_t w = 0; w <= text_words; ++w) {
            helios_assert(
                ce[w].imm == int64_t(int32_t(uint32_t(
                                 uint64_t(ce[w].imm)))),
                "fast-engine immediate overflows the packed run entry");
            runEntries[w].handler = handlers[ce[w].hid];
            runEntries[w].meta = packFastMeta(ce[w].rd, ce[w].rs1,
                                              ce[w].rs2, ce[w].imm);
        }
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
 * handler pointer (one load, no hid indirection).
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
#define FAST_GOTO_N(target, consumed)                                  \
        do {                                                           \
            const uint64_t chain_pc = (target);                        \
            const uint64_t blk =                                       \
                uint64_t(e - block_start) + (consumed);                \
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
#define FAST_GOTO(target) FAST_GOTO_N(target, 1)
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

        /*
         * Fused handlers: untraced only. Each executes the head
         * instruction's exact semantics, then the tail's, against the
         * register file — so any operand roles (including x0 and
         * aliased registers) behave exactly as the unfused sequence
         * would, and a jump landing on the pair's tail still executes
         * it standalone through its own entry. Only the dispatch tail
         * is shared.
         */

      h_FusedLi: {
        // matcher guarantees tail.rs1 == head.rd != 0, so the addi's
        // source is the lui constant — fold without a register read.
        const uint64_t m0 = e->meta, m1 = e[1].meta;
        const uint64_t v0 = uint64_t(fastMetaImm(m0));
        regs[fastMetaRd(m0)] = v0;
        WREG(fastMetaRd(m1), v0 + uint64_t(fastMetaImm(m1)));
        e += 2;
        goto *e->handler;
      }

#define HELIOS_FUSED_ADDI_BRANCH(name, cond)                           \
      h_FusedAddi##name: {                                             \
        const uint64_t m0 = e->meta, m1 = e[1].meta;                   \
        WREG(fastMetaRd(m0),                                           \
             regs[fastMetaRs1(m0)] + uint64_t(fastMetaImm(m0)));       \
        const uint64_t a = regs[fastMetaRs1(m1)];                      \
        const uint64_t b = regs[fastMetaRs2(m1)];                      \
        FAST_GOTO_N((cond) ? uint64_t(fastMetaImm(m1))                 \
                           : FAST_PC + 8, 2);                          \
      }

        HELIOS_FUSED_ADDI_BRANCH(Beq, a == b)
        HELIOS_FUSED_ADDI_BRANCH(Bne, a != b)
        HELIOS_FUSED_ADDI_BRANCH(Blt, s64(a) < s64(b))
        HELIOS_FUSED_ADDI_BRANCH(Bge, s64(a) >= s64(b))
        HELIOS_FUSED_ADDI_BRANCH(Bltu, a < b)
        HELIOS_FUSED_ADDI_BRANCH(Bgeu, a >= b)

#undef HELIOS_FUSED_ADDI_BRANCH

/* Head of every load-led pair: perform the load, write rd. */
#define HELIOS_FUSED_LOAD_HEAD(width, convert)                         \
        const uint64_t m0 = e->meta, m1 = e[1].meta;                   \
        const uint64_t addr0 =                                         \
            regs[fastMetaRs1(m0)] + uint64_t(fastMetaImm(m0));         \
        WREG(fastMetaRd(m0), convert(mem.loadFast<width>(addr0)));

      h_FusedLdAdd: {
        HELIOS_FUSED_LOAD_HEAD(8, )
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] + regs[fastMetaRs2(m1)]);
        e += 2;
        goto *e->handler;
      }

      h_FusedLdAddi: {
        HELIOS_FUSED_LOAD_HEAD(8, )
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] + uint64_t(fastMetaImm(m1)));
        e += 2;
        goto *e->handler;
      }

      h_FusedLwAdd: {
        HELIOS_FUSED_LOAD_HEAD(4, sext32)
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] + regs[fastMetaRs2(m1)]);
        e += 2;
        goto *e->handler;
      }

      h_FusedLwAddi: {
        HELIOS_FUSED_LOAD_HEAD(4, sext32)
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] + uint64_t(fastMetaImm(m1)));
        e += 2;
        goto *e->handler;
      }

      h_FusedLdLd: {
        HELIOS_FUSED_LOAD_HEAD(8, )
        const uint64_t addr1 =
            regs[fastMetaRs1(m1)] + uint64_t(fastMetaImm(m1));
        WREG(fastMetaRd(m1), mem.loadFast<8>(addr1));
        e += 2;
        goto *e->handler;
      }

      h_FusedLdBltu: {
        HELIOS_FUSED_LOAD_HEAD(8, )
        const bool taken =
            regs[fastMetaRs1(m1)] < regs[fastMetaRs2(m1)];
        FAST_GOTO_N(taken ? uint64_t(fastMetaImm(m1)) : FAST_PC + 8,
                    2);
      }

#undef HELIOS_FUSED_LOAD_HEAD

      h_FusedAddXor: {
        const uint64_t m0 = e->meta, m1 = e[1].meta;
        WREG(fastMetaRd(m0),
             regs[fastMetaRs1(m0)] + regs[fastMetaRs2(m0)]);
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] ^ regs[fastMetaRs2(m1)]);
        e += 2;
        goto *e->handler;
      }

      h_FusedAddLd: {
        const uint64_t m0 = e->meta, m1 = e[1].meta;
        WREG(fastMetaRd(m0),
             regs[fastMetaRs1(m0)] + regs[fastMetaRs2(m0)]);
        const uint64_t addr1 =
            regs[fastMetaRs1(m1)] + uint64_t(fastMetaImm(m1));
        WREG(fastMetaRd(m1), mem.loadFast<8>(addr1));
        e += 2;
        goto *e->handler;
      }

      h_FusedAddiSlli: {
        const uint64_t m0 = e->meta, m1 = e[1].meta;
        WREG(fastMetaRd(m0),
             regs[fastMetaRs1(m0)] + uint64_t(fastMetaImm(m0)));
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] << (fastMetaImm(m1) & 63));
        e += 2;
        goto *e->handler;
      }

      h_FusedSlliAdd: {
        const uint64_t m0 = e->meta, m1 = e[1].meta;
        WREG(fastMetaRd(m0),
             regs[fastMetaRs1(m0)] << (fastMetaImm(m0) & 63));
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] + regs[fastMetaRs2(m1)]);
        e += 2;
        goto *e->handler;
      }

        /*
         * Multi-instruction idioms: same generic-sequential rule as
         * the pairs, just more of it per dispatch. These are whole
         * hot-loop bodies — one meta load per instruction, one
         * chained dispatch per iteration.
         */

      h_FusedLdAddiBne: {
        // ld x ; addi n ; bne — pointer-chase loop close.
        const uint64_t m0 = e->meta, m1 = e[1].meta, m2 = e[2].meta;
        const uint64_t addr0 =
            regs[fastMetaRs1(m0)] + uint64_t(fastMetaImm(m0));
        WREG(fastMetaRd(m0), mem.loadFast<8>(addr0));
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] + uint64_t(fastMetaImm(m1)));
        const bool taken =
            regs[fastMetaRs1(m2)] != regs[fastMetaRs2(m2)];
        FAST_GOTO_N(taken ? uint64_t(fastMetaImm(m2)) : FAST_PC + 12,
                    3);
      }

      h_FusedLdLdAddXor: {
        // ld a ; ld b ; add acc, a ; xor acc, b — field-pair fold.
        const uint64_t m0 = e->meta, m1 = e[1].meta;
        const uint64_t m2 = e[2].meta, m3 = e[3].meta;
        const uint64_t addr0 =
            regs[fastMetaRs1(m0)] + uint64_t(fastMetaImm(m0));
        WREG(fastMetaRd(m0), mem.loadFast<8>(addr0));
        const uint64_t addr1 =
            regs[fastMetaRs1(m1)] + uint64_t(fastMetaImm(m1));
        WREG(fastMetaRd(m1), mem.loadFast<8>(addr1));
        WREG(fastMetaRd(m2),
             regs[fastMetaRs1(m2)] + regs[fastMetaRs2(m2)]);
        WREG(fastMetaRd(m3),
             regs[fastMetaRs1(m3)] ^ regs[fastMetaRs2(m3)]);
        e += 4;
        goto *e->handler;
      }

      h_FusedScanBltu: {
        // addi i ; slli t,i,k ; add t,t,base ; ld v ; bltu — a whole
        // scaled-index scan-loop iteration in one dispatch.
        const uint64_t m0 = e->meta, m1 = e[1].meta, m2 = e[2].meta;
        const uint64_t m3 = e[3].meta, m4 = e[4].meta;
        WREG(fastMetaRd(m0),
             regs[fastMetaRs1(m0)] + uint64_t(fastMetaImm(m0)));
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] << (fastMetaImm(m1) & 63));
        WREG(fastMetaRd(m2),
             regs[fastMetaRs1(m2)] + regs[fastMetaRs2(m2)]);
        const uint64_t addr3 =
            regs[fastMetaRs1(m3)] + uint64_t(fastMetaImm(m3));
        WREG(fastMetaRd(m3), mem.loadFast<8>(addr3));
        const bool taken =
            regs[fastMetaRs1(m4)] < regs[fastMetaRs2(m4)];
        FAST_GOTO_N(taken ? uint64_t(fastMetaImm(m4)) : FAST_PC + 20,
                    5);
      }

      h_FusedSlliAddLd: {
        // slli t,i,k ; add t,t,base ; ld v — scaled-index load.
        const uint64_t m0 = e->meta, m1 = e[1].meta, m2 = e[2].meta;
        WREG(fastMetaRd(m0),
             regs[fastMetaRs1(m0)] << (fastMetaImm(m0) & 63));
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] + regs[fastMetaRs2(m1)]);
        const uint64_t addr2 =
            regs[fastMetaRs1(m2)] + uint64_t(fastMetaImm(m2));
        WREG(fastMetaRd(m2), mem.loadFast<8>(addr2));
        e += 3;
        goto *e->handler;
      }

      h_FusedSlliAddLdBgeu: {
        // slli ; add ; ld ; bgeu — scaled-index load + bounds test.
        const uint64_t m0 = e->meta, m1 = e[1].meta;
        const uint64_t m2 = e[2].meta, m3 = e[3].meta;
        WREG(fastMetaRd(m0),
             regs[fastMetaRs1(m0)] << (fastMetaImm(m0) & 63));
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] + regs[fastMetaRs2(m1)]);
        const uint64_t addr2 =
            regs[fastMetaRs1(m2)] + uint64_t(fastMetaImm(m2));
        WREG(fastMetaRd(m2), mem.loadFast<8>(addr2));
        const bool taken =
            regs[fastMetaRs1(m3)] >= regs[fastMetaRs2(m3)];
        FAST_GOTO_N(taken ? uint64_t(fastMetaImm(m3)) : FAST_PC + 16,
                    4);
      }

      h_FusedAddiAddiBne: {
        // addi p ; addi n ; bne — double pointer/counter loop close.
        const uint64_t m0 = e->meta, m1 = e[1].meta, m2 = e[2].meta;
        WREG(fastMetaRd(m0),
             regs[fastMetaRs1(m0)] + uint64_t(fastMetaImm(m0)));
        WREG(fastMetaRd(m1),
             regs[fastMetaRs1(m1)] + uint64_t(fastMetaImm(m1)));
        const bool taken =
            regs[fastMetaRs1(m2)] != regs[fastMetaRs2(m2)];
        FAST_GOTO_N(taken ? uint64_t(fastMetaImm(m2)) : FAST_PC + 12,
                    3);
      }

      h_FusedLdLdBge: {
        // ld lo ; ld hi ; bge — range-stack pop + empty test.
        const uint64_t m0 = e->meta, m1 = e[1].meta, m2 = e[2].meta;
        const uint64_t addr0 =
            regs[fastMetaRs1(m0)] + uint64_t(fastMetaImm(m0));
        WREG(fastMetaRd(m0), mem.loadFast<8>(addr0));
        const uint64_t addr1 =
            regs[fastMetaRs1(m1)] + uint64_t(fastMetaImm(m1));
        WREG(fastMetaRd(m1), mem.loadFast<8>(addr1));
        const bool taken =
            s64(regs[fastMetaRs1(m2)]) >= s64(regs[fastMetaRs2(m2)]);
        FAST_GOTO_N(taken ? uint64_t(fastMetaImm(m2)) : FAST_PC + 12,
                    3);
      }

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
#undef FAST_GOTO_N
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
 * The single-stepper: same cache, same bodies, but dispatching the
 * *base* op of every entry (fused handler ids are ignored) and filling
 * the DynInst the pipeline feed and the trace analyses consume. Also
 * runFast()'s fallback for off-text pcs and budget tails.
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
