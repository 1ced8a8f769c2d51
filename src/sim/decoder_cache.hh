/**
 * @file
 * Flat decoder cache: the one decoded form of the text segment that
 * every production execution path runs from (Hart::runFast, and
 * Hart::step, which feeds the pipeline and the trace analyses).
 *
 * One 16-byte FastEntry per static instruction word in the text
 * segment, indexed by (pc - textBase) >> 2, in the style of
 * libriscv's decoder cache: the handler is resolved at decode time
 * (a handler id the threaded dispatch loop feeds into a computed-goto
 * label table), the register fields are pre-extracted, and the
 * immediate is pre-folded as far as the ISA allows — branch and jal
 * targets and auipc results are stored as absolute 64-bit values so
 * the handlers never reconstruct a pc-relative offset.
 *
 * On top of the per-entry cache sits basic-block metadata: blockLen(w)
 * counts the instructions from word w to its block terminator
 * (inclusive), letting Hart::runFast() check the instruction budget
 * once per block instead of once per instruction. A final sentinel
 * entry (HidTextEnd) past the last word catches straight-line code
 * running off the end of text and routes it to Hart::step(), which
 * decodes the word past text from memory and faults on it.
 *
 * Beside each entry the cache keeps the word's full decoded
 * Instruction (including the raw word), decoded once in build() or
 * invalidate(), so Hart::step() can fill DynInst::inst without
 * decoding.
 *
 * Fusion: after the base entries are built, adjacent pairs matching
 * the paper's hottest idioms (lui+addi constant build, addi+branch
 * loop step, load+dependent ALU op) are re-pointed at fused handlers
 * that execute both instructions in one dispatch. Fusion only ever
 * changes the *head* entry's handler id — every architectural field
 * keeps the unfused instruction's semantics, so a jump landing on the
 * pair's tail executes it standalone and Hart::step() runs the same
 * cache one base instruction at a time.
 *
 * SMC contract: Hart::invalidateText() (called by every store that
 * overlaps text) re-decodes the overwritten words and then rebuilds
 * the enclosing straight-line region — from the previous terminator
 * to the next one *under the new contents* — so both block lengths
 * and fused pairs spanning the patched words are recomputed before
 * the next block dispatch.
 */

#ifndef SIM_DECODER_CACHE_HH
#define SIM_DECODER_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/instruction.hh"
#include "isa/riscv.hh"

namespace helios
{

class Memory;

/** One pre-resolved instruction slot in the flat decoder cache. */
struct FastEntry
{
    /**
     * Pre-folded immediate. For branches and jal this is the absolute
     * target pc; for auipc the complete result (pc + imm<<12); for
     * lui the sign-extended shifted constant; for Op::Invalid the raw
     * undecodable word (for the fault message). Everything else keeps
     * the decoder's sign-extended immediate.
     */
    int64_t imm = 0;
    uint8_t hid = 0;         ///< handler id (base op or fused idiom)
    Op op = Op::Invalid;     ///< architectural opcode (traced dispatch)
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t pad[3] = {};     ///< keep sizeof == 16: 4 entries per line
};

static_assert(sizeof(FastEntry) == 16);

/**
 * Handler ids. Values below Op::NumOps are the base opcodes
 * themselves (so building an unfused entry is a cast); the fused ids
 * and the text-end sentinel follow. Fused handlers execute the head
 * instruction's exact semantics, then the tail's, in one dispatch —
 * operands always come from the two entries and the register file, so
 * no operand-role constraint is needed for correctness (the matcher
 * only picks idioms).
 */
enum FastHid : uint8_t
{
    HidFusedLi = uint8_t(Op::NumOps), ///< lui + addi off its rd
    HidFusedAddiBeq,                  ///< addi + beq (loop step)
    HidFusedAddiBne,                  ///< addi + bne
    HidFusedAddiBlt,                  ///< addi + blt
    HidFusedAddiBge,                  ///< addi + bge
    HidFusedAddiBltu,                 ///< addi + bltu
    HidFusedAddiBgeu,                 ///< addi + bgeu
    HidFusedLdAdd,                    ///< ld + add
    HidFusedLdAddi,                   ///< ld + addi
    HidFusedLwAdd,                    ///< lw + add
    HidFusedLwAddi,                   ///< lw + addi
    HidFusedLdLd,                     ///< ld + ld (field-pair fetch)
    HidFusedLdBltu,                   ///< ld + bltu (scan loop)
    HidFusedAddXor,                   ///< add + xor (checksum fold)
    HidFusedAddLd,                    ///< add + ld (indexed load)
    HidFusedAddiSlli,                 ///< addi + slli (index scale)
    HidFusedSlliAdd,                  ///< slli + add (address gen)
    // Multi-instruction idioms (longest-first in the matcher): whole
    // hot-loop bodies collapsed into one dispatch.
    HidFusedLdAddiBne,                ///< ld + addi + bne (chase loop)
    HidFusedLdLdAddXor,               ///< ld + ld + add + xor (fold)
    HidFusedScanBltu,                 ///< addi+slli+add+ld+bltu (scan)
    HidFusedSlliAddLd,                ///< slli + add + ld (indexed ld)
    HidFusedSlliAddLdBgeu,            ///< slli+add+ld+bgeu (scan+test)
    HidFusedAddiAddiBne,              ///< addi + addi + bne (loop close)
    HidFusedLdLdBge,                  ///< ld + ld + bge (range pop)
    HidTextEnd,                       ///< sentinel past the last word
    NumFastHids,
};

/**
 * One slot of the run-time dispatch table Hart::runFast() translates
 * the decoder cache into: the computed-goto label resolved to a
 * pointer, plus rd/rs1/rs2 and the (≤32-bit, checked at translation)
 * immediate packed into one word. Two loads fetch everything the
 * handler needs; the hid indirection and the per-field loads of the
 * durable cache are off the hot path.
 */
struct RunEntry
{
    const void *handler = nullptr;
    uint64_t meta = 0; ///< rd | rs1<<8 | rs2<<16 | uint32(imm)<<32
};

static_assert(sizeof(RunEntry) == 16);

constexpr uint64_t
packFastMeta(uint8_t rd, uint8_t rs1, uint8_t rs2, int64_t imm)
{
    return uint64_t(rd) | uint64_t(rs1) << 8 | uint64_t(rs2) << 16 |
           uint64_t(uint32_t(imm)) << 32;
}

constexpr uint8_t fastMetaRd(uint64_t m) { return uint8_t(m); }
constexpr uint8_t fastMetaRs1(uint64_t m) { return uint8_t(m >> 8); }
constexpr uint8_t fastMetaRs2(uint64_t m) { return uint8_t(m >> 16); }

constexpr int64_t
fastMetaImm(uint64_t m)
{
    return int64_t(int32_t(uint32_t(m >> 32)));
}

/** Flat, text-indexed decoder cache plus basic-block metadata. */
class DecoderCache
{
  public:
    /**
     * (Re)build the cache for the text segment [text_base,
     * text_base + 4 * num_words) from the current memory contents.
     */
    void build(const Memory &memory, uint64_t text_base,
               size_t num_words);

    /** Drop everything (next build starts fresh). */
    void clear();

    bool built() const { return !entries.empty(); }

    /**
     * Re-decode words [lo_word, hi_word] from memory and rebuild the
     * enclosing straight-line region's block metadata and fusion.
     * Called by Hart::invalidateText() with the clamped word range a
     * store overlapped.
     */
    void invalidate(const Memory &memory, size_t lo_word,
                    size_t hi_word);

    /**
     * The entry for @a inst at @a pc, unfused. Hart::step() uses it
     * for an off-text or misaligned pc, whose word has no slot.
     */
    static FastEntry makeEntry(const Instruction &inst, uint64_t pc);

    const FastEntry *entryArray() const { return entries.data(); }

    /** The decoded instruction of each text word (numWords() slots). */
    const Instruction *instArray() const { return insts.data(); }

    /**
     * words + 1 slots: one per text word plus a sentinel slot of 1
     * past the end, so block chaining can budget-check a branch to
     * pc == textLimit without a bounds test.
     */
    const uint32_t *blockLenArray() const { return blockLens.data(); }

    size_t numWords() const { return words; }
    uint64_t textBase() const { return base; }

    /** Instructions from word @a w to its block terminator, inclusive. */
    uint32_t blockLen(size_t w) const { return blockLens[w]; }

    /** Number of entry pairs currently pointed at a fused handler. */
    size_t fusedPairs() const;

    /**
     * Monotonic change counter, bumped by build() and invalidate().
     * Hart::runFast() compares it against the version its RunEntry
     * translation was made from, so SMC invalidation mid-run forces a
     * re-translation before the next block dispatch.
     */
    uint64_t version() const { return version_; }

  private:
    /** Decode word @a w from memory into insts[w] and entries[w]. */
    void decodeWord(const Memory &memory, size_t w);

    /**
     * Reset handler ids to the base ops, recompute block lengths and
     * re-run pair fusion over words [lo, hi]. Callers guarantee the
     * range covers whole straight-line regions: entries[lo - 1] (if
     * any) and entries[hi] are terminators, or lo/hi sit at the text
     * edges.
     */
    void rebuildRange(size_t lo, size_t hi);

    std::vector<FastEntry> entries; ///< words + 1 (text-end sentinel)
    std::vector<Instruction> insts; ///< words
    std::vector<uint32_t> blockLens;
    uint64_t base = 0;
    size_t words = 0;
    uint64_t version_ = 0;
};

} // namespace helios

#endif // SIM_DECODER_CACHE_HH
