/**
 * @file
 * Flat decoder cache: the one decoded form of the text segment that
 * every production execution path runs from (Hart::runFast, and
 * Hart::step, which feeds the pipeline and the trace analyses).
 *
 * One 16-byte FastEntry per static instruction word in the text
 * segment, indexed by (pc - textBase) >> 2, in the style of
 * libriscv's decoder cache: the opcode selects the handler (runFast
 * resolves it to a computed-goto label, step() switches on it), the
 * register fields are pre-extracted, and the immediate is pre-folded
 * as far as the ISA allows — branch and jal targets are stored as
 * absolute values so the handlers never reconstruct a pc-relative
 * offset.
 *
 * On top of the per-entry cache sits basic-block metadata: blockLen(w)
 * counts the instructions from word w to its block terminator
 * (inclusive), letting Hart::runFast() check the instruction budget
 * once per block instead of once per instruction. A sentinel slot
 * past the last word (in the block lengths and in runFast()'s
 * dispatch table) catches straight-line code running off the end of
 * text and routes it to Hart::step(), which decodes the word past
 * text from memory and faults on it.
 *
 * Beside each entry the cache keeps the word's full decoded
 * Instruction (including the raw word), decoded once in build() or
 * invalidate(), so Hart::step() can fill DynInst::inst without
 * decoding.
 *
 * SMC contract: Hart::invalidateText() (called by every store that
 * overlaps text) re-decodes the overwritten words and then recomputes
 * the block lengths of the enclosing straight-line region — from the
 * previous terminator to the next one *under the new contents* —
 * before the next block dispatch.
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
     * target pc; for lui and auipc the sign-extended shifted constant
     * (auipc's handler adds the pc); for Op::Invalid the raw
     * undecodable word, sign-extended from 32 bits (the fault message
     * prints it back as a uint32_t). Everything else keeps the
     * decoder's sign-extended immediate. Every text word's value fits
     * in 32 signed bits: text lies below guestImageLimit, so a branch
     * target does too.
     */
    int64_t imm = 0;
    Op op = Op::Invalid;     ///< architectural opcode: selects the handler
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t pad[4] = {};     ///< keep sizeof == 16: 4 entries per line
};

static_assert(sizeof(FastEntry) == 16);

/**
 * One slot of the run-time dispatch table Hart::runFast() translates
 * the decoder cache into: the computed-goto label resolved to a
 * pointer, plus rd/rs1/rs2 and the (≤32-bit, checked at translation)
 * immediate packed into one word. Two loads fetch everything the
 * handler needs; the per-field loads of the durable cache are off the
 * hot path.
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

    bool built() const { return !blockLens.empty(); }

    /**
     * Re-decode words [lo_word, hi_word] from memory and recompute the
     * enclosing straight-line region's block lengths.
     * Called by Hart::invalidateText() with the clamped word range a
     * store overlapped.
     */
    void invalidate(const Memory &memory, size_t lo_word,
                    size_t hi_word);

    /**
     * The entry for @a inst at @a pc. Hart::step() uses it for an
     * off-text or misaligned pc, whose word has no slot.
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
     * Recompute block lengths over words [lo, hi]. Callers guarantee
     * the range covers whole straight-line regions: entries[lo - 1]
     * (if any) and entries[hi] are terminators, or lo/hi sit at the
     * text edges.
     */
    void rebuildRange(size_t lo, size_t hi);

    std::vector<FastEntry> entries; ///< words
    std::vector<Instruction> insts; ///< words
    std::vector<uint32_t> blockLens; ///< words + 1 (see blockLenArray)
    uint64_t base = 0;
    size_t words = 0;
    uint64_t version_ = 0;
};

} // namespace helios

#endif // SIM_DECODER_CACHE_HH
