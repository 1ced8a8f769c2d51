/**
 * @file
 * Front-end branch prediction: a TAGE conditional predictor (in the
 * L-TAGE family used by the paper's model), a set-associative BTB for
 * targets, and a return address stack for jalr returns.
 */

#ifndef UARCH_BRANCH_PRED_HH
#define UARCH_BRANCH_PRED_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/counters.hh"
#include "isa/instruction.hh"

namespace helios
{

/** TAGE conditional branch predictor: bimodal base + tagged tables. */
class Tage
{
  public:
    static constexpr unsigned numTables = 8;

    Tage();

    /** Predict the direction of the conditional branch at @a pc. */
    bool predict(uint64_t pc);

    /** Update with the actual outcome (uses the last predict() state,
     *  which is sound in this trace-driven model since prediction and
     *  update happen back-to-back at fetch). */
    void update(uint64_t pc, bool taken);

    /** Push an outcome into the global history. */
    void updateHistory(bool taken);

    /** Low bits of the global history (shared with the fusion
     *  predictor's gshare-like component). */
    uint16_t history() const { return uint16_t(ghist & 0xffff); }

    static constexpr unsigned tableBits = 10;  // 1K entries per table
    static constexpr unsigned tagBits = 9;

    /** The index and tag predict() looks up in tagged table @a table
     *  for the branch at @a pc, under the current history. */
    unsigned tableIndex(unsigned table, uint64_t pc) const;
    uint16_t tableTag(unsigned table, uint64_t pc) const;

  private:
    struct TaggedEntry
    {
        uint16_t tag = 0;
        SignedSatCounter<3> ctr;
        SatCounter<2> useful;
    };

    /**
     * Seznec's folded history register: the newest `length` bits of
     * the global history XOR-folded into `width` bits (bit i of the
     * history lands on bit i mod width). updateHistory() keeps it
     * current in O(1) per branch, so a lookup never refolds.
     */
    struct FoldedHistory
    {
        uint16_t value = 0;
        uint8_t width = 0;
        uint8_t outPos = 0; ///< length mod width

        void
        init(unsigned length, unsigned bits)
        {
            width = uint8_t(bits);
            outPos = uint8_t(length % bits);
        }

        /** Shift @a newest in; @a outgoing is the bit that leaves the
         *  length-bit window. */
        void
        update(unsigned newest, unsigned outgoing)
        {
            unsigned v = (unsigned(value) << 1) | newest;
            v ^= outgoing << outPos;
            v ^= v >> width;
            value = uint16_t(v & ((1u << width) - 1));
        }
    };

    static constexpr unsigned baseBits = 13;   // 8K-entry bimodal

    std::vector<SatCounter<2>> base;
    std::array<std::vector<TaggedEntry>, numTables> tagged;
    /** History bits each table hashes: its geometric length, capped
     *  at the 63 that ghist can supply. */
    std::array<unsigned, numTables> historyWindows;
    uint64_t ghist = 0; // bottom 64 bits of global history
    uint64_t pathHist = 0;
    // Per table: the window folded to the index width, the tag width
    // and one bit less than the tag width.
    std::array<FoldedHistory, numTables> indexFold;
    std::array<FoldedHistory, numTables> tagFold;
    std::array<FoldedHistory, numTables> tagFold2;

    // State captured by predict() for the subsequent update().
    struct
    {
        int provider = -1; // -1: bimodal
        int altProvider = -1;
        bool providerPred = false;
        bool altPred = false;
        unsigned indices[numTables] = {};
        uint16_t tags[numTables] = {};
    } last;
};

/** Branch target buffer (4K entries, 4-way). */
class Btb
{
  public:
    Btb();

    /** @return predicted target, or 0 when the entry misses. */
    uint64_t lookup(uint64_t pc) const;
    void update(uint64_t pc, uint64_t target);

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t target = 0;
        uint64_t lru = 0;
    };

    static constexpr unsigned numSets = 1024;
    static constexpr unsigned numWays = 4;

    std::vector<Entry> entries;
    uint64_t tick = 0;
};

/** Return address stack. */
class ReturnAddressStack
{
  public:
    static constexpr unsigned depth = 32;

    void push(uint64_t addr);
    uint64_t pop();
    bool empty() const { return count == 0; }

  private:
    std::array<uint64_t, depth> stack{};
    unsigned top = 0;
    unsigned count = 0;
};

/**
 * The combined front-end predictor: classifies each control µ-op and
 * reports whether the fetch stream would have been redirected.
 */
class BranchPredictor
{
  public:
    /**
     * Predict the control µ-op at @a pc and compare with the actual
     * outcome from the trace.
     *
     * @param inst decoded control instruction
     * @param taken actual direction (conditional branches)
     * @param target actual next PC
     * @return true when the prediction matches (direction and target)
     */
    bool predictAndCheck(uint64_t pc, const Instruction &inst,
                         bool taken, uint64_t target);

    uint16_t fusionHistory() const { return tage.history(); }

    uint64_t lookups = 0;
    uint64_t mispredicts = 0;

  private:
    Tage tage;
    Btb btb;
    ReturnAddressStack ras;
};

} // namespace helios

#endif // UARCH_BRANCH_PRED_HH
