/**
 * @file
 * The in-flight µ-op record used by the timing pipeline.
 */

#ifndef UARCH_UOP_HH
#define UARCH_UOP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fusion/fusion_predictor.hh"
#include "fusion/idiom.hh"
#include "sim/trace.hh"

namespace helios
{

/** How a µ-op came to be fused. */
enum class FusionKind : uint8_t
{
    None = 0,
    CsfMem,    ///< decode-time consecutive memory pair
    CsfOther,  ///< decode-time non-memory Table I idiom
    NcsfMem,   ///< AQ-time memory pair (predictor- or oracle-named head)
};

/**
 * Why a predicted pair was broken before issue. One byte: it rides in
 * every Uop.
 */
enum class ProfBreak : uint8_t
{
    None = 0,
    NestLimit,     ///< every NCSF nest level busy (fp_nest_limited)
    Deadlock,      ///< Deadlock-Tag propagation hit
    StoreCatalyst, ///< store in a store-pair catalyst window
    Serializing,   ///< serializing µ-op inside the catalyst
    LateRaw,       ///< tail source fed by a catalyst load
};

/** Stable lowercase name, e.g. "nest_limit" ("" for None). */
inline const char *
profBreakName(ProfBreak reason)
{
    switch (reason) {
      case ProfBreak::None: return "";
      case ProfBreak::NestLimit: return "nest_limit";
      case ProfBreak::Deadlock: return "deadlock";
      case ProfBreak::StoreCatalyst: return "store_catalyst";
      case ProfBreak::Serializing: return "serializing";
      case ProfBreak::LateRaw: return "late_raw";
    }
    return "";
}

/**
 * One µ-op flowing through the pipeline.
 *
 * A fused µ-op carries both nucleii (dyn = head, tailDyn = tail), each
 * a pointer to the record the pipeline's fetch ring holds for that seq
 * while it is in flight. An NCSF tail nucleus additionally leaves a
 * *tail marker* µ-op in the Allocation Queue which consumes
 * Rename/Dispatch slots and validates the pending NCSF'd µ-op
 * (Section IV-B).
 */
struct Uop
{
    uint64_t seq = 0;     ///< dynamic sequence number (head nucleus)
    uint64_t uid = 0;     ///< unique id (seq repeats after replay)
    const DynInst *dyn = nullptr;
    uint16_t fetchHistory = 0; ///< global branch history at fetch

    // ---- control flow ----
    bool mispredictedBranch = false;

    // ---- fusion ----
    FusionKind fusion = FusionKind::None;
    Idiom idiom = Idiom::None;
    bool hasTail = false;
    const DynInst *tailDyn = nullptr;
    bool isTailMarker = false;
    uint64_t pairSeq = 0;      ///< marker <-> fused-head linkage
    bool ncsReady = true;      ///< NCS Ready bit (Section IV-B2)
    /** Why a once-fused pair was broken (first reason wins, None while
     *  it stands). A tail marker's reason makes Dispatch unfuse it. */
    ProfBreak profBreak = ProfBreak::None;
    FpPrediction fpPred;

    /** Producers of a tail marker's rs1 and (for a store) rs2, captured
     *  when it renames (the program-order-correct lookup point); ~0
     *  where the tail reads no such register. */
    uint64_t tailProducers[2] = {~0ULL, ~0ULL};

    // ---- rename state ----
    int notReady = 0;
    std::vector<uint64_t> dependents; ///< woken by head-half completion
    std::vector<uint64_t> dependentsTail; ///< woken by tail half
    uint64_t waitStoreSeq = ~0ULL;    ///< store-set dependence

    // ---- issue ready list (intrusive, owned by Pipeline) ----
    // Doubly linked in ascending seq order so issue walks exactly the
    // ready µ-ops oldest-first.
    Uop *readyPrev = nullptr;
    Uop *readyNext = nullptr;
    bool inReadyList = false;

    // ---- pipeline state ----
    bool inAq = false;
    bool dispatched = false;
    bool inIq = false;
    bool issued = false;
    bool headDone = false; ///< head-half result delivered
    bool tailDone = false; ///< tail-half result delivered
    bool done = false;     ///< fully complete (commit-eligible)
    uint64_t fetchCycle = 0;
    uint64_t aqCycle = 0; ///< decode done, inserted into the AQ
    uint64_t renameCycle = 0;
    uint64_t dispatchCycle = 0;
    uint64_t issueCycle = 0;
    uint64_t doneCycle = 0;

    // ---- memory state ----
    bool addrKnown = false;
    uint64_t memBegin = 0; ///< effective byte range (both nucleii)
    uint64_t memEnd = 0;

    /**
     * Reset to freshly-constructed state while keeping the heap
     * capacity of the two dependency vectors, so a UopPool-recycled
     * slot is indistinguishable from a new Uop but allocation-free in
     * steady state. Exactness matters: pooled and heap-per-µ-op runs
     * must be bit-identical (tests/test_perf_structures.cc). The slot
     * is rebuilt in place rather than move-assigned from a temporary
     * Uop, which would write the whole record twice.
     */
    void
    recycle()
    {
        auto deps_head = std::move(dependents);
        auto deps_tail = std::move(dependentsTail);
        deps_head.clear();
        deps_tail.clear();
        std::destroy_at(this);
        Uop *fresh = std::construct_at(this);
        fresh->dependents = std::move(deps_head);
        fresh->dependentsTail = std::move(deps_tail);
    }

    bool
    isLoad() const
    {
        return !isTailMarker &&
               (dyn->isLoad() || (hasTail && tailDyn->isLoad()));
    }

    bool
    isStore() const
    {
        return !isTailMarker &&
               (dyn->isStore() || (hasTail && tailDyn->isStore()));
    }

    bool isMem() const { return isLoad() || isStore(); }

    /** Committed architectural instructions this µ-op represents. */
    unsigned archInsts() const { return hasTail ? 2 : 1; }

    /** Combined access range of both nucleii (valid for mem µ-ops). */
    void
    computeMemRange()
    {
        bool have = false;
        if (dyn->inst.isMem()) {
            memBegin = dyn->effAddr;
            memEnd = dyn->effAddr + dyn->memSize();
            have = true;
        }
        if (hasTail && tailDyn->inst.isMem()) {
            if (have) {
                memBegin = std::min(memBegin, tailDyn->effAddr);
                memEnd = std::max(memEnd,
                                  tailDyn->effAddr + tailDyn->memSize());
            } else {
                memBegin = tailDyn->effAddr;
                memEnd = tailDyn->effAddr + tailDyn->memSize();
            }
        }
    }

    bool
    overlaps(uint64_t begin, uint64_t end) const
    {
        return memBegin < end && begin < memEnd;
    }
};

} // namespace helios

#endif // UARCH_UOP_HH
