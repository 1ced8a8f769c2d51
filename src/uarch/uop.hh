/**
 * @file
 * The in-flight µ-op record used by the timing pipeline.
 */

#ifndef UARCH_UOP_HH
#define UARCH_UOP_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

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

/** Which issue-port pool a µ-op draws from (Uop::port). */
enum class PortClass : uint8_t
{
    Alu = 0, ///< integer ALU ops and serializing ops
    Branch,
    Mul,
    Div,
    Load,  ///< a µ-op with a load nucleus
    Store, ///< a µ-op with a store nucleus and no load nucleus
};

/** Number of PortClass values. */
constexpr unsigned numPortClasses = unsigned(PortClass::Store) + 1;

/** End of a wakeup chain (Uop::wakeHead, Uop::wakeTail). */
constexpr uint32_t noWakeEdge = ~0u;

/**
 * One µ-op flowing through the pipeline.
 *
 * A fused µ-op carries both nucleii (dyn = head, tailDyn = tail), each
 * a pointer to the record the pipeline's fetch ring holds for that seq
 * while it is in flight. An NCSF tail nucleus additionally leaves a
 * *tail marker* µ-op in the Allocation Queue which consumes
 * Rename/Dispatch slots and validates the pending NCSF'd µ-op
 * (Section IV-B).
 *
 * The first cache line is the hot block: everything wakeup, issue and
 * commit test for every µ-op, including the facts refreshFacts()
 * derives from the nuclei, so no stage goes back to the instruction
 * for them. The record is trivially copyable (the µ-ops waiting on it
 * chain through the pipeline's edge pool, not through vectors here),
 * so recycle() is one copy of a fresh record.
 */
struct alignas(64) Uop
{
    /** Bits of `mem`. The µ-op bits say what the µ-op as a whole does
     *  (a tail marker neither loads nor stores); the nucleus bits say
     *  what `dyn` and, when fused, `tailDyn` do on their own. */
    enum MemFact : uint8_t
    {
        MemLoad = 1 << 0,   ///< the µ-op loads
        MemStore = 1 << 1,  ///< the µ-op stores
        HeadLoad = 1 << 2,  ///< the head nucleus loads
        HeadStore = 1 << 3, ///< the head nucleus stores
        TailLoad = 1 << 4,  ///< the fused tail nucleus loads
        TailStore = 1 << 5, ///< the fused tail nucleus stores
        HeadMem = HeadLoad | HeadStore,
        TailMem = TailLoad | TailStore,
    };

    // ---- hot block (first cache line) ----
    uint64_t seq = 0;     ///< dynamic sequence number (head nucleus)
    const DynInst *dyn = nullptr;
    const DynInst *tailDyn = nullptr;
    /** Issue ready list (intrusive, owned by Pipeline): doubly linked
     *  in ascending seq order, so issue walks exactly the ready µ-ops
     *  oldest-first. */
    Uop *readyPrev = nullptr;
    Uop *readyNext = nullptr;
    /** Unique id, telling a refetched seq from its squashed namesake.
     *  It wraps after 2^32 fetches; a completion event outlives its
     *  µ-op's issue by a few hundred cycles, so no stale event can
     *  meet a wrapped id. */
    uint32_t uid = 0;
    /** Chains of the µ-ops waiting on the head-half (or whole) result
     *  and on the tail-half result, in Pipeline's wakeup-edge pool. */
    uint32_t wakeHead = noWakeEdge;
    uint32_t wakeTail = noWakeEdge;
    uint8_t notReady = 0; ///< producers still awaited
    // Facts of the nuclei, set by refreshFacts(). A register is 0
    // (x0) where the nucleus writes or reads none; a tail marker's
    // head nucleus is the pair's tail.
    PortClass port = PortClass::Alu;
    uint8_t mem = 0; ///< MemFact bits
    FusionKind fusion = FusionKind::None;
    uint8_t headRd = 0;
    uint8_t tailRd = 0; ///< 0 unless fused
    uint8_t headRs1 = 0;
    uint8_t headRs2 = 0;
    bool serializing : 1 = false; ///< the head nucleus serializes
    // ---- fusion ----
    bool hasTail : 1 = false;
    bool isTailMarker : 1 = false;
    bool ncsReady : 1 = true; ///< NCS Ready bit (Section IV-B2)
    // ---- pipeline state ----
    bool inAq : 1 = false;
    bool dispatched : 1 = false;
    bool inIq : 1 = false;
    bool inReadyList : 1 = false;
    bool issued : 1 = false;
    bool headDone : 1 = false; ///< head-half result delivered
    bool tailDone : 1 = false; ///< tail-half result delivered
    bool done : 1 = false;     ///< fully complete (commit-eligible)
    bool addrKnown : 1 = false;
    bool mispredictedBranch : 1 = false;
    /** Why a once-fused pair was broken (first reason wins, None while
     *  it stands). A tail marker's reason makes Dispatch unfuse it. */
    ProfBreak profBreak = ProfBreak::None;

    // ---- the rest: read once per µ-op or by observers ----
    uint16_t fetchHistory = 0; ///< global branch history at fetch
    Idiom idiom = Idiom::None;
    FpPrediction fpPred;
    uint64_t pairSeq = 0; ///< marker <-> fused-head linkage

    /** Producers of a tail marker's rs1 and (for a store) rs2, captured
     *  when it renames (the program-order-correct lookup point); ~0
     *  where the tail reads no such register. */
    uint64_t tailProducers[2] = {~0ULL, ~0ULL};
    uint64_t waitStoreSeq = ~0ULL; ///< store-set dependence

    uint64_t memBegin = 0; ///< effective byte range (both nucleii)
    uint64_t memEnd = 0;

    // Stage stamps, for observers only: a run with none attached
    // leaves them 0.
    uint64_t fetchCycle = 0;
    uint64_t aqCycle = 0; ///< decode done, inserted into the AQ
    uint64_t renameCycle = 0;
    uint64_t dispatchCycle = 0;
    uint64_t issueCycle = 0;
    uint64_t doneCycle = 0;

    /**
     * Derive the hot block's facts (`port`, `mem`, the registers and
     * `serializing`) from dyn, tailDyn, hasTail and isTailMarker. Fetch
     * calls it, and so does every change to those four: consecutive
     * fusion, predicted fusion (head and marker), the nest-limit
     * unfuse's marker, unfuseInPlace and a marker's conversion at
     * Dispatch.
     */
    void refreshFacts();

    /** Reset to a fresh µ-op, so a UopPool-recycled slot is
     *  indistinguishable from a new Uop. Exactness matters: pooled and
     *  heap-per-µ-op runs must be bit-identical
     *  (tests/test_perf_structures.cc). */
    void recycle();

    bool isLoad() const { return mem & MemLoad; }
    bool isStore() const { return mem & MemStore; }
    bool isMem() const { return mem & (MemLoad | MemStore); }

    /** Committed architectural instructions this µ-op represents. */
    unsigned archInsts() const { return hasTail ? 2 : 1; }

    /** Combined access range of both nucleii (valid for mem µ-ops). */
    void
    computeMemRange()
    {
        bool have = false;
        if (mem & HeadMem) {
            memBegin = dyn->effAddr;
            memEnd = dyn->effAddr + dyn->memSize();
            have = true;
        }
        if (mem & TailMem) {
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
};

static_assert(std::is_trivially_copyable_v<Uop>,
              "a Uop recycles by one copy");
static_assert(offsetof(Uop, fetchHistory) == 64,
              "the hot block fills exactly the first cache line");

namespace uop_detail
{

/** What Uop::refreshFacts() reads of one nucleus' opcode. */
struct OpFacts
{
    PortClass port = PortClass::Alu;
    uint8_t mem = 0; ///< Uop::HeadLoad or Uop::HeadStore
    bool writesRd = false;
    bool readsRs1 = false;
    bool readsRs2 = false;
    bool serializing = false;
};

/** opTable packed to OpFacts, so a refresh reads one small entry per
 *  nucleus. */
inline constexpr std::array<OpFacts, size_t(Op::NumOps)> opFacts = [] {
    std::array<OpFacts, size_t(Op::NumOps)> table{};
    for (size_t op = 0; op < table.size(); ++op) {
        const OpInfo &info = op_detail::opTable[op];
        OpFacts &facts = table[op];
        // The hart faults on an invalid opcode before the pipeline
        // sees it, so OpClass::Invalid keeps the ALU default.
        switch (info.cls) {
          case OpClass::Branch: facts.port = PortClass::Branch; break;
          case OpClass::IntMul: facts.port = PortClass::Mul; break;
          case OpClass::IntDiv: facts.port = PortClass::Div; break;
          case OpClass::Load: facts.port = PortClass::Load; break;
          case OpClass::Store: facts.port = PortClass::Store; break;
          default: break;
        }
        facts.mem = info.cls == OpClass::Load    ? Uop::HeadLoad
                    : info.cls == OpClass::Store ? Uop::HeadStore
                                                 : 0;
        facts.writesRd = info.writesRd;
        facts.readsRs1 = info.readsRs1;
        facts.readsRs2 = info.readsRs2;
        facts.serializing = info.cls == OpClass::Serializing;
    }
    return table;
}();

static_assert(Uop::TailLoad == Uop::HeadLoad << 2 &&
              Uop::TailStore == Uop::HeadStore << 2 &&
              Uop::MemLoad == Uop::HeadLoad >> 2 &&
              Uop::MemStore == Uop::HeadStore >> 2);

} // namespace uop_detail

inline void
Uop::refreshFacts()
{
    using uop_detail::opFacts;
    const Instruction &head = dyn->inst;
    const uop_detail::OpFacts &facts = opFacts[size_t(head.op)];
    uint8_t bits = facts.mem;
    tailRd = 0;
    if (hasTail) {
        const Instruction &tail = tailDyn->inst;
        const uop_detail::OpFacts &tail_facts = opFacts[size_t(tail.op)];
        // TailLoad and TailStore sit two bits above their head twins.
        bits |= tail_facts.mem << 2;
        tailRd = tail_facts.writesRd ? tail.rd : 0;
    }
    // MemLoad and MemStore sit two bits below HeadLoad and HeadStore.
    if (!isTailMarker)
        bits |= ((bits >> 2) | (bits >> 4)) & (MemLoad | MemStore);
    mem = bits;
    port = bits & MemLoad    ? PortClass::Load
           : bits & MemStore ? PortClass::Store
                             : facts.port;
    headRd = facts.writesRd ? head.rd : 0;
    headRs1 = facts.readsRs1 ? head.rs1 : 0;
    headRs2 = facts.readsRs2 ? head.rs2 : 0;
    serializing = facts.serializing;
}

/** What UopPool hands out and Uop::recycle() copies. Defined in its
 *  own translation unit (uop.cc): seeing a mostly zero constant, GCC
 *  turns the copy into a `rep stos` fill, which costs more than the
 *  copy's twelve vector moves on every fetch. */
extern const Uop freshUop;

inline void
Uop::recycle()
{
    *this = freshUop;
}

} // namespace helios

#endif // UARCH_UOP_HH
