/**
 * @file
 * Per-cycle invariant auditor for the out-of-order pipeline.
 *
 * The timing model is trace-driven, so a fusion bug that drops a µ-op,
 * reorders a store, or leaks a ROB entry still produces a plausible
 * IPC table. The auditor mirrors the dynamic stream through hook
 * events and machine-checks the invariants every legal execution must
 * satisfy:
 *
 *  - commit order is strictly monotonic in (head) sequence number;
 *  - every fetched µ-op is exactly-once committed or squashed — no
 *    leaks from the in-flight set, no double commits;
 *  - the LQ/SQ/ROB stay in program order and structural limits (ROB,
 *    AQ, IQ, LQ, SQ) are never exceeded;
 *  - fused pairs obey the idiom legality rules: consecutive pairs
 *    match Table I, memory pairs are same-kind, store pairs share a
 *    base register, a pair's combined access fits the fusion region,
 *    no store sits in a store pair's catalyst, and a pair that
 *    consumed a catalyst-produced source issued only after that
 *    producer completed;
 *  - unfuse/replay restores the unfused µ-op count (the tail nucleus
 *    of an unfused pair commits exactly once on its own).
 *
 * The auditor is passive: it records violations (with the offending
 * seq and cycle for replay) instead of aborting, so a harness can
 * collect a machine-readable report across many runs. It is one
 * PipelineObserver (uarch/observer.hh) among others; unit tests drive
 * its hooks directly.
 */

#ifndef UARCH_AUDITOR_HH
#define UARCH_AUDITOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "uarch/observer.hh"
#include "uarch/params.hh"

namespace helios
{

/** One detected invariant violation. */
struct AuditViolation
{
    std::string invariant; ///< dotted invariant name, e.g. "commit.order"
    uint64_t seq = 0;      ///< offending sequence number (0 if n/a)
    uint64_t cycle = 0;    ///< cycle the violation was detected
    std::string detail;    ///< human-readable specifics

    /** One-object JSON rendering. */
    std::string toJson() const;
};

class PipelineAuditor final : public PipelineObserver
{
  public:
    explicit PipelineAuditor(const CoreParams &params);

    // ---- PipelineObserver events (see observer.hh) ----
    void onFetch(const Uop &uop, uint64_t cycle) override;
    void onFusePair(const Uop &head, const DynInst &tail,
                    FusionKind kind, bool absorbed,
                    uint64_t cycle) override;
    void onTailAbsorbed(uint64_t tail_seq, uint64_t head_seq,
                        uint64_t cycle) override;
    void onUnfuse(const Uop &head, uint64_t tail_seq,
                  uint64_t cycle) override;
    void onIssue(const Uop &uop, uint64_t cycle) override;
    void onCommit(const Uop &uop, uint64_t cycle) override;
    void onSquash(const Uop &uop, uint64_t cycle,
                  const char *reason) override;
    /** Structural checks. */
    void onCycleEnd(const CycleView &view) override;
    /** Exactly-once accounting, only when the run @a drained. */
    void onFinish(bool drained, uint64_t cycle) override;

    // ---- results ----
    bool ok() const { return theViolations.empty(); }
    const std::vector<AuditViolation> &violations() const
    {
        return theViolations;
    }

    /** Total invariant checks evaluated (sanity that hooks fired). */
    uint64_t checksPerformed() const { return checks; }
    uint64_t uopsAudited() const { return fetchEvents; }

    /** Machine-readable report: {"ok":..., "violations":[...], ...}. */
    std::string toJson() const;

    /** Cap on fully-recorded violations (repeats are only counted). */
    static constexpr size_t maxRecorded = 64;

  private:
    /** Lifecycle of one sequence number. */
    enum class SeqState : uint8_t
    {
        Free,     ///< ring slot holds no record
        InFlight, ///< fetched, not yet committed/absorbed
        Absorbed, ///< tail nucleus folded into a fused head
        Committed,
    };

    struct Rec
    {
        DynInst dyn; ///< dyn.seq keys the record
        SeqState state = SeqState::Free;
        bool issued = false;
        /** Head or absorbed tail of a fused pair (possibly already
         *  committed); its registers arrive at per-half latencies the
         *  mirror cannot observe, so timing checks skip it. */
        bool partOfPair = false;
        /** A fused head's pair record: its tail seq until the pair
         *  commits, unfuses or is squashed (0: no pair). */
        uint64_t pairTail = 0;
        uint64_t issueCycle = 0;
        uint64_t doneCycle = 0;
    };

    /** Committed fused memory pair, kept until its catalysts commit. */
    struct CommittedPair
    {
        uint64_t headSeq = 0;
        uint64_t tailSeq = 0;
        uint64_t tailBegin = 0; ///< tail nucleus byte range
        uint64_t tailEnd = 0;
        uint64_t issueCycle = 0;
    };

    Rec *findRec(uint64_t seq);
    void dropRec(uint64_t seq);
    void report(const char *invariant, uint64_t seq, uint64_t cycle,
                std::string detail);
    void checkPairAtCommit(const Uop &uop, const Rec &head_rec,
                           uint64_t cycle);
    void checkOrderedScan(const CycleView &view);

    const CoreParams params;

    /**
     * Records by seq & recMask. The ring holds the pipeline's in-flight
     * span (inflightRingSize) plus committedRetention more seqs, so a
     * slot is reused only once its committed record is that far behind
     * the youngest commit.
     */
    std::vector<Rec> recs;
    uint64_t recMask = 0;
    /** Uncommitted records whose slot another seq took, by seq. */
    std::map<uint64_t, Rec> displaced;
    std::vector<CommittedPair> committedLoadPairs;
    std::vector<CommittedPair> committedStorePairs;

    std::vector<AuditViolation> theViolations;
    std::map<std::string, uint64_t> violationCounts;

    uint64_t checks = 0;
    uint64_t fetchEvents = 0;
    uint64_t committedSeqs = 0;
    uint64_t minSeq = ~0ULL;
    uint64_t maxSeq = 0;
    bool anyFetched = false;
    bool haveCommitted = false;
    uint64_t lastCommitSeq = 0;
    uint64_t cyclesAudited = 0;

    /** Full order scans run every this many cycles (sizes: every cycle). */
    static constexpr uint64_t scanInterval = 64;
    /** Committed records stay findable this many seqs behind commit. */
    static constexpr uint64_t committedRetention = 8192;
};

} // namespace helios

#endif // UARCH_AUDITOR_HH
