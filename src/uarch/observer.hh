/**
 * @file
 * The one observer interface of the cycle-level core.
 *
 * Every passive consumer of pipeline events — the invariant auditor
 * (uarch/auditor.hh), the fusion-site profiler and the µ-op lifecycle
 * tracer (src/telemetry) — implements PipelineObserver and is attached
 * with Pipeline::attach(). The pipeline sends each event to the
 * attached observers in attach order; with none attached an event
 * costs one predictable branch.
 *
 * Observers must stay observer-effect-free: they read the µ-ops and
 * the cycle view they are handed and never write back into the
 * machine. Tier-1 checks this once, at the interface: a run with every
 * observer attached is bit-identical to a run with none
 * (Telemetry.ObserverEffectGuard).
 */

#ifndef UARCH_OBSERVER_HH
#define UARCH_OBSERVER_HH

#include <cstddef>
#include <cstdint>

#include "common/ring.hh"
#include "uarch/uop.hh"

namespace helios
{

/** Read-only snapshot of the machine at the end of one cycle. */
struct CycleView
{
    uint64_t cycle = 0; ///< cycles elapsed, this one included
    const RingBuffer<Uop *> *rob = nullptr;
    const RingBuffer<Uop *> *aq = nullptr;
    const RingBuffer<Uop *> *lq = nullptr;
    const RingBuffer<Uop *> *sq = nullptr;
    unsigned iqCount = 0;
    size_t drainCount = 0;
    size_t inflightCount = 0;
    unsigned allocatedRegs = 0;

    /** The cpi.* category the commit stage charged this cycle to. */
    const char *cpiCategory = nullptr;
    /** The charge went to a blocked ROB head at blockedPc. */
    bool headBlocked = false;
    uint64_t blockedPc = 0;
};

/**
 * Pipeline events, each stamped with the current cycle where it has
 * one. Every hook defaults to a no-op, so an observer overrides only
 * the events it consumes.
 */
class PipelineObserver
{
  public:
    virtual ~PipelineObserver() = default;

    /** A µ-op entered the machine (first fetch or post-squash refetch). */
    virtual void onFetch(const Uop &, uint64_t) {}

    /**
     * onFusePair(head, tail, kind, absorbed, cycle): a fused pair
     * formed. `absorbed` is true when the tail µ-op leaves the machine
     * at once (consecutive and oracle fusion); predicted pairs absorb
     * their tail later, at marker validation.
     */
    virtual void onFusePair(const Uop &, const DynInst &, FusionKind, bool,
                            uint64_t)
    {}

    /** onTailAbsorbed(tail_seq, head_seq, cycle): a predicted pair's
     *  tail marker validated at Dispatch. */
    virtual void onTailAbsorbed(uint64_t, uint64_t, uint64_t) {}

    /** onUnfuse(head, tail_seq, cycle): a pending pair unfused; the
     *  tail re-dispatches on its own. */
    virtual void onUnfuse(const Uop &, uint64_t, uint64_t) {}

    /** The fusion predictor proposed a pair tailed at this PC. */
    virtual void onPredictorAttempt(uint64_t /*tail_pc*/) {}

    /** A predicted pair tailed at this PC was broken before issue. */
    virtual void onPredictorBreak(uint64_t /*tail_pc*/, ProfBreak) {}

    /** A predicted pair tailed at this PC resolved incorrect. */
    virtual void onPredictorMispredict(uint64_t /*tail_pc*/) {}

    /** A µ-op issued (execution latency now scheduled). */
    virtual void onIssue(const Uop &, uint64_t) {}

    /** The ROB head committed. */
    virtual void onCommit(const Uop &, uint64_t) {}

    /** onSquash(uop, cycle, reason): a flush named `reason` squashed
     *  the µ-op (it may be refetched later). */
    virtual void onSquash(const Uop &, uint64_t, const char *) {}

    /** End of a cycle, after every stage ran. */
    virtual void onCycleEnd(const CycleView &) {}

    /**
     * onFinish(drained, cycle): end of the run. `drained` is true when
     * the pipeline emptied naturally; an instruction- or cycle-budget
     * stop legitimately leaves in-flight work behind.
     */
    virtual void onFinish(bool, uint64_t) {}
};

} // namespace helios

#endif // UARCH_OBSERVER_HH
