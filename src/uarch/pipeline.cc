#include "uarch/pipeline.hh"

#include <algorithm>
#include <string_view>

#include "common/logging.hh"
#include "fusion/fusion_predictor.hh"
#include "fusion/ncsf_rules.hh"
#include "fusion/tage_fp.hh"
#include "telemetry/profiler.hh"

namespace helios
{

namespace
{

constexpr uint64_t invalidSeq = ~0ULL;

/** Pending-address markers in Pipeline::unresolvedKind. */
constexpr uint8_t unresolvedNone = 0;
constexpr uint8_t unresolvedLoad = 1;
constexpr uint8_t unresolvedStore = 2;

/** Smallest power of two >= n. */
uint64_t
nextPow2(uint64_t n)
{
    uint64_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/**
 * Size of the seq-indexed in-flight ring. Live sequence numbers span
 * at most the machine's µ-op capacity times two (a fused µ-op holds
 * two arch seqs), so doubling that again guarantees no two live seqs
 * ever map to the same slot; inflightInsert asserts it anyway.
 */
uint64_t
inflightRingSize(const CoreParams &p)
{
    const uint64_t uop_capacity =
        uint64_t(p.frontendDepth + 5) * p.fetchWidth + p.aqSize +
        2 * p.dispatchWidth + p.renameWidth + p.robSize + p.sqSize;
    return nextPow2(2 * (2 * uop_capacity) + p.fetchWidth + 64);
}

/** Extra cycles a load pays when a store covers only part of it. */
constexpr unsigned partialForwardPenalty = 10;

/**
 * Longest issue-to-completion latency CoreParams allows: the slowest
 * functional unit, a partially forwarded load, or a line-crossing load
 * that misses to memory (see issueStage and loadHalfLatency).
 */
uint64_t
maxCompletionLatency(const CoreParams &p)
{
    const unsigned access =
        std::max({p.l1Latency, p.l2Latency, p.l3Latency, p.memLatency});
    return std::max({1u, p.aluLatency, p.mulLatency, p.divLatency,
                     p.forwardLatency + partialForwardPenalty,
                     access + p.lineCrossPenalty});
}

bool
rangesOverlap(uint64_t a_begin, uint64_t a_end, uint64_t b_begin,
              uint64_t b_end)
{
    return a_begin < b_end && b_begin < a_end;
}

bool
sameMemKind(const Uop *a, const Uop *b)
{
    return (a->isLoad() && b->isLoad()) ||
           (a->isStore() && b->isStore());
}

} // namespace

Pipeline::HotStats
Pipeline::bindHotStats(StatGroup &group)
{
    return {
        group.counter("fetch.uops"),
        group.counter("fetch.blocked_cycles"),
        group.counter("fetch.mispredict_stall_cycles"),
        group.counter("rename.uops"),
        group.counter("rename.stall.aq_empty"),
        group.counter("rename.stall.dispatch_backlog"),
        group.counter("dispatch.uops"),
        group.counter("issue.uops"),
        group.counter("exec.loads"),
        group.counter("exec.stores"),
        group.counter("stlf.forwards"),
        group.counter("stlf.partial"),
        group.counter("exec.line_crossers"),
        group.counter("commit.insts"),
        group.counter("commit.uops"),
        group.counter("commit.loads"),
        group.counter("commit.stores"),
        group.counter("cpi.retiring"),
    };
}

Pipeline::Pipeline(const CoreParams &p, InstructionFeed &f)
    : params(p), feed(f), hot(bindHotStats(statGroup)),
      caches(params), uopPool(p.poolRecycling),
      decodePipe(p.frontendDepth + 5),
      aq(p.aqSize),
      renamedQueue(2 * p.dispatchWidth + p.renameWidth),
      rob(p.robSize), lqList(p.lqSize), sqList(p.sqSize),
      drainQueue(p.sqSize)
{
    const uint64_t ring = inflightRingSize(p);
    inflightSlots.resize(ring, nullptr);
    unresolvedKind.resize(ring, unresolvedNone);
    inflightMask = ring - 1;
    // Events are due 1..maxCompletionLatency cycles ahead, so a wheel
    // with more slots than that never wraps onto a pending cycle.
    wheel.resize(nextPow2(maxCompletionLatency(p) + 1), noEvent);
    wheelMask = wheel.size() - 1;
    // OracleFusion names its heads from addresses and learns nothing.
    if (params.fusion == FusionMode::Helios) {
        if (params.fpKind == FpKind::Tage)
            fusionPred = std::make_unique<TageFusionPredictor>();
        else
            fusionPred = std::make_unique<FusionPredictor>();
    }
    rat.resize(numArchRegs);
    for (RatEntry &entry : rat)
        entry.producerSeq = invalidSeq;

    if (params.sampleHistograms) {
        // Occupancy in 32 linear buckets per structure; distance and
        // agreement with layouts matched to their ranges. References
        // into statGroup stay valid for the pipeline's lifetime.
        auto occupancy = [this](const char *name, unsigned size) {
            return &statGroup.histogram(
                name,
                Histogram::linear(size, std::max(1u, size / 32)));
        };
        histRob = occupancy("occupancy.rob", params.robSize);
        histIq = occupancy("occupancy.iq", params.iqSize);
        histLq = occupancy("occupancy.lq", params.lqSize);
        histSq = occupancy("occupancy.sq", params.sqSize);
        histPairDistance = &statGroup.histogram(
            "fusion.pair_distance",
            Histogram::linear(params.maxFusionDistance, 1));
        histFpAgreement = &statGroup.histogram(
            "fusion.fp_agreement", Histogram::linear(2, 1));
    }

    if (params.profile) {
        profiler = std::make_unique<FusionProfiler>(params);
        attach(profiler.get());
    }
}

Pipeline::~Pipeline() = default;

void
Pipeline::inflightInsert(Uop *uop)
{
    Uop *&slot = inflightSlots[uop->seq & inflightMask];
    helios_assert(!slot, "in-flight seq ring collision");
    slot = uop;
    ++inflightCount;
    if (uop->seq > maxFetchedSeq)
        maxFetchedSeq = uop->seq;
}

/** Unlink from the index; the caller decides the record's fate
 *  (release to the pool, or move to the drain queue). */
Uop *
Pipeline::inflightErase(uint64_t seq)
{
    Uop *&slot = inflightSlots[seq & inflightMask];
    helios_assert(slot && slot->seq == seq,
                  "erasing a seq that is not in flight");
    Uop *uop = slot;
    slot = nullptr;
    --inflightCount;
    return uop;
}

/** Insert into the ready list keeping ascending seq order. Newly
 *  ready µ-ops are usually the youngest, so the walk from the tail
 *  terminates almost immediately. */
void
Pipeline::readyInsert(Uop *uop)
{
    uop->inReadyList = true;
    Uop *at = readyTail;
    while (at && at->seq > uop->seq)
        at = at->readyPrev;
    if (!at) {
        uop->readyPrev = nullptr;
        uop->readyNext = readyHead;
        if (readyHead)
            readyHead->readyPrev = uop;
        else
            readyTail = uop;
        readyHead = uop;
    } else {
        uop->readyPrev = at;
        uop->readyNext = at->readyNext;
        if (at->readyNext)
            at->readyNext->readyPrev = uop;
        else
            readyTail = uop;
        at->readyNext = uop;
    }
}

void
Pipeline::readyRemove(Uop *uop)
{
    (uop->readyPrev ? uop->readyPrev->readyNext : readyHead) =
        uop->readyNext;
    (uop->readyNext ? uop->readyNext->readyPrev : readyTail) =
        uop->readyPrev;
    uop->readyPrev = nullptr;
    uop->readyNext = nullptr;
    uop->inReadyList = false;
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
Pipeline::fetchStage()
{
    if (cycle < fetchBlockedUntil) {
        hot.fetchBlocked++;
        return;
    }
    if (fetchStallSeq != invalidSeq) {
        hot.fetchMispredictStall++;
        return;
    }
    if (decodePipe.size() >= params.frontendDepth + 4)
        return;

    DecodeGroup &group = decodePipe.emplace_back();
    group.uops.clear();
    group.consumed = 0;
    group.fused = false;
    group.readyCycle = cycle + params.frontendDepth;
    for (unsigned i = 0; i < params.fetchWidth; ++i) {
        DynInst dyn;
        if (!replayQueue.empty()) {
            dyn = replayQueue.front();
            replayQueue.pop_front();
        } else if (feedExhausted) {
            break;
        } else if (!feed.next(dyn)) {
            feedExhausted = true;
            break;
        }

        Uop *uop = uopPool.alloc();
        uop->seq = dyn.seq;
        uop->uid = nextUid++;
        uop->dyn = dyn;
        uop->fetchCycle = cycle;
        uop->fetchHistory = bpred.fusionHistory();
        inflightInsert(uop);
        group.uops.push_back(uop);
        notify(&PipelineObserver::onFetch, *uop, cycle);
        hot.fetchUops++;
        if (dyn.inst.isStore()) {
            helios_assert(unresolvedKind[dyn.seq & inflightMask] ==
                              unresolvedNone,
                          "unresolved ring collision");
            unresolvedKind[dyn.seq & inflightMask] = unresolvedStore;
        } else if (dyn.inst.isLoad()) {
            helios_assert(unresolvedKind[dyn.seq & inflightMask] ==
                              unresolvedNone,
                          "unresolved ring collision");
            unresolvedKind[dyn.seq & inflightMask] = unresolvedLoad;
        }

        // Instruction cache: charge a stall when a new line misses.
        const uint64_t line = dyn.pc / params.lineBytes;
        if (line != lastFetchLine) {
            lastFetchLine = line;
            const unsigned lat = caches.instAccess(line);
            if (lat > 0) {
                fetchBlockedUntil = cycle + lat;
                break;
            }
        }

        if (dyn.inst.isControl()) {
            const bool correct = bpred.predictAndCheck(
                dyn.pc, dyn.inst, dyn.taken, dyn.nextPc);
            if (!correct) {
                uop->mispredictedBranch = true;
                fetchStallSeq = dyn.seq;
                break;
            }
            // Decoupled front end: correctly predicted taken
            // branches redirect fetch without ending the group (the
            // paper's 8-wide fetch keeps the AQ full even in small
            // loops). The target line is charged by the next µ-op's
            // instruction-cache check.
        }
    }

    if (group.uops.empty())
        decodePipe.pop_back();
}

// ---------------------------------------------------------------------
// Decode: consecutive fusion + AQ insertion + predicted fusion
// ---------------------------------------------------------------------

void
Pipeline::applyConsecutiveFusion(std::vector<Uop *> &group)
{
    const FusionMode mode = params.fusion;
    if (mode == FusionMode::None)
        return;

    std::vector<Uop *> &out = fuseScratch;
    out.clear();
    size_t i = 0;
    while (i < group.size()) {
        Uop *head = group[i];
        if (i + 1 < group.size()) {
            Uop *tail = group[i + 1];
            const Idiom idiom =
                matchIdiom(head->dyn.inst, tail->dyn.inst);
            bool enabled = false;
            switch (mode) {
              case FusionMode::RiscvFusion:
                enabled = idiom != Idiom::None && !isMemoryIdiom(idiom);
                break;
              case FusionMode::CsfSbr:
                enabled = isMemoryIdiom(idiom);
                break;
              case FusionMode::RiscvFusionPP:
              case FusionMode::Helios:
              case FusionMode::Oracle:
                enabled = idiom != Idiom::None;
                break;
              default:
                break;
            }
            if (enabled && !head->mispredictedBranch) {
                head->fusion = isMemoryIdiom(idiom) ? FusionKind::CsfMem
                                                    : FusionKind::CsfOther;
                head->idiom = idiom;
                head->hasTail = true;
                head->tailDyn = tail->dyn;
                notify(&PipelineObserver::onFusePair, *head, tail->dyn,
                       head->fusion, /*absorbed=*/true, cycle);
                uopPool.release(inflightErase(tail->seq));
                out.push_back(head);
                i += 2;
                continue;
            }
        }
        out.push_back(head);
        ++i;
    }
    group.swap(out);
}

void
Pipeline::resolveFusion(const FpPrediction &pred, bool correct)
{
    // OracleFusion has no predictor to train.
    if (fusionPred)
        fusionPred->resolve(pred, correct);
}

bool
Pipeline::tryPredictedFusion(Uop *tail)
{
    const FpPrediction &pred = tail->fpPred;
    if (!pred.valid)
        return false;
    literalCounter("fusion.fp_attempts")++;
    notify(&PipelineObserver::onPredictorAttempt, tail->dyn.pc);

    if (tail->fusion != FusionKind::None || tail->isTailMarker)
        return false;
    if (pred.distance > tail->seq)
        return false;

    Uop *head = findInflight(tail->seq - pred.distance);
    // Only the rules that need no address apply here: the predicted
    // region is validated at issue (case 5, Section IV-C).
    const NcsfRules rules{params.fusionRegionBytes,
                          params.fuseDbrStorePairs};
    const NcsfBreak broken =
        head ? rules.broken(head->dyn, tail->dyn) : NcsfBreak::MixedKinds;
    if (!head || !head->inAq || head->isTailMarker ||
        head->fusion != FusionKind::None || head->hasTail ||
        broken == NcsfBreak::MixedKinds) {
        literalCounter("fusion.fp_no_head")++;
        return false;
    }
    // Different-base-register store pairs are not supported by
    // default (Section IV-B: 0.54% of fused stores).
    if (broken == NcsfBreak::DbrStorePair) {
        literalCounter("fusion.fp_store_dbr")++;
        return false;
    }
    if (broken == NcsfBreak::HeadWritesBase) {
        literalCounter("fusion.fp_dependent")++;
        return false;
    }

    head->hasTail = true;
    head->tailDyn = tail->dyn;
    head->fusion = FusionKind::NcsfMem;
    head->ncsReady = false;
    head->fpInitiated = true;
    head->fpPred = pred;
    head->pairSeq = tail->seq;

    tail->isTailMarker = true;
    tail->pairSeq = head->seq;

    notify(&PipelineObserver::onFusePair, *head, tail->dyn,
           FusionKind::NcsfMem, /*absorbed=*/false, cycle);
    ++pendingNcsf;
    literalCounter("fusion.fp_applied")++;
    literalCounter("fusion.fp_distance_sum") += pred.distance;
    if (histFpAgreement && fusionPred) {
        // Component agreement at the fuse decision: how many of the
        // tournament components backed the distance we acted on.
        unsigned agreeing = 0;
        if (pred.localValid && pred.localDistance == pred.distance)
            ++agreeing;
        if (pred.globalValid && pred.globalDistance == pred.distance)
            ++agreeing;
        histFpAgreement->addSample(agreeing);
    }
    return true;
}

namespace
{

/**
 * Exact register-dependence walk over a catalyst window: does any
 * source of @a tail (transitively) depend on a destination of
 * @a head, through the catalyst µ-ops supplied by @a visit?
 *
 * This computes the precise outcome of the paper's Deadlock-Tag
 * hardware (Section IV-B2); the real tags are a conservative one-hot
 * approximation that may also yield false positives.
 */
class TaintWalk
{
  public:
    explicit TaintWalk(const Uop *head) : headSeq(head->seq)
    {
        if (head->dyn.inst.writesReg())
            taintReg(head->dyn.inst.rd);
        // The tail nucleus' destination is invisible to the catalyst
        // (WaR deferral), so only the head's register output seeds the
        // register taint; memory (store-set) wakeup edges on the head
        // are tracked through taintedSeqs.
    }

    void
    step(const Uop *u)
    {
        const Instruction &inst = u->dyn.inst;
        bool depends =
            (inst.readsRs1() && isTainted(inst.rs1)) ||
            (inst.readsRs2() && isTainted(inst.rs2));
        if (u->hasTail) {
            const Instruction &t = u->tailDyn.inst;
            depends |= (t.readsRs1() && isTainted(t.rs1)) ||
                       (t.readsRs2() && isTainted(t.rs2));
        }
        // Memory-dependence wakeup edge: a catalyst load made to wait
        // on the head (or on a tainted catalyst store) by the
        // store-set predictor depends on the head for scheduling.
        if (u->waitStoreSeq == headSeq || seqTainted(u->waitStoreSeq))
            depends = true;

        if (depends)
            taintedSeqs.push_back(u->seq);

        if (inst.writesReg()) {
            if (depends)
                taintReg(inst.rd);
            else
                clearReg(inst.rd);
        }
        if (u->hasTail && u->tailDyn.inst.writesReg() &&
            u->fusion != FusionKind::NcsfMem) {
            // CSF pairs produce the tail value in place; a pending
            // NCSF tail destination stays owned by the old producer.
            if (depends)
                taintReg(u->tailDyn.inst.rd);
            else
                clearReg(u->tailDyn.inst.rd);
        }
    }

    bool
    tailDepends(const Instruction &tail) const
    {
        if (tail.readsRs1() && isTainted(tail.rs1))
            return true;
        return tail.readsRs2() && isTainted(tail.rs2);
    }

  private:
    void
    taintReg(unsigned reg)
    {
        if (reg != RegZero)
            tainted |= 1u << reg;
    }

    void clearReg(unsigned reg) { tainted &= ~(1u << reg); }
    bool isTainted(unsigned reg) const { return (tainted >> reg) & 1; }

    bool
    seqTainted(uint64_t seq) const
    {
        for (uint64_t tainted_seq : taintedSeqs)
            if (tainted_seq == seq)
                return true;
        return false;
    }

    uint64_t headSeq;
    uint32_t tainted = 0;
    std::vector<uint64_t> taintedSeqs;
};

/** Byte range and program position of one store nucleus. */
struct StoreNucleus
{
    uint64_t seq = 0;
    uint64_t begin = 0;
    uint64_t end = 0;
};

/**
 * Expand a store µ-op into its store nuclei (one, or two when a store
 * pair fused). Memory-order logic must work per nucleus: the combined
 * [memBegin, memEnd) of a non-consecutive pair covers catalyst bytes
 * neither store writes, and the tail nucleus keeps its own (younger)
 * program position.
 */
int
storeNuclei(const Uop &uop, StoreNucleus out[2])
{
    int count = 0;
    if (uop.dyn.inst.isStore())
        out[count++] = {uop.seq, uop.dyn.effAddr,
                        uop.dyn.effAddr + uop.dyn.memSize()};
    if (uop.hasTail && uop.tailDyn.inst.isStore())
        out[count++] = {uop.tailDyn.seq, uop.tailDyn.effAddr,
                        uop.tailDyn.effAddr + uop.tailDyn.memSize()};
    return count;
}

} // namespace

bool
Pipeline::tailDependsOnCatalystLoad(const Uop *head,
                                    const Uop *marker) const
{
    uint32_t tainted = 0;
    auto is_tainted = [&tainted](unsigned reg) {
        return reg != RegZero && ((tainted >> reg) & 1);
    };
    for (uint64_t seq = head->seq + 1; seq < marker->seq; ++seq) {
        const Uop *u = findInflight(seq);
        if (!u)
            continue;
        if (u->isTailMarker) {
            // The marker stands for a real load (the tail nucleus of
            // another pair): its destination is load-produced.
            if (u->dyn.inst.writesReg())
                tainted |= 1u << u->dyn.inst.rd;
            continue;
        }
        const Instruction &inst = u->dyn.inst;
        const bool reads_tainted =
            (inst.readsRs1() && is_tainted(inst.rs1)) ||
            (inst.readsRs2() && is_tainted(inst.rs2));
        const bool produces_load = u->isLoad();
        if (inst.writesReg()) {
            if (produces_load || reads_tainted)
                tainted |= 1u << inst.rd;
            else
                tainted &= ~(1u << inst.rd);
        }
        if (u->hasTail && u->tailDyn.inst.writesReg() &&
            u->fusion != FusionKind::NcsfMem) {
            if (produces_load || reads_tainted)
                tainted |= 1u << u->tailDyn.inst.rd;
            else
                tainted &= ~(1u << u->tailDyn.inst.rd);
        }
    }
    const Instruction &tail = marker->dyn.inst;
    if (tail.readsRs1() && is_tainted(tail.rs1))
        return true;
    return tail.readsRs2() && is_tainted(tail.rs2);
}

bool
Pipeline::heliosDependent(const Uop *head, const Uop *marker) const
{
    TaintWalk walk(head);
    // Catalyst µ-ops renamed before the marker live in the ROB or the
    // rename->dispatch buffer; CSF'd tails are folded into their
    // heads, so walking the seq range finds every writer.
    for (uint64_t seq = head->seq + 1; seq < marker->seq; ++seq) {
        const Uop *u = findInflight(seq);
        if (!u || u->isTailMarker)
            continue;
        walk.step(u);
    }
    return walk.tailDepends(marker->dyn.inst);
}

/**
 * OracleFusion's predictor: the head a fully trained UCH would name for
 * @a tail, a memory µ-op about to enter the AQ. That is the nearest
 * older access of the same kind to the tail's cache line that the NCSF
 * rules accept and that renameMarker would not unfuse; the pair then
 * takes Helios's own path, so the two modes differ only in what names
 * the head.
 */
FpPrediction
Pipeline::oracleLookup(const Uop *tail) const
{
    const DynInst &t = tail->dyn;
    const uint64_t line = t.effAddr / params.lineBytes;
    const NcsfRules rules{params.fusionRegionBytes,
                          params.fuseDbrStorePairs};
    // The AQ is seq-ordered, so each candidate's catalyst is exactly
    // the entries this walk has already passed.
    for (size_t index = aq.size(); index-- > 0;) {
        const Uop *cand = aq[index];
        const uint64_t distance = t.seq - cand->seq;
        // A serializing catalyst µ-op unfuses every pair around it.
        if (distance > params.maxFusionDistance ||
            cand->dyn.inst.isSerializing())
            break;
        if (!cand->isTailMarker && sameMemKind(cand, tail)) {
            if (cand->fusion == FusionKind::None && !cand->hasTail &&
                cand->dyn.effAddr / params.lineBytes == line &&
                rules.pairable(cand->dyn, t) &&
                !heliosDependent(cand, tail) &&
                !tailDependsOnCatalystLoad(cand, tail)) {
                FpPrediction pred;
                pred.valid = true;
                pred.distance = unsigned(distance);
                return pred;
            }
            // A store in a store pair's catalyst unfuses the pair.
            if (tail->isStore())
                break;
        }
        if (NcsfRules::blocksHoist(cand->dyn, t) ||
            (cand->hasTail && NcsfRules::blocksHoist(cand->tailDyn, t)))
            break;
    }
    return {};
}

void
Pipeline::aqInsertStage()
{
    while (!decodePipe.empty() &&
           decodePipe.front().readyCycle <= cycle) {
        DecodeGroup &grp = decodePipe.front();
        // Exactly once per group: a rerun on the remainder of an
        // AQ-stalled group could pair an already-fused head with the
        // next µ-op and silently drop its first absorbed tail.
        if (!grp.fused) {
            applyConsecutiveFusion(grp.uops);
            grp.fused = true;
        }

        while (grp.consumed < grp.uops.size()) {
            if (aq.size() >= params.aqSize) {
                literalCounter("decode.stall.aq_full")++;
                return;
            }
            Uop *uop = grp.uops[grp.consumed++];

            // Fusion-predictor lookup at Decode: Helios asks its
            // tournament predictor, OracleFusion the address oracle.
            if (uop->isMem() && uop->fusion == FusionKind::None) {
                if (params.fusion == FusionMode::Helios)
                    uop->fpPred = fusionPred->lookup(uop->dyn.pc,
                                                     uop->fetchHistory);
                else if (params.fusion == FusionMode::Oracle)
                    uop->fpPred = oracleLookup(uop);
            }

            uop->inAq = true;
            uop->aqCycle = cycle;
            // The oracle's walk and squash's chop() both rely on the AQ
            // holding µ-ops in ascending seq order.
            helios_assert(aq.empty() || aq.back()->seq < uop->seq,
                          "AQ out of program order");
            aq.push_back(uop);

            if (uop->fpPred.valid)
                tryPredictedFusion(uop);
        }
        decodePipe.pop_front();
    }
}

// ---------------------------------------------------------------------
// Rename
// ---------------------------------------------------------------------

bool
Pipeline::attachDependency(Uop *consumer, uint64_t producer_seq,
                           int reg)
{
    if (producer_seq == invalidSeq)
        return false;
    Uop *producer = findInflight(producer_seq);
    if (!producer || producer->done)
        return false;
    // The paper requires fused pairs to deliver their two destination
    // registers to dependents independently (Section II-B): route the
    // dependency to the producing half. reg < 0 (non-register
    // dependences, e.g. store sets) waits for full completion.
    const bool tail_half = reg >= 0 && producer->hasTail &&
                           producer->tailDyn.inst.writesReg() &&
                           producer->tailDyn.inst.rd == unsigned(reg);
    const bool head_half = reg >= 0 && !tail_half &&
                           producer->dyn.inst.writesReg() &&
                           producer->dyn.inst.rd == unsigned(reg);
    if (tail_half) {
        if (producer->tailDone)
            return false;
        producer->dependentsTail.push_back(consumer->seq);
    } else if (head_half) {
        if (producer->headDone)
            return false;
        producer->dependents.push_back(consumer->seq);
    } else {
        // Wait for full completion (final event wakes head list).
        producer->dependents.push_back(consumer->seq);
    }
    ++consumer->notReady;
    return true;
}

void
Pipeline::addSourceDependency(Uop *uop, unsigned reg)
{
    if (reg == RegZero)
        return;
    attachDependency(uop, rat[reg].producerSeq, int(reg));
}

void
Pipeline::addStoreSetDependency(Uop *uop)
{
    uint64_t store_seq = storeSets.loadDependence(uop->dyn.pc);
    if (uop->hasTail && uop->tailDyn.inst.isLoad()) {
        const uint64_t tail_dep =
            storeSets.loadDependence(uop->tailDyn.pc);
        if (store_seq == StoreSets::invalidSeq ||
            (tail_dep != StoreSets::invalidSeq && tail_dep > store_seq))
            store_seq = tail_dep;
    }
    if (store_seq == StoreSets::invalidSeq || store_seq >= uop->seq)
        return;
    if (attachDependency(uop, store_seq, -1)) {
        uop->waitStoreSeq = store_seq;
        literalCounter("storeset.dependencies")++;
    }
}

void
Pipeline::renameNormal(Uop *uop)
{
    const Instruction &inst = uop->dyn.inst;
    bool helios_pending = uop->fusion == FusionKind::NcsfMem &&
                          uop->fpInitiated;

    // Max Active NCS saturation: a head nucleus entering Rename while
    // the nest levels are all busy behaves as unfused, and the tail
    // nucleus reverts to a regular µ-op in the AQ (Section IV-B2).
    if (helios_pending &&
        activeNcsHeads.size() >= params.ncsfNestDepth) {
        Uop *marker = findInflight(uop->pairSeq);
        helios_assert(marker && marker->isTailMarker,
                      "nest-unfuse lost its marker");
        notify(&PipelineObserver::onUnfuse, *uop, uop->pairSeq, cycle);
        marker->isTailMarker = false;
        marker->pairSeq = 0;
        marker->fpPred.valid = false;
        uop->hasTail = false;
        uop->fusion = FusionKind::None;
        uop->ncsReady = true;
        uop->fpInitiated = false;
        uop->pairSeq = 0;
        helios_assert(pendingNcsf > 0, "pendingNcsf underflow");
        --pendingNcsf;
        literalCounter("fusion.fp_nest_limited")++;
        if (marker->profBreak == ProfBreak::None)
            marker->profBreak = ProfBreak::NestLimit;
        if (uop->profBreak == ProfBreak::None)
            uop->profBreak = ProfBreak::NestLimit;
        notify(&PipelineObserver::onPredictorBreak, marker->dyn.pc,
               ProfBreak::NestLimit);
        helios_pending = false;
    }

    // ---- catalyst flags for active NCSF nests (Section IV-B) ----
    if (!activeNcsHeads.empty()) {
        if (uop->isStore()) {
            for (Uop *head : activeNcsHeads)
                if (head->isStore())
                    head->storeInCatalyst = true;
        }
        if (inst.isSerializing()) {
            for (Uop *head : activeNcsHeads)
                head->serializingInCatalyst = true;
        }
    }

    // ---- sources ----
    if (inst.readsRs1())
        addSourceDependency(uop, inst.rs1);
    if (inst.readsRs2())
        addSourceDependency(uop, inst.rs2);
    if (uop->hasTail && !helios_pending) {
        const Instruction &t = uop->tailDyn.inst;
        switch (uop->fusion) {
          case FusionKind::CsfMem:
            if (t.readsRs1() && t.rs1 != inst.rs1)
                addSourceDependency(uop, t.rs1);
            if (t.isStore() && t.readsRs2())
                addSourceDependency(uop, t.rs2);
            break;
          case FusionKind::CsfOther:
            // The idiom's internal register is produced inside the
            // fused µ-op; only external sources count.
            if (t.readsRs1() && t.rs1 != inst.rd)
                addSourceDependency(uop, t.rs1);
            if (t.readsRs2() && t.rs2 != inst.rd)
                addSourceDependency(uop, t.rs2);
            break;
          default:
            break;
        }
    }

    // ---- memory dependence prediction ----
    if (uop->isLoad())
        addStoreSetDependency(uop);
    if (uop->isStore()) {
        // Store-store chaining (Chrysos & Emer): stores of a set
        // execute in order so that a load's single LFST dependence
        // covers all older same-set stores.
        const uint64_t previous =
            storeSets.storeRenamed(uop->dyn.pc, uop->seq);
        if (previous < uop->seq &&
            attachDependency(uop, previous, -1))
            literalCounter("storeset.chained")++;
    }

    // ---- destinations & RAT ----
    unsigned dests = 0;
    if (inst.writesReg()) {
        rat[inst.rd].producerSeq = uop->seq;
        ++dests;
    }
    if (uop->hasTail && uop->tailDyn.inst.writesReg()) {
        const uint8_t tail_rd = uop->tailDyn.inst.rd;
        switch (uop->fusion) {
          case FusionKind::CsfMem:
            // Consecutive: no catalyst, RAT updates immediately.
            rat[tail_rd].producerSeq = uop->seq;
            uop->tailRenamed = true;
            ++dests;
            break;
          case FusionKind::CsfOther:
            // Idioms write a single architectural register (tail.rd ==
            // head.rd), already counted above.
            uop->tailRenamed = true;
            break;
          case FusionKind::NcsfMem:
            // WaR deferral: RAT update happens when the tail marker
            // renames (Section IV-B2). The physical register is
            // allocated now.
            ++dests;
            break;
          default:
            break;
        }
    }
    uop->numDests = dests;
    allocatedRegs += dests;

    // ---- activate a Helios NCSF nest ----
    if (helios_pending)
        activeNcsHeads.push_back(uop);

    uop->renamed = true;
}

bool
Pipeline::renameMarker(Uop *marker)
{
    Uop *head = findInflight(marker->pairSeq);
    helios_assert(head && head->hasTail && !head->ncsReady,
                  "tail marker without pending head");

    const Instruction &tail = marker->dyn.inst;

    // Deadlock detection (load pairs only: store pairs write nothing).
    // The hardware uses the Deadlock-Tag propagation of Section IV-B2;
    // the simulator computes its precise outcome with an exact walk.
    if (heliosDependent(head, marker)) {
        marker->mustUnfuse = true;
        literalCounter("fusion.unfuse_deadlock")++;
        if (marker->profBreak == ProfBreak::None) {
            marker->profBreak = ProfBreak::Deadlock;
            notify(&PipelineObserver::onPredictorBreak, marker->dyn.pc,
                   ProfBreak::Deadlock);
        }
    }
    if (head->isStore() && head->storeInCatalyst) {
        marker->mustUnfuse = true;
        literalCounter("fusion.unfuse_store_catalyst")++;
        if (marker->profBreak == ProfBreak::None) {
            marker->profBreak = ProfBreak::StoreCatalyst;
            notify(&PipelineObserver::onPredictorBreak, marker->dyn.pc,
                   ProfBreak::StoreCatalyst);
        }
    }
    if (head->serializingInCatalyst) {
        marker->mustUnfuse = true;
        literalCounter("fusion.unfuse_serializing")++;
        if (marker->profBreak == ProfBreak::None) {
            marker->profBreak = ProfBreak::Serializing;
            notify(&PipelineObserver::onPredictorBreak, marker->dyn.pc,
                   ProfBreak::Serializing);
        }
    }

    // Capture the program-order-correct producers of the tail sources.
    if (tail.readsRs1())
        marker->tailProducers.push_back(rat[tail.rs1].producerSeq);
    if (tail.isStore() && tail.readsRs2())
        marker->tailProducers.push_back(rat[tail.rs2].producerSeq);

    // Refinement over the paper: when a tail source hangs off a LOAD
    // inside the catalyst (a pointer-chase step), the fused µ-op
    // cannot issue until that load returns — the head gains nothing
    // and loses its early issue. Such pairs are unfused; ALU-fed
    // catalyst RaWs keep their fusion, preserving the paper's
    // RaW-in-catalyst support.
    if (!marker->mustUnfuse &&
        tailDependsOnCatalystLoad(head, marker)) {
        marker->mustUnfuse = true;
        literalCounter("fusion.unfuse_late_raw")++;
        if (marker->profBreak == ProfBreak::None) {
            marker->profBreak = ProfBreak::LateRaw;
            notify(&PipelineObserver::onPredictorBreak, marker->dyn.pc,
                   ProfBreak::LateRaw);
        }
    }

    if (tail.writesReg()) {
        if (marker->mustUnfuse) {
            // The tail will re-dispatch as its own µ-op: younger
            // µ-ops must see it as the producer.
            rat[tail.rd].producerSeq = marker->seq;
        } else {
            // Deferred RAT update for the tail destination (the
            // paper's WaR buffer, Section IV-B2).
            rat[tail.rd].producerSeq = head->seq;
            head->tailRenamed = true;
        }
    }

    // Nest teardown.
    auto it = std::find(activeNcsHeads.begin(), activeNcsHeads.end(),
                        head);
    if (it != activeNcsHeads.end())
        activeNcsHeads.erase(it);
    helios_assert(pendingNcsf > 0, "pendingNcsf underflow");
    --pendingNcsf;

    marker->renamed = true;
    return true;
}

void
Pipeline::renameStage()
{
    unsigned renamed = 0;
    if (aq.empty()) {
        hot.renameAqEmpty++;
        return;
    }
    while (renamed < params.renameWidth && !aq.empty()) {
        // Rename stalls when the rename->dispatch skid buffer backs
        // up; physical registers must not be hoarded by µ-ops that
        // cannot dispatch yet.
        if (renamedQueue.size() >= 2 * params.dispatchWidth) {
            hot.renameBacklog++;
            return;
        }
        Uop *uop = aq.front();
        if (uop->isTailMarker) {
            renameMarker(uop);
        } else {
            unsigned dests = uop->dyn.inst.writesReg() ? 1 : 0;
            if (uop->hasTail && uop->tailDyn.inst.writesReg() &&
                uop->fusion != FusionKind::CsfOther)
                ++dests;
            if (allocatedRegs + dests >
                params.numPhysRegs - numArchRegs) {
                literalCounter("rename.stall.prf")++;
                return;
            }
            renameNormal(uop);
        }
        uop->inAq = false;
        uop->renameCycle = cycle;
        aq.pop_front();
        renamedQueue.push_back(uop);
        ++renamed;
        hot.renameUops++;
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

void
Pipeline::unfuseInPlace(Uop *head)
{
    helios_assert(!head->issued, "unfusing an issued µ-op");
    head->fusion = FusionKind::None;
    head->hasTail = false;
    head->ncsReady = true;
    head->fpInitiated = false;
    if (head->tailDyn.inst.writesReg() && head->numDests > 0) {
        // Release the tail's physical register.
        --head->numDests;
        --allocatedRegs;
    }
    literalCounter("fusion.unfused")++;
}

void
Pipeline::maybeReady(Uop *uop)
{
    if (uop->dispatched && uop->ncsReady && !uop->issued &&
        !uop->done && uop->notReady == 0 && !uop->isTailMarker &&
        !uop->inReadyList)
        readyInsert(uop);
}

void
Pipeline::dispatchStage()
{
    unsigned slots = params.dispatchWidth;
    while (slots > 0 && !renamedQueue.empty()) {
        Uop *uop = renamedQueue.front();

        if (uop->isTailMarker) {
            Uop *head = findInflight(uop->pairSeq);
            helios_assert(head, "marker lost its head");

            if (uop->mustUnfuse) {
                // The tail re-dispatches as its own µ-op: two dispatch
                // slots plus fresh ROB/IQ/LQ/SQ entries.
                if (slots < 2 ||
                    !backendHasRoom(uop->dyn.isLoad(), uop->dyn.isStore()))
                    return;
                if (allocatedRegs + 1 >
                    params.numPhysRegs - numArchRegs) {
                    literalCounter("dispatch.stall.prf")++;
                    return;
                }

                notify(&PipelineObserver::onUnfuse, *head, uop->seq, cycle);
                unfuseInPlace(head);
                maybeReady(head);
                resolveFusion(head->fpPred, false);
                literalCounter("fusion.mispredicts")++;
                if (head->profBreak == ProfBreak::None)
                    head->profBreak = uop->profBreak;
                notify(&PipelineObserver::onPredictorMispredict,
                       uop->dyn.pc);

                // Convert the marker into a real µ-op.
                uop->isTailMarker = false;
                uop->pairSeq = 0;
                uop->ncsReady = true;
                if (uop->dyn.inst.writesReg()) {
                    // RAT already points at the marker (renameMarker).
                    uop->numDests = 1;
                    ++allocatedRegs;
                }
                for (uint64_t producer_seq : uop->tailProducers)
                    attachDependency(uop, producer_seq, -1);
                if (uop->dyn.isLoad())
                    addStoreSetDependency(uop);
                if (uop->dyn.isStore()) {
                    // renameNormal's store-set chain, left uncounted.
                    const uint64_t previous =
                        storeSets.storeRenamed(uop->dyn.pc, uop->seq);
                    if (previous < uop->seq)
                        attachDependency(uop, previous, -1);
                }

                uop->renamed = true;
                enterBackend(uop);
                slots -= 2;
                continue;
            }

            // Validation: repair/complete the head's tail sources and
            // set NCS Ready (one dispatch slot, Section IV-B2).
            {
                size_t index = 0;
                const Instruction &t = uop->dyn.inst;
                if (t.readsRs1() && index < uop->tailProducers.size())
                    attachDependency(head, uop->tailProducers[index++],
                                     t.rs1);
                if (t.isStore() && t.readsRs2() &&
                    index < uop->tailProducers.size())
                    attachDependency(head, uop->tailProducers[index++],
                                     t.rs2);
            }
            head->ncsReady = true;
            maybeReady(head);
            literalCounter("fusion.validated")++;
            renamedQueue.pop_front();
            notify(&PipelineObserver::onTailAbsorbed, uop->seq, head->seq,
                   cycle);
            uopPool.release(inflightErase(uop->seq));
            --slots;
            continue;
        }

        // ---- regular µ-op ----
        if (!backendHasRoom(uop->isLoad(), uop->isStore()))
            return;
        enterBackend(uop);
        --slots;
        hot.dispatchUops++;
    }
}

bool
Pipeline::backendHasRoom(bool load, bool store)
{
    if (rob.size() >= params.robSize) {
        literalCounter("dispatch.stall.rob")++;
        return false;
    }
    if (iqCount >= params.iqSize) {
        literalCounter("dispatch.stall.iq")++;
        return false;
    }
    if (load && lqList.size() >= params.lqSize) {
        literalCounter("dispatch.stall.lq")++;
        return false;
    }
    if (store && sqList.size() + drainQueue.size() >= params.sqSize) {
        literalCounter("dispatch.stall.sq")++;
        return false;
    }
    return true;
}

void
Pipeline::enterBackend(Uop *uop)
{
    rob.push_back(uop);
    ++iqCount;
    uop->inIq = true;
    uop->dispatchCycle = cycle;
    if (uop->isLoad())
        lqList.push_back(uop);
    if (uop->isStore())
        sqList.push_back(uop);
    uop->dispatched = true;
    maybeReady(uop);
    renamedQueue.pop_front();
}

// ---------------------------------------------------------------------
// Issue & execute
// ---------------------------------------------------------------------

bool
Pipeline::validateFusedAddresses(Uop *uop)
{
    uop->computeMemRange();
    return uop->memEnd - uop->memBegin <= params.fusionRegionBytes;
}

unsigned
Pipeline::loadHalfLatency(uint64_t load_seq, uint64_t begin,
                          uint64_t end)
{
    // Store-to-load forwarding for this half: youngest older
    // overlapping store nucleus (SQ, then committed stores still
    // draining). Fused store pairs forward per nucleus — the bytes
    // between a non-consecutive pair's two stores are never written,
    // and its tail nucleus may be younger than the load.
    StoreNucleus forwarder;
    bool have_forwarder = false;
    // The filter covers every addrKnown SQ entry and the whole drain
    // queue: a miss proves neither scan can find an overlap.
    if (storeFilter.mayOverlap(begin, end)) {
        auto consider = [&](const Uop *store) {
            StoreNucleus nuclei[2];
            const int count = storeNuclei(*store, nuclei);
            for (int n = 0; n < count; ++n) {
                if (nuclei[n].seq >= load_seq)
                    continue;
                if (!rangesOverlap(nuclei[n].begin, nuclei[n].end,
                                   begin, end))
                    continue;
                if (!have_forwarder || nuclei[n].seq > forwarder.seq) {
                    forwarder = nuclei[n];
                    have_forwarder = true;
                }
            }
        };
        for (const Uop *store : sqList) {
            if (store->seq >= load_seq)
                break;
            if (store->addrKnown)
                consider(store);
        }
        if (!have_forwarder) {
            for (const Uop *store : drainQueue)
                consider(store);
        }
    }
    if (have_forwarder) {
        const bool full =
            forwarder.begin <= begin && end <= forwarder.end;
        if (full) {
            hot.stlfForwards++;
            return params.forwardLatency;
        }
        hot.stlfPartial++;
        return params.forwardLatency + partialForwardPenalty;
    }

    const uint64_t first_line = begin / params.lineBytes;
    const uint64_t last_line = (end - 1) / params.lineBytes;
    unsigned latency = caches.dataAccess(first_line);
    if (last_line != first_line) {
        latency = std::max(latency, caches.dataAccess(last_line)) +
                  params.lineCrossPenalty;
        hot.lineCrossers++;
    }
    return latency;
}

unsigned
Pipeline::executeStore(Uop *uop)
{
    uop->computeMemRange();
    uop->addrKnown = true;
    storeFilter.add(uop->memBegin, uop->memEnd);
    unresolvedKind[uop->seq & inflightMask] = unresolvedNone;
    if (uop->hasTail && uop->tailDyn.inst.isStore())
        unresolvedKind[uop->tailDyn.seq & inflightMask] =
            unresolvedNone;
    hot.execStores++;

    // Memory-order violation: a younger load already executed against
    // stale data. Both sides are checked per nucleus (Section IV-B4):
    // each nucleus carries its own byte range and program position. A
    // catalyst load sitting between a non-consecutive store pair's
    // two stores is older than the tail nucleus and reads bytes
    // neither store writes — judging it against the pair's combined
    // range and head position would flush it forever.
    StoreNucleus stores[2];
    const int num_stores = storeNuclei(*uop, stores);
    // Every addrKnown LQ entry's combined range is in loadFilter, so
    // a filter miss on the pair's combined range proves no executed
    // load can overlap either store nucleus — skip the snoop.
    if (!loadFilter.mayOverlap(uop->memBegin, uop->memEnd))
        return 1;
    for (Uop *load : lqList) {
        if (!load->addrKnown || !load->issued)
            continue;
        bool violated = false;
        uint64_t violator_pc = load->dyn.pc;
        for (int n = 0; n < num_stores && !violated; ++n) {
            const StoreNucleus &store = stores[n];
            if (load->seq > store.seq && load->dyn.inst.isMem() &&
                rangesOverlap(load->dyn.effAddr,
                              load->dyn.effAddr + load->dyn.memSize(),
                              store.begin, store.end)) {
                violated = true;
            } else if (load->hasTail &&
                       load->tailDyn.seq > store.seq &&
                       rangesOverlap(load->tailDyn.effAddr,
                                     load->tailDyn.effAddr +
                                         load->tailDyn.memSize(),
                                     store.begin, store.end)) {
                violated = true;
                violator_pc = load->tailDyn.pc;
            }
        }
        if (violated) {
            storeSets.trainViolation(violator_pc, uop->dyn.pc);
            literalCounter("lsq.violations")++;
            // A violation caused by a hoisted fused pair is a fusion
            // misprediction: the store-set cannot protect a load
            // hoisted above a store that has not renamed yet, so the
            // fusion predictor must lose confidence in this pair.
            if (load->fusion == FusionKind::NcsfMem &&
                load->fpInitiated) {
                resolveFusion(load->fpPred, false);
                literalCounter("fusion.mispredicts")++;
                literalCounter("fusion.mispredict_violation")++;
                notify(&PipelineObserver::onPredictorMispredict,
                       load->tailDyn.pc);
            }
            if (flushRequestSeq == invalidSeq ||
                load->seq < flushRequestSeq) {
                flushRequestSeq = load->seq;
                flushReason = "order_violation";
            }
            break;
        }
    }
    return 1;
}

void
Pipeline::pushEvent(uint64_t due, const Uop *uop, uint8_t kind)
{
    helios_assert(due > cycle && due - cycle <= wheelMask,
                  "completion event beyond the timing wheel");
    uint32_t node = freeEvents;
    if (node != noEvent) {
        freeEvents = eventPool[node].next;
    } else {
        node = uint32_t(eventPool.size());
        eventPool.emplace_back();
    }
    uint32_t &slot = wheel[due & wheelMask];
    eventPool[node] = {uop->seq, uop->uid, slot, kind};
    slot = node;
}

void
Pipeline::scheduleCompletion(Uop *uop, unsigned latency)
{
    uop->issued = true;
    uop->issueCycle = cycle;
    uop->doneCycle = cycle + std::max(1u, latency);
    if (uop->inIq) {
        uop->inIq = false;
        --iqCount;
    }
    pushEvent(uop->doneCycle, uop, 2);
    notify(&PipelineObserver::onIssue, *uop, cycle);
}

void
Pipeline::scheduleSplitCompletion(Uop *uop, unsigned head_latency,
                                  unsigned tail_latency)
{
    uop->issued = true;
    uop->issueCycle = cycle;
    const uint64_t head_done = cycle + std::max(1u, head_latency);
    const uint64_t tail_done = cycle + std::max(1u, tail_latency);
    uop->doneCycle = std::max(head_done, tail_done);
    if (uop->inIq) {
        uop->inIq = false;
        --iqCount;
    }
    // Each destination register is delivered at its own latency
    // (Section II-B); the µ-op is commit-eligible once both are.
    if (head_done == tail_done) {
        pushEvent(uop->doneCycle, uop, 2);
    } else if (head_done < tail_done) {
        pushEvent(head_done, uop, 0);
        pushEvent(tail_done, uop, 2);
    } else {
        pushEvent(tail_done, uop, 1);
        pushEvent(head_done, uop, 2);
    }
    notify(&PipelineObserver::onIssue, *uop, cycle);
}

void
Pipeline::issueStage()
{
    unsigned alu = params.aluPorts;
    unsigned mul = params.mulPorts;
    unsigned div = params.divPorts;
    unsigned load = params.loadPorts;
    unsigned store = params.storePorts;
    unsigned branch = params.branchPorts;

    // Walk the intrusive ready list oldest-first. Scheduling never
    // touches the list, so capturing `next` up front keeps the walk
    // valid across the immediate readyRemove of an issued µ-op.
    Uop *next = nullptr;
    for (Uop *uop = readyHead; uop; uop = next) {
        next = uop->readyNext;
        if (alu + mul + div + load + store + branch == 0)
            break;

        unsigned latency = 0;
        OpClass cls = uop->dyn.inst.info().cls;
        if (uop->isMem())
            cls = uop->isLoad() ? OpClass::Load : OpClass::Store;
        switch (cls) {
          case OpClass::IntAlu:
          case OpClass::Serializing:
            if (alu == 0)
                continue;
            --alu;
            latency = params.aluLatency;
            break;
          case OpClass::Branch:
            if (branch == 0)
                continue;
            --branch;
            latency = params.aluLatency;
            break;
          case OpClass::IntMul:
            if (mul == 0)
                continue;
            --mul;
            latency = params.mulLatency;
            break;
          case OpClass::IntDiv:
            if (div == 0 || cycle < divBusyUntil)
                continue;
            --div;
            latency = params.divLatency;
            divBusyUntil = cycle + params.divLatency;
            break;
          case OpClass::Load:
          case OpClass::Store: {
            const bool is_load = uop->isLoad();
            if (is_load) {
                if (load == 0)
                    continue;
                --load;
            } else {
                if (store == 0)
                    continue;
                --store;
            }
            // Address-based fusion validation (case 5, Section IV-C).
            if (uop->fusion == FusionKind::NcsfMem && uop->fpInitiated &&
                !validateFusedAddresses(uop)) {
                resolveFusion(uop->fpPred, false);
                literalCounter("fusion.mispredicts")++;
                literalCounter("fusion.mispredict_region")++;
                notify(&PipelineObserver::onPredictorMispredict,
                       uop->tailDyn.pc);
                if (flushRequestSeq == invalidSeq ||
                    uop->seq < flushRequestSeq) {
                    flushRequestSeq = uop->seq;
                    flushReason = "fusion_region";
                }
                readyRemove(uop);
                // Keep the µ-op unissued; the flush below removes it.
                uop->issued = true;
                goto after_loop;
            }
            if (uop->fusion == FusionKind::NcsfMem && uop->fpInitiated) {
                resolveFusion(uop->fpPred, true);
                literalCounter("fusion.fp_correct")++;
            }
            if (!is_load) {
                latency = executeStore(uop);
                break;
            }
            uop->computeMemRange();
            uop->addrKnown = true;
            loadFilter.add(uop->memBegin, uop->memEnd);
            unresolvedKind[uop->seq & inflightMask] = unresolvedNone;
            if (uop->hasTail && uop->tailDyn.inst.isLoad())
                unresolvedKind[uop->tailDyn.seq & inflightMask] =
                    unresolvedNone;
            hot.execLoads++;
            // Each nucleus forwards / accesses the cache and delivers
            // its destination independently (Section II-B).
            if (uop->hasTail && uop->dyn.inst.isMem() &&
                uop->tailDyn.inst.isMem()) {
                const unsigned head_latency = loadHalfLatency(
                    uop->seq, uop->dyn.effAddr,
                    uop->dyn.effAddr + uop->dyn.memSize());
                const unsigned tail_latency = loadHalfLatency(
                    uop->seq, uop->tailDyn.effAddr,
                    uop->tailDyn.effAddr + uop->tailDyn.memSize());
                scheduleSplitCompletion(uop, head_latency,
                                        tail_latency);
                readyRemove(uop);
                hot.issueUops++;
                continue;
            }
            latency =
                loadHalfLatency(uop->seq, uop->memBegin, uop->memEnd);
            break;
          }
          default:
            latency = params.aluLatency;
            break;
        }

        scheduleCompletion(uop, latency);
        readyRemove(uop);
        hot.issueUops++;
    }

  after_loop:
    if (flushRequestSeq != invalidSeq) {
        const uint64_t target = flushRequestSeq;
        const char *reason = flushReason;
        flushRequestSeq = invalidSeq;
        flushReason = nullptr;
        squashFrom(target, reason);
    }
}

// ---------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------

void
Pipeline::wakeDependents(std::vector<uint64_t> &list)
{
    for (uint64_t dep_seq : list) {
        Uop *dep = findInflight(dep_seq);
        if (!dep)
            continue;
        --dep->notReady;
        maybeReady(dep);
    }
    list.clear();
}

void
Pipeline::completeExecution()
{
    // This cycle's slot holds exactly the events due now: run() visits
    // every cycle, and pushEvent() keeps each event within one lap.
    //
    // The slot chains events in no meaningful order, and that order
    // cannot move a simulated number:
    //  - wakeups only decrement notReady, and decrements commute: a
    //    dependent turns ready at its last decrement in any order;
    //  - the ready list is kept sorted by seq, whatever the insertion
    //    order;
    //  - storeCompleted clears a store-set entry only if it still holds
    //    the completing store's own seq;
    //  - fetchBlockedUntil only grows, by max;
    //  - one µ-op's events are due in distinct cycles, and nothing here
    //    counts a stat or notifies an observer.
    uint32_t &slot = wheel[cycle & wheelMask];
    uint32_t node = slot;
    slot = noEvent;
    while (node != noEvent) {
        const Event event = eventPool[node];
        eventPool[node].next = freeEvents;
        freeEvents = node;
        node = event.next;

        Uop *uop = findInflight(event.seq);
        if (!uop || uop->uid != event.uid || uop->done)
            continue; // squashed (and possibly refetched)
        if (event.kind == 0) {
            uop->headDone = true;
            wakeDependents(uop->dependents);
            continue;
        }
        if (event.kind == 1) {
            uop->tailDone = true;
            wakeDependents(uop->dependentsTail);
            continue;
        }
        uop->done = true;
        uop->headDone = true;
        uop->tailDone = true;
        wakeDependents(uop->dependents);
        wakeDependents(uop->dependentsTail);

        if (uop->isStore())
            storeSets.storeCompleted(uop->dyn.pc, uop->seq);

        if (uop->mispredictedBranch && fetchStallSeq == uop->seq) {
            fetchStallSeq = invalidSeq;
            const unsigned refill =
                params.mispredictPenalty > params.frontendDepth
                    ? params.mispredictPenalty - params.frontendDepth
                    : 0;
            fetchBlockedUntil =
                std::max(fetchBlockedUntil, cycle + refill);
        }
    }
}

// ---------------------------------------------------------------------
// Commit & store drain
// ---------------------------------------------------------------------

void
Pipeline::countFusedPair(const Uop *uop)
{
    // One distance sample per committed pair (consecutive pairs are
    // distance 1), so the histogram's sample count equals the total
    // fused-pair count.
    switch (uop->fusion) {
      case FusionKind::CsfOther:
        literalCounter("pairs.csf_other")++;
        if (histPairDistance)
            histPairDistance->addSample(1);
        return;
      case FusionKind::CsfMem:
        literalCounter("pairs.csf_mem")++;
        if (histPairDistance)
            histPairDistance->addSample(1);
        return;
      case FusionKind::NcsfMem: {
        const uint64_t distance = uop->tailDyn.seq - uop->dyn.seq;
        if (histPairDistance)
            histPairDistance->addSample(distance);
        if (distance == 1)
            literalCounter("pairs.csf_mem")++;
        else
            literalCounter("pairs.ncsf")++;
        literalCounter("pairs.distance_sum") += distance;
        if (uop->dyn.inst.baseReg() != uop->tailDyn.inst.baseReg())
            literalCounter("pairs.dbr")++;
        const bool static_csf =
            distance == 1 &&
            isMemPairable(uop->dyn.inst, uop->tailDyn.inst, true);
        if (!static_csf)
            literalCounter("pairs.need_prediction")++;
        if (uop->fpInitiated)
            literalCounter("pairs.fp_validated")++;
        return;
      }
      default:
        return;
    }
}

/**
 * Commit wrapper: runs the retirement loop, then attributes the cycle
 * to exactly one `cpi.*` category (retired / frontend-starved / the
 * reason the ROB head is blocked). One increment per call and run()
 * calls this exactly once per cycle, so the categories partition
 * total cycles and StatGroup::cpiStack() is exact by construction —
 * the machine-checked form of the paper's Fig. 9 cycle accounting.
 */
void
Pipeline::commitStage()
{
    commitsThisCycle = 0;
    cpiBlockReason = nullptr;
    commitStageImpl();
    // Double-attribution guard: exactly one cpi.* increment per cycle
    // keeps the stack exact; a second attribution for the same cycle
    // is a model bug.
    helios_assert(cycle != lastCpiCycle,
                  "cpi.* attributed twice in one cycle");
    lastCpiCycle = cycle;
    // cpi.frontend means frontend-starved: every cycle that commits
    // nothing while the ROB holds work must name why its head waits.
    helios_assert(commitsThisCycle > 0 || rob.empty() || cpiBlockReason,
                  "no-commit cycle with a non-empty ROB has no reason");
    cpiCategory = "cpi.frontend";
    if (commitsThisCycle > 0) {
        cpiCategory = "cpi.retiring";
        hot.cpiRetiring++;
    } else {
        if (cpiBlockReason)
            cpiCategory = cpiBlockReason;
        literalCounter(cpiCategory)++;
    }
    // Latched now: a squash later this cycle may remove the head.
    headBlocked = commitsThisCycle == 0 && cpiBlockReason && !rob.empty();
    blockedPc = headBlocked ? rob.front()->dyn.pc : 0;
}

void
Pipeline::commitStageImpl()
{
    unsigned slots = params.commitWidth;
    while (slots > 0 && !rob.empty()) {
        Uop *uop = rob.front();
        if (!uop->done) {
            if (!uop->ncsReady) {
                literalCounter("commit.blocked.ncs_pending")++;
                cpiBlockReason = "cpi.fusion.pending";
            } else if (!uop->issued && uop->notReady > 0) {
                literalCounter("commit.blocked.waiting_sources")++;
                cpiBlockReason = "cpi.backend.sources";
            } else if (!uop->issued) {
                literalCounter("commit.blocked.port_starved")++;
                cpiBlockReason = "cpi.backend.ports";
            } else if (uop->hasTail) {
                literalCounter("commit.blocked.executing_fused")++;
                cpiBlockReason = "cpi.exec.fused";
            } else if (uop->isLoad()) {
                literalCounter("commit.blocked.executing_load")++;
                cpiBlockReason = "cpi.exec.load";
            } else if (uop->isStore()) {
                literalCounter("commit.blocked.executing_store")++;
                cpiBlockReason = "cpi.exec.store";
            } else {
                literalCounter("commit.blocked.executing")++;
                cpiBlockReason = "cpi.exec.other";
            }
            return;
        }

        // A non-consecutive fused pair commits at the head's ROB slot,
        // hoisting its tail nucleus past the catalyst window. Hold it
        // until every catalyst memory access of the opposite kind has
        // resolved its address: an unresolved catalyst store could
        // still alias the already-read tail load (the SQ→LQ snoop can
        // only flush while the pair is pre-commit), and an unresolved
        // catalyst load must read its bytes before the committed tail
        // store's data can drain into the cache past it.
        if (uop->hasTail && uop->isMem() &&
            uop->tailDyn.seq > uop->seq + 1) {
            const uint8_t wanted =
                uop->isLoad() ? unresolvedStore : unresolvedLoad;
            bool blocked = false;
            // Catalyst window only (bounded by maxFusionDistance).
            for (uint64_t s = uop->seq + 1; s < uop->tailDyn.seq; ++s) {
                if (unresolvedKind[s & inflightMask] == wanted) {
                    blocked = true;
                    break;
                }
            }
            if (blocked) {
                literalCounter("commit.blocked.catalyst_unresolved")++;
                cpiBlockReason = "cpi.fusion.catalyst";
                return;
            }
        }

        notify(&PipelineObserver::onCommit, *uop, cycle);
        ++commitsThisCycle;
        hot.commitInsts += uop->archInsts();
        hot.commitUops++;
        if (uop->isLoad()) {
            hot.commitLoads += uop->archInsts();
        } else if (uop->isStore()) {
            hot.commitStores += uop->archInsts();
        }
        if (uop->hasTail)
            countFusedPair(uop);

        // UCH training (Helios): unfused committed memory µ-ops look
        // for a same-line partner among recent commits.
        if (params.fusion == FusionMode::Helios && uop->isMem() &&
            uop->fusion == FusionKind::None) {
            const auto cn = uint8_t(uop->seq & 0x7f);
            const uint64_t line = uop->dyn.effAddr / params.lineBytes;
            const auto distance =
                uop->isLoad() ? uch.accessLoad(line, cn)
                              : uch.accessStore(line, cn);
            if (distance) {
                literalCounter("uch.matches")++;
                fusionPred->train(uop->dyn.pc, uop->fetchHistory,
                                 *distance);
            }
        }

        uop->committed = true;
        ++commitCount;
        if ((commitCount & 0xffff) == 0)
            storeSets.age();
        allocatedRegs -= uop->numDests;
        rob.pop_front();
        if (uop->isLoad()) {
            helios_assert(!lqList.empty() && lqList.front() == uop,
                          "LQ order mismatch");
            lqList.pop_front();
            if (uop->addrKnown)
                loadFilter.remove(uop->memBegin, uop->memEnd);
        }
        const uint64_t seq = uop->seq;
        if (uop->isStore()) {
            helios_assert(!sqList.empty() && sqList.front() == uop,
                          "SQ order mismatch");
            sqList.pop_front();
            // The store stays in storeFilter until it drains: the
            // drain queue is still scanned for forwarding.
            drainQueue.push_back(inflightErase(seq));
        } else {
            uopPool.release(inflightErase(seq));
        }
        --slots;
    }
}

void
Pipeline::drainStores()
{
    if (drainQueue.empty() || cycle < drainBusyUntil)
        return;
    Uop *store = drainQueue.front();
    const uint64_t first_line = store->memBegin / params.lineBytes;
    const uint64_t last_line = (store->memEnd - 1) / params.lineBytes;
    unsigned latency = caches.storeDrain(first_line);
    if (last_line != first_line)
        latency += caches.storeDrain(last_line);
    drainBusyUntil = cycle + latency;
    literalCounter("sq.drained")++;
    storeFilter.remove(store->memBegin, store->memEnd);
    drainQueue.pop_front();
    uopPool.release(store);
}

// ---------------------------------------------------------------------
// Squash / replay
// ---------------------------------------------------------------------

void
Pipeline::resumeFetchAfter(uint64_t delay)
{
    fetchBlockedUntil = std::max(fetchBlockedUntil, cycle + delay);
}

void
Pipeline::squashFrom(uint64_t seq_min, const char *reason)
{
    // issueStage's two flush requests name one of these reasons.
    literalCounter(std::string_view(reason) == "order_violation"
                       ? "flush.order_violation"
                       : "flush.fusion_region")++;

    // Solution ii) of Section IV-C: if a surviving fused µ-op's tail
    // would be squashed, move the flush point up to that head.
    bool changed = true;
    while (changed) {
        changed = false;
        for (const Uop *uop : inflightSlots) {
            if (uop && uop->hasTail && !uop->isTailMarker &&
                uop->seq < seq_min && uop->tailDyn.seq >= seq_min) {
                seq_min = uop->seq;
                changed = true;
            }
        }
    }

    // Unlink the squashed suffix from every structure first; the
    // records themselves are released in the sweep below.
    while (readyTail && readyTail->seq >= seq_min)
        readyRemove(readyTail);
    auto chop = [seq_min](RingBuffer<Uop *> &ring) {
        while (!ring.empty() && ring.back()->seq >= seq_min)
            ring.pop_back();
    };
    chop(aq);
    chop(renamedQueue);
    chop(rob);
    chop(lqList);
    chop(sqList);
    for (size_t g = decodePipe.size(); g-- > 0;) {
        DecodeGroup &grp = decodePipe[g];
        // Only the unconsumed suffix can hold squashed µ-ops: seqs
        // ascend within a group and the consumed prefix is older.
        while (grp.uops.size() > grp.consumed &&
               grp.uops.back()->seq >= seq_min)
            grp.uops.pop_back();
    }
    while (!decodePipe.empty() &&
           decodePipe.back().uops.size() == decodePipe.back().consumed)
        decodePipe.pop_back();
    std::erase_if(activeNcsHeads, [seq_min](const Uop *uop) {
        return uop->seq >= seq_min;
    });

    // Remove squashed seqs from survivors' wakeup lists (both halves:
    // a stale tail-half entry would corrupt the notReady count of a
    // refetched µ-op that reuses the squashed sequence number).
    for (const Uop *survivor : inflightSlots) {
        if (!survivor || survivor->seq >= seq_min)
            continue;
        Uop *uop = const_cast<Uop *>(survivor);
        const auto stale = [seq_min](uint64_t dep) {
            return dep >= seq_min;
        };
        std::erase_if(uop->dependents, stale);
        std::erase_if(uop->dependentsTail, stale);
    }

    // Sweep the squashed seq range in ascending order: fire the
    // hooks, collect the replayed architectural instructions, undo
    // the resource accounting, and release the records.
    replayScratch.clear();
    uint64_t squashed_count = 0;
    for (uint64_t s = seq_min; s <= maxFetchedSeq; ++s) {
        unresolvedKind[s & inflightMask] = unresolvedNone;
        Uop *uop = findInflight(s);
        if (!uop)
            continue;
        ++squashed_count;
        notify(&PipelineObserver::onSquash, *uop, cycle, reason);
        if (uop->isTailMarker) {
            // The head is older; if it survived we would have moved
            // the flush point above, so the head must be squashed and
            // contributes the tail's dyn record itself.
            helios_assert(uop->pairSeq >= seq_min,
                          "marker survived its head's squash");
        } else {
            replayScratch.push_back(uop->dyn);
            if (uop->hasTail)
                replayScratch.push_back(uop->tailDyn);
            if (uop->renamed)
                allocatedRegs -= uop->numDests;
            if (uop->inIq)
                --iqCount;
            if (uop->addrKnown) {
                if (uop->isStore())
                    storeFilter.remove(uop->memBegin, uop->memEnd);
                else if (uop->isLoad())
                    loadFilter.remove(uop->memBegin, uop->memEnd);
            }
        }
        uopPool.release(inflightErase(s));
    }

    // Rebuild the RAT from surviving renamed µ-ops in program order.
    for (RatEntry &entry : rat)
        entry.producerSeq = invalidSeq;
    auto rebuild = [this](const Uop *uop) {
        if (uop->isTailMarker)
            return;
        if (uop->dyn.inst.writesReg())
            rat[uop->dyn.inst.rd].producerSeq = uop->seq;
        if (uop->hasTail && uop->tailRenamed &&
            uop->tailDyn.inst.writesReg())
            rat[uop->tailDyn.inst.rd].producerSeq = uop->seq;
    };
    for (const Uop *uop : rob)
        rebuild(uop);
    for (const Uop *uop : renamedQueue)
        rebuild(uop);

    // Helios rename-side state: pendingNcsf counts fused pairs whose
    // tail marker has not yet renamed (markers still in the AQ).
    pendingNcsf = 0;
    for (const Uop *uop : aq)
        if (uop->isTailMarker)
            ++pendingNcsf;

    storeSets.squash(seq_min);

    // Prepend replayed instructions in program order (all older than
    // anything already waiting in the replay queue). The sweep found
    // heads in ascending seq order but emits a fused tail's record at
    // its head's position, so sort by arch seq (all seqs distinct).
    std::sort(replayScratch.begin(), replayScratch.end(),
              [](const DynInst &a, const DynInst &b) {
                  return a.seq < b.seq;
              });
    helios_assert(replayQueue.empty() || replayScratch.empty() ||
                      replayScratch.back().seq <
                          replayQueue.front().seq,
                  "replay order violated");
    for (size_t i = replayScratch.size(); i-- > 0;)
        replayQueue.push_front(replayScratch[i]);

    if (fetchStallSeq >= seq_min)
        fetchStallSeq = invalidSeq;
    lastFetchLine = ~0ULL;
    resumeFetchAfter(params.mispredictPenalty);
    literalCounter("flush.squashed_uops") += squashed_count;
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

PipelineResult
Pipeline::run()
{
    uint64_t last_commit_count = 0;
    uint64_t last_progress_cycle = 0;
    bool drained = false;

    while (cycle < params.maxCycles) {
        commitStage();
        drainStores();
        completeExecution();
        issueStage();
        dispatchStage();
        renameStage();
        aqInsertStage();
        fetchStage();
        ++cycle;

        if (params.sampleHistograms) {
            histRob->addSample(rob.size());
            histIq->addSample(iqCount);
            histLq->addSample(lqList.size());
            histSq->addSample(sqList.size());
        }

        if (!observers.empty())
            notify(&PipelineObserver::onCycleEnd,
                   CycleView{.cycle = cycle, .rob = &rob, .aq = &aq,
                             .lq = &lqList, .sq = &sqList,
                             .iqCount = iqCount,
                             .drainCount = drainQueue.size(),
                             .inflightCount = inflightCount,
                             .allocatedRegs = allocatedRegs,
                             .cpiCategory = cpiCategory,
                             .headBlocked = headBlocked,
                             .blockedPc = blockedPc});

        // Sampled-simulation warmup boundary: latch the headline
        // counters the first cycle the commit count crosses the armed
        // target. Checked before the drain break so a window whose
        // warmup ends on the final cycle still latches.
        if (watch.atInsts && !watch.taken &&
            hot.commitInsts.value() >= watch.atInsts) {
            watch.taken = true;
            watch.cycles = cycle;
            watch.instructions = hot.commitInsts.value();
            watch.uops = hot.commitUops.value();
            watch.fusedPairs = statGroup.get("pairs.csf_mem") +
                               statGroup.get("pairs.csf_other") +
                               statGroup.get("pairs.ncsf");
        }

        if (feedExhausted && replayQueue.empty() &&
            inflightCount == 0 &&
            drainQueue.empty() && decodePipe.empty() &&
            renamedQueue.empty() && aq.empty() && rob.empty()) {
            drained = true;
            break;
        }

        const uint64_t committed = hot.commitInsts.value();
        if (committed != last_commit_count) {
            last_commit_count = committed;
            last_progress_cycle = cycle;
        } else if (cycle - last_progress_cycle > 200000) {
            if (!rob.empty()) {
                const Uop *head = rob.front();
                warn("ROB head seq=%llu pc=0x%llx fused=%d "
                     "ncsReady=%d notReady=%d issued=%d done=%d",
                     static_cast<unsigned long long>(head->seq),
                     static_cast<unsigned long long>(head->dyn.pc),
                     int(head->fusion), int(head->ncsReady),
                     head->notReady, int(head->issued),
                     int(head->done));
            }
            panic("pipeline deadlock at cycle %llu (committed %llu)",
                  static_cast<unsigned long long>(cycle),
                  static_cast<unsigned long long>(committed));
        }
    }

    if (feedExhausted && inflightCount == 0 && allocatedRegs != 0)
        warn("PRF leak: %u registers still allocated at drain",
             allocatedRegs);
    notify(&PipelineObserver::onFinish, drained, cycle);

    literalCounter("cycles") += cycle;
    PipelineResult result;
    result.cycles = cycle;
    result.instructions = hot.commitInsts.value();
    result.uops = hot.commitUops.value();
    return result;
}

} // namespace helios
