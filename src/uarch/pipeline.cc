#include "uarch/pipeline.hh"

#include <algorithm>
#include <string_view>

#include "common/logging.hh"
#include "fusion/fusion_predictor.hh"
#include "fusion/ncsf_rules.hh"
#include "sim/hart.hh"
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

} // namespace

/**
 * Size of the seq-indexed rings: in-flight µ-ops, pending addresses and
 * fetched records. Live sequence numbers span at most the machine's
 * µ-op capacity times two (a fused µ-op holds two arch seqs), so
 * doubling that again guarantees no two live seqs ever map to the same
 * slot; inflightInsert asserts it anyway. A replay re-reads seqs that
 * were live when their squash came, so the fetch ring's live records
 * span no more.
 */
uint64_t
inflightRingSize(const CoreParams &p)
{
    const uint64_t uop_capacity =
        uint64_t(p.frontendDepth + 5) * p.fetchWidth + p.aqSize +
        2 * p.dispatchWidth + p.renameWidth + p.robSize + p.sqSize;
    return nextPow2(2 * (2 * uop_capacity) + p.fetchWidth + 64);
}

namespace
{

/** Extra cycles a load pays when a store covers only part of it. */
constexpr unsigned partialForwardPenalty = 10;

/** Cycles without a commit after which run() declares a deadlock. */
constexpr uint64_t deadlockHorizon = 200000;

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

Pipeline::Pipeline(const CoreParams &p, HartFeed &f)
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
    fetchRing.resize(ring);
    tailCommitted.resize(ring, 0);
    inflightMask = ring - 1;
    feedSeq = fetchSeq = feed.nextSeq();
    // Events are due 1..maxCompletionLatency cycles ahead, so a wheel
    // with more slots than that never wraps onto a pending cycle.
    wheel.resize(nextPow2(maxCompletionLatency(p) + 1), noEvent);
    wheelMask = wheel.size() - 1;
    // OracleFusion names its heads from addresses and learns nothing.
    if (params.fusion == FusionMode::Helios)
        fusionPred.emplace();
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
    ++readyCount[unsigned(uop->port)];
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
    --readyCount[unsigned(uop->port)];
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

bool
Pipeline::fetchStage()
{
    if (cycle < fetchBlockedUntil) {
        stall(hot.fetchBlocked);
        return false;
    }
    if (fetchStallSeq != invalidSeq) {
        stall(hot.fetchMispredictStall);
        return false;
    }
    if (decodePipe.size() >= params.frontendDepth + 4)
        return false;

    DecodeGroup &group = decodePipe.emplace_back();
    group.uops.clear();
    group.consumed = 0;
    group.fused = false;
    group.readyCycle = cycle + params.frontendDepth;
    for (unsigned i = 0; i < params.fetchWidth; ++i) {
        if (fetchSeq == feedSeq) {
            const uint64_t slot = feedSeq & inflightMask;
            if (feedExhausted || !feed.next(fetchRing[slot])) {
                feedExhausted = true;
                break;
            }
            helios_assert(fetchRing[slot].seq == feedSeq,
                          "feed skipped a seq");
            tailCommitted[slot] = 0;
            ++feedSeq;
        }
        const DynInst &dyn = fetchRing[fetchSeq & inflightMask];
        fetchFrom(fetchSeq + 1);

        Uop *uop = uopPool.alloc();
        uop->seq = dyn.seq;
        uop->uid = nextUid++;
        uop->dyn = &dyn;
        uop->refreshFacts();
        stamp(uop->fetchCycle);
        uop->fetchHistory = bpred.fusionHistory();
        inflightInsert(uop);
        group.uops.push_back(uop);
        notify(&PipelineObserver::onFetch, *uop, cycle);
        hot.fetchUops++;
        if (uop->isMem()) {
            uint8_t &kind = unresolvedKind[dyn.seq & inflightMask];
            helios_assert(kind == unresolvedNone,
                          "unresolved ring collision");
            kind = uop->isStore() ? unresolvedStore : unresolvedLoad;
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

        if (uop->port == PortClass::Branch) {
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

    if (!group.uops.empty())
        return true;
    decodePipe.pop_back();
    return false;
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
                matchIdiom(head->dyn->inst, tail->dyn->inst);
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
                head->refreshFacts();
                notify(&PipelineObserver::onFusePair, *head, *tail->dyn,
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
Pipeline::mispredictPair(const Uop *head, const char *counter)
{
    // OracleFusion has no predictor to train.
    if (fusionPred)
        fusionPred->resolve(head->fpPred, false);
    literalCounter("fusion.mispredicts")++;
    if (counter)
        literalCounter(counter)++;
    notify(&PipelineObserver::onPredictorMispredict, head->tailDyn->pc);
}

bool
Pipeline::tryPredictedFusion(Uop *tail)
{
    const FpPrediction &pred = tail->fpPred;
    if (!pred.valid)
        return false;
    literalCounter("fusion.fp_attempts")++;
    notify(&PipelineObserver::onPredictorAttempt, tail->dyn->pc);

    if (tail->fusion != FusionKind::None || tail->isTailMarker)
        return false;
    if (pred.distance > tail->seq)
        return false;

    Uop *head = findInflight(tail->seq - pred.distance);
    // Only the rules that need no address apply here: the predicted
    // region is validated at issue (case 5, Section IV-C).
    const NcsfRules rules{params.fusionRegionBytes};
    const NcsfBreak broken =
        head ? rules.broken(*head->dyn, *tail->dyn) : NcsfBreak::MixedKinds;
    if (!head || !head->inAq || head->isTailMarker ||
        head->fusion != FusionKind::None || head->hasTail ||
        broken == NcsfBreak::MixedKinds) {
        literalCounter("fusion.fp_no_head")++;
        return false;
    }
    // Different-base-register store pairs are not supported
    // (Section IV-B: 0.54% of fused stores).
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
    head->fpPred = pred;
    head->pairSeq = tail->seq;

    tail->isTailMarker = true;
    tail->pairSeq = head->seq;
    head->refreshFacts();
    tail->refreshFacts();

    notify(&PipelineObserver::onFusePair, *head, *tail->dyn,
           FusionKind::NcsfMem, /*absorbed=*/false, cycle);
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

/**
 * Memory-order logic must work per store nucleus: the combined
 * [memBegin, memEnd) of a non-consecutive pair covers catalyst bytes
 * neither store writes, and the tail nucleus keeps its own (younger)
 * program position.
 */
int
Pipeline::storeNuclei(const Uop &uop, StoreNucleus out[2])
{
    int count = 0;
    if (uop.mem & Uop::HeadStore)
        out[count++] = {uop.seq, uop.dyn->effAddr,
                        uop.dyn->effAddr + uop.dyn->memSize()};
    if (uop.mem & Uop::TailStore)
        out[count++] = {uop.tailDyn->seq, uop.tailDyn->effAddr,
                        uop.tailDyn->effAddr + uop.tailDyn->memSize()};
    return count;
}

/**
 * One walk over the catalyst of a pending pair, the µ-ops between
 * @a head and @a tail in program order, that answers every rename-time
 * check of the pair. Catalyst µ-ops renamed before the tail marker
 * live in the ROB or the rename->dispatch buffer (at AQ insertion, in
 * the AQ); none has committed, since the head has not. CSF'd tails
 * are folded into their heads, so walking the seq range finds every
 * writer. Besides whether a catalyst µ-op stores or serializes (a
 * tail marker counts as neither), two register taints ride the walk:
 *
 *  - `on_head`: registers that (transitively) depend on the head's
 *    destination, through any source of either nucleus of a catalyst
 *    µ-op or a store-set wakeup edge. This is the precise outcome of
 *    the paper's Deadlock-Tag hardware (Section IV-B2); the real tags
 *    are a conservative one-hot approximation that may also yield
 *    false positives. This taint skips tail markers.
 *  - `on_load`: registers a catalyst load produced, or a catalyst
 *    µ-op computed from one. A tail marker counts as the load it
 *    stands for. Of a fused catalyst µ-op, this taint reads only the
 *    head nucleus' sources.
 */
Pipeline::CatalystTaint
Pipeline::catalystTaint(const Uop *head, const Uop *tail) const
{
    CatalystTaint answer;
    uint32_t on_head = 0;
    uint32_t on_load = 0;
    const auto set = [](uint32_t &taint, unsigned reg, bool on) {
        if (on && reg != RegZero)
            taint |= 1u << reg;
        else
            taint &= ~(1u << reg);
    };
    // Bit 0 (x0) is never set, and a head source a µ-op does not read
    // is x0.
    const auto reads = [](uint32_t taint, const Uop *u) {
        return (((taint >> u->headRs1) | (taint >> u->headRs2)) & 1) != 0;
    };
    const auto tail_reads = [](uint32_t taint, const Instruction &inst) {
        return (inst.readsRs1() && ((taint >> inst.rs1) & 1)) ||
               (inst.readsRs2() && ((taint >> inst.rs2) & 1));
    };
    // Catalyst µ-ops that depend on the head, for the store-set edges.
    std::vector<uint64_t> head_dependent;

    // The tail nucleus' destination is invisible to the catalyst (WaR
    // deferral), so only the head's register output seeds the taint.
    if (head->headRd)
        set(on_head, head->headRd, true);
    for (uint64_t seq = head->seq + 1; seq < tail->seq; ++seq) {
        const Uop *u = findInflight(seq);
        if (!u)
            continue;
        if (u->isTailMarker) {
            if (u->headRd)
                set(on_load, u->headRd, true);
            continue;
        }
        answer.store |= u->isStore();
        answer.serializing |= u->serializing;

        // A catalyst load made to wait on the head (or on a dependent
        // catalyst store) by the store-set predictor depends on the
        // head for scheduling.
        const bool from_head =
            reads(on_head, u) ||
            (u->hasTail && tail_reads(on_head, u->tailDyn->inst)) ||
            u->waitStoreSeq == head->seq ||
            std::find(head_dependent.begin(), head_dependent.end(),
                      u->waitStoreSeq) != head_dependent.end();
        if (from_head)
            head_dependent.push_back(u->seq);
        const bool from_load = u->isLoad() || reads(on_load, u);

        if (u->headRd) {
            set(on_head, u->headRd, from_head);
            set(on_load, u->headRd, from_load);
        }
        // CSF pairs produce the tail value in place; a pending NCSF
        // tail destination stays owned by the old producer.
        if (u->tailRd && u->fusion != FusionKind::NcsfMem) {
            set(on_head, u->tailRd, from_head);
            set(on_load, u->tailRd, from_load);
        }
    }
    answer.deadlock = reads(on_head, tail);
    answer.lateRaw = reads(on_load, tail);
    return answer;
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
    const DynInst &t = *tail->dyn;
    const uint64_t line = t.effAddr / params.lineBytes;
    const NcsfRules rules{params.fusionRegionBytes};
    // The AQ is seq-ordered, so each candidate's catalyst is exactly
    // the entries this walk has already passed.
    for (size_t index = aq.size(); index-- > 0;) {
        const Uop *cand = aq[index];
        const uint64_t distance = t.seq - cand->seq;
        // A serializing catalyst µ-op unfuses every pair around it.
        if (distance > params.maxFusionDistance || cand->serializing)
            break;
        if (!cand->isTailMarker && sameMemKind(cand, tail)) {
            if (cand->fusion == FusionKind::None && !cand->hasTail &&
                cand->dyn->effAddr / params.lineBytes == line &&
                rules.pairable(*cand->dyn, t) &&
                !catalystTaint(cand, tail).any()) {
                FpPrediction pred;
                pred.valid = true;
                pred.distance = unsigned(distance);
                return pred;
            }
            // A store in a store pair's catalyst unfuses the pair.
            if (tail->isStore())
                break;
        }
        if (NcsfRules::blocksHoist(*cand->dyn, t) ||
            (cand->hasTail && NcsfRules::blocksHoist(*cand->tailDyn, t)))
            break;
    }
    return {};
}

bool
Pipeline::aqInsertStage()
{
    bool moved = false;
    while (!decodePipe.empty() &&
           decodePipe.front().readyCycle <= cycle) {
        DecodeGroup &grp = decodePipe.front();
        // Exactly once per group: a rerun on the remainder of an
        // AQ-stalled group could pair an already-fused head with the
        // next µ-op and silently drop its first absorbed tail.
        if (!grp.fused) {
            applyConsecutiveFusion(grp.uops);
            grp.fused = true;
            moved = true;
        }

        while (grp.consumed < grp.uops.size()) {
            if (aq.size() >= params.aqSize) {
                stall(literalCounter("decode.stall.aq_full"));
                return moved;
            }
            Uop *uop = grp.uops[grp.consumed++];
            moved = true;

            // Fusion-predictor lookup at Decode: Helios asks its
            // tournament predictor, OracleFusion the address oracle.
            // Nothing else predicts before the AQ, so only a µ-op
            // looked up here can try to fuse.
            bool predicted = false;
            if (uop->isMem() && uop->fusion == FusionKind::None) {
                if (params.fusion == FusionMode::Helios)
                    uop->fpPred = fusionPred->lookup(uop->dyn->pc,
                                                     uop->fetchHistory);
                else if (params.fusion == FusionMode::Oracle)
                    uop->fpPred = oracleLookup(uop);
                predicted = uop->fpPred.valid;
            }

            uop->inAq = true;
            stamp(uop->aqCycle);
            // The oracle's walk and squash's chop() both rely on the AQ
            // holding µ-ops in ascending seq order.
            helios_assert(aq.empty() || aq.back()->seq < uop->seq,
                          "AQ out of program order");
            aq.push_back(uop);

            if (predicted)
                tryPredictedFusion(uop);
        }
        decodePipe.pop_front();
    }
    return moved;
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
    // dependency to the producing half. reg <= 0 (x0, or a
    // non-register dependence such as a store set) waits for full
    // completion.
    const bool tail_half = reg > 0 && producer->tailRd == reg;
    const bool head_half =
        reg > 0 && !tail_half && producer->headRd == reg;
    if (tail_half) {
        if (producer->tailDone)
            return false;
        addWakeEdge(producer->wakeTail, consumer);
    } else if (head_half) {
        if (producer->headDone)
            return false;
        addWakeEdge(producer->wakeHead, consumer);
    } else {
        // Wait for full completion (final event wakes head list).
        addWakeEdge(producer->wakeHead, consumer);
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
    uint64_t store_seq = storeSets.loadDependence(uop->dyn->pc);
    if (uop->mem & Uop::TailLoad) {
        const uint64_t tail_dep =
            storeSets.loadDependence(uop->tailDyn->pc);
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
    bool helios_pending = uop->fusion == FusionKind::NcsfMem;

    // Max Active NCS saturation: a head nucleus entering Rename while
    // the nest levels are all busy behaves as unfused, and the tail
    // nucleus reverts to a regular µ-op in the AQ (Section IV-B2).
    if (helios_pending && activeNcsHeads >= params.ncsfNestDepth) {
        Uop *marker = findInflight(uop->pairSeq);
        helios_assert(marker && marker->isTailMarker,
                      "nest-unfuse lost its marker");
        notify(&PipelineObserver::onUnfuse, *uop, uop->pairSeq, cycle);
        unfuseInPlace(uop, ProfBreak::NestLimit);
        marker->isTailMarker = false;
        marker->pairSeq = 0;
        marker->fpPred.valid = false;
        marker->refreshFacts();
        breakPair(marker, "fusion.fp_nest_limited", ProfBreak::NestLimit);
        helios_pending = false;
    }

    // ---- sources ----
    addSourceDependency(uop, uop->headRs1);
    addSourceDependency(uop, uop->headRs2);
    if (uop->hasTail && !helios_pending) {
        const Instruction &inst = uop->dyn->inst;
        const Instruction &t = uop->tailDyn->inst;
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
            storeSets.storeRenamed(uop->dyn->pc, uop->seq);
        if (previous < uop->seq &&
            attachDependency(uop, previous, -1))
            literalCounter("storeset.chained")++;
    }

    // ---- destinations & RAT ----
    if (uop->headRd)
        rat[uop->headRd].producerSeq = uop->seq;
    // A consecutive memory pair has no catalyst: its tail destination
    // renames now. An idiom writes one architectural register (tail.rd
    // == head.rd), renamed above; an NCSF pair's tail destination
    // renames with its marker (WaR deferral, Section IV-B2).
    if (uop->tailRd && uop->fusion == FusionKind::CsfMem)
        rat[uop->tailRd].producerSeq = uop->seq;

    // ---- activate a Helios NCSF nest ----
    if (helios_pending)
        ++activeNcsHeads;
}

void
Pipeline::breakPair(Uop *marker, const char *counter, ProfBreak reason)
{
    literalCounter(counter)++;
    if (marker->profBreak != ProfBreak::None)
        return;
    marker->profBreak = reason;
    notify(&PipelineObserver::onPredictorBreak, marker->dyn->pc, reason);
}

void
Pipeline::renameMarker(Uop *marker)
{
    Uop *head = findInflight(marker->pairSeq);
    helios_assert(head && head->hasTail && !head->ncsReady,
                  "tail marker without pending head");

    // Deadlock detection (load pairs only: store pairs write nothing).
    // The hardware uses the Deadlock-Tag propagation of Section IV-B2;
    // the simulator computes its precise outcome with an exact walk.
    const CatalystTaint taint = catalystTaint(head, marker);
    if (taint.deadlock)
        breakPair(marker, "fusion.unfuse_deadlock", ProfBreak::Deadlock);
    if (head->isStore() && taint.store)
        breakPair(marker, "fusion.unfuse_store_catalyst",
                  ProfBreak::StoreCatalyst);
    if (taint.serializing)
        breakPair(marker, "fusion.unfuse_serializing",
                  ProfBreak::Serializing);
    // Refinement over the paper: when a tail source hangs off a LOAD
    // inside the catalyst (a pointer-chase step), the fused µ-op
    // cannot issue until that load returns — the head gains nothing
    // and loses its early issue. Such pairs are unfused; ALU-fed
    // catalyst RaWs keep their fusion, preserving the paper's
    // RaW-in-catalyst support.
    if (taint.lateRaw && marker->profBreak == ProfBreak::None)
        breakPair(marker, "fusion.unfuse_late_raw", ProfBreak::LateRaw);

    // Capture the program-order-correct producers of the tail sources
    // (the marker's own nucleus is the tail).
    marker->tailProducers[0] =
        marker->headRs1 ? rat[marker->headRs1].producerSeq : invalidSeq;
    marker->tailProducers[1] =
        (marker->mem & Uop::HeadStore) && marker->headRs2
            ? rat[marker->headRs2].producerSeq
            : invalidSeq;

    if (marker->headRd) {
        if (marker->profBreak != ProfBreak::None) {
            // The tail will re-dispatch as its own µ-op: younger
            // µ-ops must see it as the producer.
            rat[marker->headRd].producerSeq = marker->seq;
        } else {
            // Deferred RAT update for the tail destination (the
            // paper's WaR buffer, Section IV-B2).
            rat[marker->headRd].producerSeq = head->seq;
        }
    }

    // Nest teardown: the head became active when it renamed.
    helios_assert(activeNcsHeads > 0, "activeNcsHeads underflow");
    --activeNcsHeads;
}

bool
Pipeline::renameStage()
{
    unsigned renamed = 0;
    if (aq.empty()) {
        stall(hot.renameAqEmpty);
        return false;
    }
    while (renamed < params.renameWidth && !aq.empty()) {
        // Rename stalls when the rename->dispatch skid buffer backs
        // up.
        if (renamedQueue.size() >= 2 * params.dispatchWidth) {
            stall(hot.renameBacklog);
            break;
        }
        Uop *uop = aq.front();
        if (uop->isTailMarker)
            renameMarker(uop);
        else
            renameNormal(uop);
        uop->inAq = false;
        stamp(uop->renameCycle);
        aq.pop_front();
        renamedQueue.push_back(uop);
        ++renamed;
        hot.renameUops++;
    }
    return renamed > 0;
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

void
Pipeline::unfuseInPlace(Uop *head, ProfBreak reason)
{
    helios_assert(!head->issued, "unfusing an issued µ-op");
    head->fusion = FusionKind::None;
    head->hasTail = false;
    head->ncsReady = true;
    head->refreshFacts();
    if (head->profBreak == ProfBreak::None)
        head->profBreak = reason;
}

void
Pipeline::maybeReady(Uop *uop)
{
    if (uop->dispatched && uop->ncsReady && !uop->issued &&
        !uop->done && uop->notReady == 0 && !uop->isTailMarker &&
        !uop->inReadyList)
        readyInsert(uop);
}

bool
Pipeline::dispatchStage()
{
    unsigned slots = params.dispatchWidth;
    while (slots > 0 && !renamedQueue.empty()) {
        Uop *uop = renamedQueue.front();

        if (uop->isTailMarker) {
            Uop *head = findInflight(uop->pairSeq);
            helios_assert(head, "marker lost its head");

            if (uop->profBreak != ProfBreak::None) {
                // The tail re-dispatches as its own µ-op: two dispatch
                // slots plus fresh ROB/IQ/LQ/SQ entries.
                if (slots < 2 ||
                    !backendHasRoom(uop->mem & Uop::HeadLoad,
                                    uop->mem & Uop::HeadStore))
                    break;

                notify(&PipelineObserver::onUnfuse, *head, uop->seq, cycle);
                unfuseInPlace(head, uop->profBreak);
                literalCounter("fusion.unfused")++;
                maybeReady(head);
                mispredictPair(head, nullptr);

                // Convert the marker into a real µ-op.
                uop->isTailMarker = false;
                uop->pairSeq = 0;
                uop->ncsReady = true;
                uop->refreshFacts();
                // The RAT already points at the marker (renameMarker).
                for (uint64_t producer_seq : uop->tailProducers)
                    attachDependency(uop, producer_seq, -1);
                if (uop->isLoad())
                    addStoreSetDependency(uop);
                if (uop->isStore()) {
                    // renameNormal's store-set chain, left uncounted.
                    const uint64_t previous =
                        storeSets.storeRenamed(uop->dyn->pc, uop->seq);
                    if (previous < uop->seq)
                        attachDependency(uop, previous, -1);
                }

                enterBackend(uop);
                slots -= 2;
                continue;
            }

            // Validation: repair/complete the head's tail sources and
            // set NCS Ready (one dispatch slot, Section IV-B2).
            attachDependency(head, uop->tailProducers[0], uop->headRs1);
            attachDependency(head, uop->tailProducers[1], uop->headRs2);
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
            break;
        enterBackend(uop);
        --slots;
        hot.dispatchUops++;
    }
    return slots < params.dispatchWidth;
}

bool
Pipeline::backendHasRoom(bool load, bool store)
{
    if (rob.size() >= params.robSize) {
        stall(literalCounter("dispatch.stall.rob"));
        return false;
    }
    if (iqCount >= params.iqSize) {
        stall(literalCounter("dispatch.stall.iq"));
        return false;
    }
    if (load && lqList.size() >= params.lqSize) {
        stall(literalCounter("dispatch.stall.lq"));
        return false;
    }
    if (store && sqList.size() + drainQueue.size() >= params.sqSize) {
        stall(literalCounter("dispatch.stall.sq"));
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
    stamp(uop->dispatchCycle);
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
        auto consider = [&](const StoreNucleus *nuclei, int count) {
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
            if (store->addrKnown) {
                StoreNucleus nuclei[2];
                consider(nuclei, storeNuclei(*store, nuclei));
            }
        }
        if (!have_forwarder) {
            for (const DrainEntry &store : drainQueue)
                consider(store.nuclei, store.count);
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
    if (uop->mem & Uop::TailStore)
        unresolvedKind[uop->tailDyn->seq & inflightMask] =
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
        uint64_t violator_pc = load->dyn->pc;
        for (int n = 0; n < num_stores && !violated; ++n) {
            const StoreNucleus &store = stores[n];
            if (load->seq > store.seq && (load->mem & Uop::HeadMem) &&
                rangesOverlap(load->dyn->effAddr,
                              load->dyn->effAddr + load->dyn->memSize(),
                              store.begin, store.end)) {
                violated = true;
            } else if (load->hasTail &&
                       load->tailDyn->seq > store.seq &&
                       rangesOverlap(load->tailDyn->effAddr,
                                     load->tailDyn->effAddr +
                                         load->tailDyn->memSize(),
                                     store.begin, store.end)) {
                violated = true;
                violator_pc = load->tailDyn->pc;
            }
        }
        if (violated) {
            storeSets.trainViolation(violator_pc, uop->dyn->pc);
            literalCounter("lsq.violations")++;
            // A violation caused by a hoisted fused pair is a fusion
            // misprediction: the store-set cannot protect a load
            // hoisted above a store that has not renamed yet, so the
            // fusion predictor must lose confidence in this pair.
            if (load->fusion == FusionKind::NcsfMem)
                mispredictPair(load, "fusion.mispredict_violation");
            requestFlush(load->seq, "order_violation");
            break;
        }
    }
    return 1;
}

void
Pipeline::pushEvent(uint64_t due, Uop *uop, uint8_t kind)
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
    eventPool[node] = {uop, uop->uid, slot, kind};
    slot = node;
}

void
Pipeline::requestFlush(uint64_t seq, const char *reason)
{
    if (seq < flushRequestSeq) {
        flushRequestSeq = seq;
        flushReason = reason;
    }
}

void
Pipeline::scheduleSplitCompletion(Uop *uop, unsigned head_latency,
                                  unsigned tail_latency)
{
    uop->issued = true;
    const uint64_t head_done = cycle + std::max(1u, head_latency);
    const uint64_t tail_done = cycle + std::max(1u, tail_latency);
    stamp(uop->issueCycle);
    if (!observers.empty())
        uop->doneCycle = std::max(head_done, tail_done);
    if (uop->inIq) {
        uop->inIq = false;
        --iqCount;
    }
    // Each destination register is delivered at its own latency
    // (Section II-B); the µ-op is commit-eligible once both are.
    if (head_done == tail_done) {
        pushEvent(head_done, uop, 2);
    } else if (head_done < tail_done) {
        pushEvent(head_done, uop, 0);
        pushEvent(tail_done, uop, 2);
    } else {
        pushEvent(tail_done, uop, 1);
        pushEvent(head_done, uop, 2);
    }
    notify(&PipelineObserver::onIssue, *uop, cycle);
}

bool
Pipeline::issueStage()
{
    bool moved = false;
    // Per port class, in PortClass order: the free ports, and the
    // ready µ-ops not yet walked past. A class is open while it has
    // both (and, for the divider, while it is idle); once none is, no
    // µ-op further down the list can issue.
    std::array<unsigned, numPortClasses> free = {
        params.aluPorts,  params.branchPorts, params.mulPorts,
        params.divPorts,  params.loadPorts,   params.storePorts};
    std::array<unsigned, numPortClasses> ahead = readyCount;
    constexpr unsigned div_bit = 1u << unsigned(PortClass::Div);
    unsigned open = 0;
    for (unsigned cls = 0; cls < numPortClasses; ++cls)
        if (free[cls] && ahead[cls])
            open |= 1u << cls;
    if (cycle < divBusyUntil)
        open &= ~div_bit;

    // Walk the intrusive ready list oldest-first, across every class,
    // so a store still executes before a younger load of the same
    // cycle. A µ-op whose class is closed is skipped on its port field
    // alone. Scheduling never touches the list, so capturing `next` up
    // front keeps the walk valid across the immediate readyRemove of
    // an issued µ-op.
    Uop *next = nullptr;
    for (Uop *uop = readyHead; uop && open; uop = next) {
        next = uop->readyNext;
        const PortClass port = uop->port;
        const unsigned cls = unsigned(port);
        const unsigned bit = 1u << cls;
        const bool can_issue = open & bit;
        if (--ahead[cls] == 0)
            open &= ~bit;
        if (!can_issue)
            continue;
        if (--free[cls] == 0)
            open &= ~bit;

        unsigned latency = params.aluLatency;
        // A fused load pair delivers each destination register at its
        // own latency (Section II-B); every other µ-op completes whole.
        std::optional<unsigned> tail_latency;
        switch (port) {
          case PortClass::Mul:
            latency = params.mulLatency;
            break;
          case PortClass::Div:
            latency = params.divLatency;
            divBusyUntil = cycle + params.divLatency;
            if (cycle < divBusyUntil)
                open &= ~div_bit;
            break;
          case PortClass::Load:
          case PortClass::Store: {
            // Address-based fusion validation (case 5, Section IV-C).
            if (uop->fusion == FusionKind::NcsfMem &&
                !validateFusedAddresses(uop)) {
                mispredictPair(uop, "fusion.mispredict_region");
                requestFlush(uop->seq, "fusion_region");
                goto after_loop;
            }
            if (uop->fusion == FusionKind::NcsfMem) {
                if (fusionPred)
                    fusionPred->resolve(uop->fpPred, true);
                literalCounter("fusion.fp_correct")++;
            }
            if (port == PortClass::Store) {
                latency = executeStore(uop);
                break;
            }
            uop->computeMemRange();
            uop->addrKnown = true;
            loadFilter.add(uop->memBegin, uop->memEnd);
            unresolvedKind[uop->seq & inflightMask] = unresolvedNone;
            if (uop->mem & Uop::TailLoad)
                unresolvedKind[uop->tailDyn->seq & inflightMask] =
                    unresolvedNone;
            hot.execLoads++;
            // Each nucleus forwards / accesses the cache and delivers
            // its destination independently (Section II-B).
            if ((uop->mem & Uop::HeadMem) && (uop->mem & Uop::TailMem)) {
                latency = loadHalfLatency(
                    uop->seq, uop->dyn->effAddr,
                    uop->dyn->effAddr + uop->dyn->memSize());
                tail_latency = loadHalfLatency(
                    uop->seq, uop->tailDyn->effAddr,
                    uop->tailDyn->effAddr + uop->tailDyn->memSize());
                break;
            }
            latency =
                loadHalfLatency(uop->seq, uop->memBegin, uop->memEnd);
            break;
          }
          default: // ALU and branch ports
            break;
        }

        scheduleSplitCompletion(uop, latency,
                                tail_latency.value_or(latency));
        readyRemove(uop);
        hot.issueUops++;
        moved = true;
    }

  after_loop:
    if (flushRequestSeq != invalidSeq) {
        const uint64_t target = flushRequestSeq;
        const char *reason = flushReason;
        flushRequestSeq = invalidSeq;
        flushReason = nullptr;
        squashFrom(target, reason);
        moved = true;
    }
    return moved;
}

// ---------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------

void
Pipeline::addWakeEdge(uint32_t &chain, Uop *consumer)
{
    uint32_t edge = freeWakeEdges;
    if (edge != noWakeEdge) {
        freeWakeEdges = wakeEdges[edge].next;
    } else {
        edge = uint32_t(wakeEdges.size());
        wakeEdges.emplace_back();
    }
    wakeEdges[edge] = {consumer, consumer->seq, chain};
    chain = edge;
}

void
Pipeline::wakeDependents(uint32_t &chain)
{
    uint32_t edge = chain;
    chain = noWakeEdge;
    while (edge != noWakeEdge) {
        WakeEdge &node = wakeEdges[edge];
        --node.uop->notReady;
        maybeReady(node.uop);
        const uint32_t next = node.next;
        node.next = freeWakeEdges;
        freeWakeEdges = edge;
        edge = next;
    }
}

void
Pipeline::dropWakeEdges(uint32_t &chain, uint64_t seq_min)
{
    uint32_t *link = &chain;
    while (*link != noWakeEdge) {
        const uint32_t edge = *link;
        WakeEdge &node = wakeEdges[edge];
        if (node.seq < seq_min) {
            link = &node.next;
            continue;
        }
        *link = node.next;
        node.next = freeWakeEdges;
        freeWakeEdges = edge;
    }
}

bool
Pipeline::completeExecution()
{
    // This cycle's slot holds exactly the events due now: run() skips
    // no cycle whose slot holds an event, and pushEvent() keeps each
    // event within one lap.
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
    if (node == noEvent)
        return false;
    slot = noEvent;
    while (node != noEvent) {
        const Event event = eventPool[node];
        eventPool[node].next = freeEvents;
        freeEvents = node;
        node = event.next;

        Uop *uop = event.uop;
        if (uop->uid != event.uid || uop->done)
            continue; // squashed (and possibly refetched)
        if (event.kind == 0) {
            uop->headDone = true;
            wakeDependents(uop->wakeHead);
            continue;
        }
        if (event.kind == 1) {
            uop->tailDone = true;
            wakeDependents(uop->wakeTail);
            continue;
        }
        uop->done = true;
        uop->headDone = true;
        uop->tailDone = true;
        wakeDependents(uop->wakeHead);
        wakeDependents(uop->wakeTail);

        if (uop->isStore())
            storeSets.storeCompleted(uop->dyn->pc, uop->seq);

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
    return true;
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
        const uint64_t distance = uop->tailDyn->seq - uop->dyn->seq;
        if (histPairDistance)
            histPairDistance->addSample(distance);
        if (distance == 1)
            literalCounter("pairs.csf_mem")++;
        else
            literalCounter("pairs.ncsf")++;
        literalCounter("pairs.distance_sum") += distance;
        if (uop->dyn->inst.baseReg() != uop->tailDyn->inst.baseReg())
            literalCounter("pairs.dbr")++;
        const bool static_csf =
            distance == 1 &&
            isMemPairable(uop->dyn->inst, uop->tailDyn->inst, true);
        if (!static_csf)
            literalCounter("pairs.need_prediction")++;
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
bool
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
        stall(literalCounter(cpiCategory));
    }
    // Latched now: a squash later this cycle may remove the head.
    headBlocked = commitsThisCycle == 0 && cpiBlockReason && !rob.empty();
    blockedPc = headBlocked ? rob.front()->dyn->pc : 0;
    return commitsThisCycle > 0;
}

void
Pipeline::commitStageImpl()
{
    unsigned slots = params.commitWidth;
    while (slots > 0 && !rob.empty()) {
        Uop *uop = rob.front();
        if (!uop->done) {
            if (!uop->ncsReady) {
                stall(literalCounter("commit.blocked.ncs_pending"));
                cpiBlockReason = "cpi.fusion.pending";
            } else if (!uop->issued && uop->notReady > 0) {
                stall(literalCounter("commit.blocked.waiting_sources"));
                cpiBlockReason = "cpi.backend.sources";
            } else if (!uop->issued) {
                stall(literalCounter("commit.blocked.port_starved"));
                cpiBlockReason = "cpi.backend.ports";
            } else if (uop->hasTail) {
                stall(literalCounter("commit.blocked.executing_fused"));
                cpiBlockReason = "cpi.exec.fused";
            } else if (uop->isLoad()) {
                stall(literalCounter("commit.blocked.executing_load"));
                cpiBlockReason = "cpi.exec.load";
            } else if (uop->isStore()) {
                stall(literalCounter("commit.blocked.executing_store"));
                cpiBlockReason = "cpi.exec.store";
            } else {
                stall(literalCounter("commit.blocked.executing"));
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
            uop->tailDyn->seq > uop->seq + 1) {
            const uint8_t wanted =
                uop->isLoad() ? unresolvedStore : unresolvedLoad;
            bool blocked = false;
            // Catalyst window only (bounded by maxFusionDistance).
            for (uint64_t s = uop->seq + 1; s < uop->tailDyn->seq; ++s) {
                if (unresolvedKind[s & inflightMask] == wanted) {
                    blocked = true;
                    break;
                }
            }
            if (blocked) {
                stall(literalCounter("commit.blocked.catalyst_unresolved"));
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
        if (uop->hasTail) {
            countFusedPair(uop);
            // A flush inside an NCSF pair's catalyst must not fetch
            // its retired tail again (fetchFrom skips it).
            tailCommitted[uop->tailDyn->seq & inflightMask] = 1;
        }

        // UCH training (Helios): unfused committed memory µ-ops look
        // for a same-line partner among recent commits.
        if (params.fusion == FusionMode::Helios && uop->isMem() &&
            uop->fusion == FusionKind::None) {
            const auto cn = uint8_t(uop->seq & 0x7f);
            const uint64_t line = uop->dyn->effAddr / params.lineBytes;
            const auto distance =
                uop->isLoad() ? uch.accessLoad(line, cn)
                              : uch.accessStore(line, cn);
            if (distance) {
                literalCounter("uch.matches")++;
                fusionPred->train(uop->dyn->pc, uop->fetchHistory,
                                 *distance);
            }
        }

        if ((hot.commitUops.value() & 0xffff) == 0)
            storeSets.age();
        rob.pop_front();
        if (uop->isLoad()) {
            helios_assert(!lqList.empty() && lqList.front() == uop,
                          "LQ order mismatch");
            lqList.pop_front();
            if (uop->addrKnown)
                loadFilter.remove(uop->memBegin, uop->memEnd);
        }
        if (uop->isStore()) {
            helios_assert(!sqList.empty() && sqList.front() == uop,
                          "SQ order mismatch");
            sqList.pop_front();
            // The store stays in storeFilter until it drains: the
            // drain queue is still scanned for forwarding.
            DrainEntry &entry = drainQueue.emplace_back();
            entry.count = storeNuclei(*uop, entry.nuclei);
            entry.begin = uop->memBegin;
            entry.end = uop->memEnd;
        }
        uopPool.release(inflightErase(uop->seq));
        --slots;
    }
}

bool
Pipeline::drainStores()
{
    if (drainQueue.empty() || cycle < drainBusyUntil)
        return false;
    const DrainEntry &store = drainQueue.front();
    const uint64_t first_line = store.begin / params.lineBytes;
    const uint64_t last_line = (store.end - 1) / params.lineBytes;
    unsigned latency = caches.storeDrain(first_line);
    if (last_line != first_line)
        latency += caches.storeDrain(last_line);
    drainBusyUntil = cycle + latency;
    literalCounter("sq.drained")++;
    storeFilter.remove(store.begin, store.end);
    drainQueue.pop_front();
    return true;
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
Pipeline::fetchFrom(uint64_t seq)
{
    while (seq < feedSeq && tailCommitted[seq & inflightMask])
        ++seq;
    fetchSeq = seq;
}

void
Pipeline::squashFrom(uint64_t seq_min, const char *reason)
{
    // issueStage's two flush requests name one of these reasons.
    literalCounter(std::string_view(reason) == "order_violation"
                       ? "flush.order_violation"
                       : "flush.fusion_region")++;

    // Both requests name a dispatched µ-op, so the flush point lies in
    // the ROB and everything outside it is younger and goes. The
    // rename backlog, the AQ and the decode pipe hold one seq-ordered
    // run, oldest first.
    uint64_t oldest_outside = invalidSeq;
    if (!renamedQueue.empty())
        oldest_outside = renamedQueue.front()->seq;
    else if (!aq.empty())
        oldest_outside = aq.front()->seq;
    else if (!decodePipe.empty())
        oldest_outside =
            decodePipe.front().uops[decodePipe.front().consumed]->seq;
    helios_assert(oldest_outside >= seq_min,
                  "flush point younger than a µ-op outside the ROB");

    // Solution ii) of Section IV-C: if a surviving fused µ-op's tail
    // would be squashed, move the flush point up to that head. Walking
    // the ROB youngest-first reaches the fixed point in one pass.
    for (size_t i = rob.size(); i-- > 0;) {
        const Uop *uop = rob[i];
        if (uop->hasTail && uop->seq < seq_min &&
            uop->tailDyn->seq >= seq_min)
            seq_min = uop->seq;
    }

    // Unlink the squashed µ-ops from every structure first; the
    // records themselves are released in the sweep below. A pending
    // pair's marker waits in the AQ, so the move-up squashed every
    // active NCSF head with it.
    while (readyTail && readyTail->seq >= seq_min)
        readyRemove(readyTail);
    auto chop = [seq_min](RingBuffer<Uop *> &ring) {
        while (!ring.empty() && ring.back()->seq >= seq_min)
            ring.pop_back();
    };
    chop(rob);
    chop(lqList);
    chop(sqList);
    renamedQueue.clear();
    aq.clear();
    decodePipe.clear();
    activeNcsHeads = 0;

    // Unlink the squashed µ-ops from survivors' wakeup chains (both
    // halves: a stale edge would decrement the notReady count of
    // whatever µ-op reuses the squashed record).
    for (Uop *uop : rob) {
        dropWakeEdges(uop->wakeHead, seq_min);
        dropWakeEdges(uop->wakeTail, seq_min);
    }

    // Sweep the squashed seq range in ascending order: fire the
    // hooks, undo the resource accounting, and release the records.
    // Everything fetched lies below fetchSeq.
    helios_assert(seq_min < fetchSeq, "flush point was never fetched");
    uint64_t squashed_count = 0;
    for (uint64_t s = seq_min; s < fetchSeq; ++s) {
        unresolvedKind[s & inflightMask] = unresolvedNone;
        Uop *uop = findInflight(s);
        if (!uop)
            continue;
        ++squashed_count;
        notify(&PipelineObserver::onSquash, *uop, cycle, reason);
        dropWakeEdges(uop->wakeHead, 0);
        dropWakeEdges(uop->wakeTail, 0);
        // A completion event still due finds the released record
        // done, or holding a younger uid.
        uop->done = true;
        if (uop->isTailMarker) {
            // The head is older; if it survived we would have moved
            // the flush point above, so the head is squashed too.
            helios_assert(uop->pairSeq >= seq_min,
                          "marker survived its head's squash");
        } else {
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

    // Rebuild the RAT from the survivors in program order. The move-up
    // squashed every head whose marker had not renamed, so each fused
    // survivor maps its tail destination too.
    for (RatEntry &entry : rat)
        entry.producerSeq = invalidSeq;
    for (const Uop *uop : rob) {
        if (uop->headRd)
            rat[uop->headRd].producerSeq = uop->seq;
        if (uop->tailRd)
            rat[uop->tailRd].producerSeq = uop->seq;
    }

    storeSets.squash(seq_min);

    // Replay from the flush point: fetch re-reads the ring.
    fetchFrom(seq_min);
    if (fetchStallSeq >= seq_min)
        fetchStallSeq = invalidSeq;
    lastFetchLine = ~0ULL;
    resumeFetchAfter(params.mispredictPenalty);
    literalCounter("flush.squashed_uops") += squashed_count;
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

void
Pipeline::stall(Stat &stat)
{
    stat++;
    helios_assert(numCycleStalls < cycleStalls.size(),
                  "more stalls in one cycle than stages");
    cycleStalls[numCycleStalls++] = &stat;
}

void
Pipeline::sampleOccupancy(uint64_t weight)
{
    if (!params.sampleHistograms)
        return;
    histRob->addSample(rob.size(), weight);
    histIq->addSample(iqCount, weight);
    histLq->addSample(lqList.size(), weight);
    histSq->addSample(sqList.size(), weight);
}

void
Pipeline::notifyCycleEnd()
{
    notify(&PipelineObserver::onCycleEnd,
           CycleView{.cycle = cycle, .rob = &rob, .aq = &aq,
                     .lq = &lqList, .sq = &sqList, .iqCount = iqCount,
                     .drainCount = drainQueue.size(),
                     .inflightCount = inflightCount,
                     .cpiCategory = cpiCategory,
                     .headBlocked = headBlocked, .blockedPc = blockedPc});
}

/**
 * A cycle in which no stage moved anything leaves the machine as it
 * found it, so the next cycle repeats it unless a stage compares the
 * cycle against a time. The wakes below are every such comparison: a
 * due completion event, the end of a fetch block, the decode-pipe
 * head's ready cycle, the end of a store drain and, for a waiting
 * divide, the divider's busy time. A wake at or before the quiet cycle
 * had already passed there, so it changes nothing ahead.
 */
void
Pipeline::skipQuietCycles(uint64_t limit)
{
    uint64_t wake = limit;
    const auto due = [&](uint64_t at) {
        if (at >= cycle)
            wake = std::min(wake, at);
    };
    due(fetchBlockedUntil);
    if (!decodePipe.empty())
        due(decodePipe.front().readyCycle);
    if (!drainQueue.empty())
        due(drainBusyUntil);
    if (readyHead)
        due(divBusyUntil);
    // Every pending event is due within one lap of the wheel.
    const uint64_t lap_end = std::min(wake, cycle + wheel.size());
    for (uint64_t at = cycle; at < lap_end; ++at) {
        if (wheel[at & wheelMask] != noEvent) {
            wake = at;
            break;
        }
    }
    if (wake <= cycle)
        return;

    const uint64_t skipped = wake - cycle;
    for (unsigned i = 0; i < numCycleStalls; ++i)
        *cycleStalls[i] += skipped;
    sampleOccupancy(skipped);
    if (observers.empty()) {
        cycle = wake;
        return;
    }
    while (cycle < wake) {
        ++cycle;
        notifyCycleEnd();
    }
}

PipelineResult
Pipeline::run()
{
    uint64_t last_commit_count = 0;
    uint64_t last_progress_cycle = 0;
    bool drained = false;

    while (cycle < params.maxCycles) {
        numCycleStalls = 0;
        bool moved = commitStage();
        moved |= drainStores();
        moved |= completeExecution();
        moved |= issueStage();
        moved |= dispatchStage();
        moved |= renameStage();
        moved |= aqInsertStage();
        moved |= fetchStage();
        ++cycle;

        sampleOccupancy(1);
        if (!observers.empty())
            notifyCycleEnd();

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

        if (feedExhausted && fetchSeq == feedSeq &&
            inflightCount == 0 &&
            drainQueue.empty() && decodePipe.empty() &&
            renamedQueue.empty() && aq.empty() && rob.empty()) {
            drained = true;
            break;
        }

        // A quiet cycle commits nothing, so the skip neither latches
        // the watch nor drains; it stops on the cycle cap and where
        // the deadlock check below would fire.
        if (!moved)
            skipQuietCycles(std::min(params.maxCycles,
                                     last_progress_cycle +
                                         deadlockHorizon + 1));

        const uint64_t committed = hot.commitInsts.value();
        if (committed != last_commit_count) {
            last_commit_count = committed;
            last_progress_cycle = cycle;
        } else if (cycle - last_progress_cycle > deadlockHorizon) {
            if (!rob.empty()) {
                const Uop *head = rob.front();
                warn("ROB head seq=%llu pc=0x%llx fused=%d "
                     "ncsReady=%d notReady=%d issued=%d done=%d",
                     static_cast<unsigned long long>(head->seq),
                     static_cast<unsigned long long>(head->dyn->pc),
                     int(head->fusion), int(head->ncsReady),
                     int(head->notReady), int(head->issued),
                     int(head->done));
            }
            panic("pipeline deadlock at cycle %llu (committed %llu)",
                  static_cast<unsigned long long>(cycle),
                  static_cast<unsigned long long>(committed));
        }
    }

    notify(&PipelineObserver::onFinish, drained, cycle);

    literalCounter("cycles") += cycle;
    PipelineResult result;
    result.cycles = cycle;
    result.instructions = hot.commitInsts.value();
    result.uops = hot.commitUops.value();
    return result;
}

} // namespace helios
