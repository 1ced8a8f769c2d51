#include "uarch/auditor.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "fusion/idiom.hh"
#include "uarch/pipeline.hh"

namespace helios
{

namespace
{

constexpr uint64_t invalidSeq = ~0ULL;

bool
overlap(uint64_t a_begin, uint64_t a_end, uint64_t b_begin,
        uint64_t b_end)
{
    return a_begin < b_end && b_begin < a_end;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (uint8_t(c) < 0x20)
                out += strFormat("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

/** Source registers the tail nucleus of a memory pair reads. */
void
tailSources(const Instruction &tail, unsigned sources[2], int &count)
{
    count = 0;
    if (tail.readsRs1())
        sources[count++] = tail.rs1;
    if (tail.isStore() && tail.readsRs2())
        sources[count++] = tail.rs2;
}

} // namespace

std::string
AuditViolation::toJson() const
{
    return strFormat("{\"invariant\":\"%s\",\"seq\":%llu,"
                     "\"cycle\":%llu,\"detail\":\"%s\"}",
                     jsonEscape(invariant).c_str(),
                     static_cast<unsigned long long>(seq),
                     static_cast<unsigned long long>(cycle),
                     jsonEscape(detail).c_str());
}

PipelineAuditor::PipelineAuditor(const CoreParams &p)
    : params(p),
      recs(std::bit_ceil(inflightRingSize(p) + committedRetention)),
      recMask(recs.size() - 1)
{
}

void
Pipeline::attachAuditor(PipelineAuditor *auditor)
{
    attach(auditor);
}

PipelineAuditor::Rec *
PipelineAuditor::findRec(uint64_t seq)
{
    Rec &slot = recs[seq & recMask];
    if (slot.state != SeqState::Free && slot.dyn.seq == seq)
        return &slot;
    if (displaced.empty())
        return nullptr;
    auto it = displaced.find(seq);
    return it == displaced.end() ? nullptr : &it->second;
}

/** Back to unseen; a refetch re-creates the record. */
void
PipelineAuditor::dropRec(uint64_t seq)
{
    Rec &slot = recs[seq & recMask];
    if (slot.state != SeqState::Free && slot.dyn.seq == seq)
        slot.state = SeqState::Free;
    else
        displaced.erase(seq);
}

void
PipelineAuditor::report(const char *invariant, uint64_t seq,
                        uint64_t cycle, std::string detail)
{
    // Persisting violations (e.g. an oversized queue) would flood the
    // report: record the first few instances fully, count the rest.
    const uint64_t count = ++violationCounts[invariant];
    if (count <= 4 || theViolations.size() < maxRecorded)
        theViolations.push_back(
            {invariant, seq, cycle, std::move(detail)});
}

// ---------------------------------------------------------------------
// Event hooks
// ---------------------------------------------------------------------

void
PipelineAuditor::onFetch(const Uop &uop, uint64_t cycle)
{
    ++checks;
    ++fetchEvents;
    anyFetched = true;
    minSeq = std::min(minSeq, uop.seq);
    maxSeq = std::max(maxSeq, uop.seq);

    if (const Rec *rec = findRec(uop.seq)) {
        report(rec->state == SeqState::Committed
                   ? "fetch.refetch_committed"
                   : "fetch.duplicate",
               uop.seq, cycle,
               strFormat("seq %llu fetched while already tracked",
                         static_cast<unsigned long long>(uop.seq)));
        return;
    }
    // A committed record in the slot is past retention and goes; an
    // uncommitted one must still be found, and reported if it leaks.
    Rec &slot = recs[uop.seq & recMask];
    if (slot.state == SeqState::InFlight ||
        slot.state == SeqState::Absorbed)
        displaced.emplace(slot.dyn.seq, slot);
    slot = Rec{.dyn = *uop.dyn, .state = SeqState::InFlight};
}

void
PipelineAuditor::onFusePair(const Uop &head, const DynInst &tail,
                            FusionKind kind, bool absorbed,
                            uint64_t cycle)
{
    ++checks;
    const uint64_t head_seq = head.seq;
    const uint64_t tail_seq = tail.seq;
    const Instruction &hi = head.dyn->inst;
    const Instruction &ti = tail.inst;

    if (tail_seq <= head_seq) {
        report("pair.order", head_seq, cycle,
               strFormat("tail seq %llu not younger than head %llu",
                         static_cast<unsigned long long>(tail_seq),
                         static_cast<unsigned long long>(head_seq)));
        return;
    }
    const uint64_t distance = tail_seq - head_seq;

    switch (kind) {
      case FusionKind::CsfMem:
      case FusionKind::CsfOther: {
        if (distance != 1)
            report("pair.csf_distance", head_seq, cycle,
                   strFormat("consecutive pair with distance %llu",
                             static_cast<unsigned long long>(distance)));
        const Idiom idiom = matchIdiom(hi, ti);
        if (idiom == Idiom::None)
            report("pair.illegal_idiom", head_seq, cycle,
                   "consecutive pair matches no Table I idiom");
        else if (isMemoryIdiom(idiom) != (kind == FusionKind::CsfMem))
            report("pair.idiom_kind", head_seq, cycle,
                   "idiom class does not match fusion kind");
        break;
      }
      case FusionKind::NcsfMem: {
        const bool both_loads = hi.isLoad() && ti.isLoad();
        const bool both_stores = hi.isStore() && ti.isStore();
        if (!both_loads && !both_stores)
            report("pair.mixed_kind", head_seq, cycle,
                   "memory pair mixes a load and a store");
        if (distance > params.maxFusionDistance)
            report("pair.distance", head_seq, cycle,
                   strFormat("distance %llu exceeds limit %u",
                             static_cast<unsigned long long>(distance),
                             params.maxFusionDistance));
        if (both_stores && hi.baseReg() != ti.baseReg())
            report("pair.store_dbr", head_seq, cycle,
                   "store pair with different base registers");
        if (hi.writesReg() && hi.rd == ti.baseReg())
            report("pair.dependent_base", head_seq, cycle,
                   "tail base register produced by the head nucleus");
        break;
      }
      default:
        report("pair.kind", head_seq, cycle, "fused with kind None");
        break;
    }

    Rec *head_rec = findRec(head_seq);
    if (!head_rec) {
        report("pair.unknown_head", head_seq, cycle,
               "fused head was never fetched");
        return;
    }
    if (head_rec->pairTail)
        report("pair.double_fuse", head_seq, cycle,
               "head fused while already paired");
    else
        head_rec->pairTail = tail_seq;
    head_rec->partOfPair = true;

    if (absorbed) {
        onTailAbsorbed(tail_seq, head_seq, cycle);
    } else if (Rec *rec = findRec(tail_seq);
               rec && rec->state != SeqState::InFlight) {
        report("pair.tail_state", tail_seq, cycle,
               "pending tail is not in flight");
    }
}

void
PipelineAuditor::onTailAbsorbed(uint64_t tail_seq, uint64_t head_seq,
                                uint64_t cycle)
{
    ++checks;
    const Rec *head_rec = findRec(head_seq);
    if (!head_rec || head_rec->pairTail != tail_seq) {
        report("pair.unpaired_absorb", tail_seq, cycle,
               strFormat("tail absorbed into head %llu without a "
                         "matching pair record",
                         static_cast<unsigned long long>(head_seq)));
    }
    Rec *rec = findRec(tail_seq);
    if (!rec) {
        report("pair.unknown_tail", tail_seq, cycle,
               "absorbed tail was never fetched");
        return;
    }
    if (rec->state != SeqState::InFlight) {
        report(rec->state == SeqState::Committed
                   ? "pair.absorb_committed"
                   : "pair.double_absorb",
               tail_seq, cycle, "absorbed tail not in flight");
        return;
    }
    rec->state = SeqState::Absorbed;
    rec->partOfPair = true;
}

void
PipelineAuditor::onUnfuse(const Uop &head, uint64_t tail_seq,
                          uint64_t cycle)
{
    ++checks;
    Rec *head_rec = findRec(head.seq);
    if (!head_rec || !head_rec->pairTail) {
        report("pair.unfuse_unpaired", head.seq, cycle,
               "unfused a head with no pair record");
        return;
    }
    if (head_rec->pairTail != tail_seq)
        report("pair.unfuse_tail", head.seq, cycle,
               strFormat("unfuse names tail %llu, pair records %llu",
                         static_cast<unsigned long long>(tail_seq),
                         static_cast<unsigned long long>(
                             head_rec->pairTail)));
    head_rec->pairTail = 0;
    head_rec->partOfPair = false;

    // The tail must still be a live µ-op of its own: an absorbed tail
    // has no marker left to re-dispatch, so unfusing it would drop an
    // architectural instruction.
    Rec *rec = findRec(tail_seq);
    if (rec)
        rec->partOfPair = false;
    if (!rec || rec->state != SeqState::InFlight)
        report("pair.unfuse_absorbed", tail_seq, cycle,
               "unfused tail is not in flight");
}

void
PipelineAuditor::onIssue(const Uop &uop, uint64_t cycle)
{
    ++checks;
    Rec *rec = findRec(uop.seq);
    if (!rec || rec->state != SeqState::InFlight) {
        report("issue.unknown", uop.seq, cycle,
               "issued µ-op is not tracked as in flight");
        return;
    }
    rec->issued = true;
    rec->issueCycle = cycle;
    rec->doneCycle = uop.doneCycle;

    // A catalyst memory access executing only after a fused pair
    // committed is a memory-order break the pipeline's LQ/SQ snoops
    // can no longer see (the pair left the queues at commit): an old
    // store against a committed load pair's tail read, or an old load
    // against a committed store pair's tail bytes about to drain.
    if (uop.isMem()) {
        const auto &pairs =
            uop.isStore() ? committedLoadPairs : committedStorePairs;
        for (const CommittedPair &pair : pairs) {
            if (uop.seq <= pair.headSeq || uop.seq >= pair.tailSeq)
                continue;
            uint64_t begin = uop.dyn->effAddr;
            uint64_t end = begin + uop.dyn->memSize();
            if (uop.hasTail && uop.tailDyn->inst.isMem()) {
                begin = std::min(begin, uop.tailDyn->effAddr);
                end = std::max(end, uop.tailDyn->effAddr +
                                        uop.tailDyn->memSize());
            }
            if (overlap(begin, end, pair.tailBegin, pair.tailEnd))
                report(uop.isStore() ? "pair.store_after_commit"
                                     : "pair.load_after_commit",
                       uop.seq, cycle,
                       strFormat("%s issued after fused %s pair "
                                 "%llu+%llu committed over its bytes",
                                 uop.isStore() ? "store" : "load",
                                 uop.isStore() ? "load" : "store",
                                 static_cast<unsigned long long>(
                                     pair.headSeq),
                                 static_cast<unsigned long long>(
                                     pair.tailSeq)));
        }
    }
}

void
PipelineAuditor::checkPairAtCommit(const Uop &uop, const Rec &head_rec,
                                   uint64_t cycle)
{
    if (uop.fusion == FusionKind::CsfOther)
        return; // non-memory idiom: nothing address-shaped to check

    const DynInst &head = *uop.dyn;
    const DynInst &tail = *uop.tailDyn;

    // Combined access must fit the fusion region (one cache access).
    if (head.inst.isMem() && tail.inst.isMem()) {
        const uint64_t begin = std::min(head.effAddr, tail.effAddr);
        const uint64_t end =
            std::max(head.effAddr + head.memSize(),
                     tail.effAddr + tail.memSize());
        if (end - begin > params.fusionRegionBytes)
            report("pair.region", uop.seq, cycle,
                   strFormat("committed pair spans %llu bytes "
                             "(region is %u)",
                             static_cast<unsigned long long>(end - begin),
                             params.fusionRegionBytes));
    }

    if (uop.fusion != FusionKind::NcsfMem || tail.seq == head.seq + 1)
        return; // catalyst checks only apply to non-consecutive pairs

    unsigned sources[2];
    int num_sources;
    tailSources(tail.inst, sources, num_sources);
    bool source_open[2] = {true, true};

    // Walk the catalyst window youngest-first through our own mirror;
    // only the last writer of each tail source matters.
    for (uint64_t seq = tail.seq; seq-- > head.seq + 1;) {
        const Rec *rec = findRec(seq);
        if (!rec)
            continue; // squashed and not refetched yet: unobservable
        const Instruction &inst = rec->dyn.inst;

        // Store pairs tolerate no store in their catalyst: the tail
        // store would retire out of order with it.
        if (uop.isStore() && inst.isStore())
            report("pair.store_catalyst", uop.seq, cycle,
                   strFormat("store seq %llu between fused store pair",
                             static_cast<unsigned long long>(seq)));

        // A load pair hoists its tail bytes above every catalyst
        // store: any overlapping store must have executed before the
        // pair read (store-to-load forwarding covers it then).
        if (uop.isLoad() && inst.isStore() && rec->issued) {
            const uint64_t s_begin = rec->dyn.effAddr;
            const uint64_t s_end = s_begin + rec->dyn.memSize();
            if (overlap(s_begin, s_end, tail.effAddr,
                        tail.effAddr + tail.memSize()) &&
                head_rec.issued &&
                rec->issueCycle >= head_rec.issueCycle)
                report("pair.store_order", uop.seq, cycle,
                       strFormat("catalyst store %llu executed after "
                                 "the fused load pair read its bytes",
                                 static_cast<unsigned long long>(seq)));
        }

        if (!inst.writesReg())
            continue;
        for (int i = 0; i < num_sources; ++i) {
            if (!source_open[i] || inst.rd != sources[i])
                continue;
            source_open[i] = false; // last writer found
            if (rec->partOfPair)
                continue; // the head or absorbed tail of a fused pair
                          // delivers its registers at per-half
                          // latencies the mirror cannot see
            if (inst.isLoad()) {
                // Late-RaW rule: a load-produced tail source costs the
                // pair its early issue; the pipeline unfuses these.
                report("pair.late_raw", uop.seq, cycle,
                       strFormat("tail source x%u produced by catalyst "
                                 "load %llu",
                                 sources[i],
                                 static_cast<unsigned long long>(seq)));
            } else if (head_rec.issued &&
                       (!rec->issued ||
                        rec->doneCycle > head_rec.issueCycle)) {
                report("pair.raw_order", uop.seq, cycle,
                       strFormat("pair issued before catalyst producer "
                                 "%llu of x%u completed",
                                 static_cast<unsigned long long>(seq),
                                 sources[i]));
            }
        }
    }
}

void
PipelineAuditor::onCommit(const Uop &uop, uint64_t cycle)
{
    ++checks;
    if (haveCommitted && uop.seq <= lastCommitSeq)
        report("commit.order", uop.seq, cycle,
               strFormat("commit seq %llu after %llu",
                         static_cast<unsigned long long>(uop.seq),
                         static_cast<unsigned long long>(lastCommitSeq)));
    haveCommitted = true;
    lastCommitSeq = uop.seq;

    Rec *rec = findRec(uop.seq);
    if (!rec) {
        report("commit.unknown", uop.seq, cycle,
               "committed µ-op was never fetched");
        return;
    }
    if (rec->state != SeqState::InFlight) {
        report(rec->state == SeqState::Committed ? "commit.twice"
                                                 : "commit.absorbed",
               uop.seq, cycle, "committed µ-op not in flight");
        return;
    }
    rec->state = SeqState::Committed;
    ++committedSeqs;

    if (uop.hasTail) {
        if (!rec->pairTail)
            report("pair.commit_unpaired", uop.seq, cycle,
                   "fused µ-op committed without a pair record");
        else if (rec->pairTail != uop.tailDyn->seq)
            report("pair.commit_tail", uop.seq, cycle,
                   "committed tail differs from the fused tail");
        rec->pairTail = 0;

        Rec *tail_rec = findRec(uop.tailDyn->seq);
        if (!tail_rec) {
            report("commit.unknown_tail", uop.tailDyn->seq, cycle,
                   "committed tail was never fetched");
        } else if (tail_rec->state != SeqState::Absorbed) {
            report(tail_rec->state == SeqState::Committed
                       ? "commit.tail_twice"
                       : "commit.tail_unabsorbed",
                   uop.tailDyn->seq, cycle,
                   "committed tail nucleus was not absorbed");
        } else {
            tail_rec->state = SeqState::Committed;
            ++committedSeqs;
        }

        checkPairAtCommit(uop, *rec, cycle);

        if (uop.fusion == FusionKind::NcsfMem &&
            uop.tailDyn->seq > uop.seq + 1) {
            auto &pairs = uop.isLoad() ? committedLoadPairs
                                       : committedStorePairs;
            pairs.push_back(
                {uop.seq, uop.tailDyn->seq, uop.tailDyn->effAddr,
                 uop.tailDyn->effAddr + uop.tailDyn->memSize(),
                 rec->issueCycle});
        }
    } else if (rec->pairTail) {
        report("pair.commit_unfused", uop.seq, cycle,
               "pair record survives but the head committed unfused");
        rec->pairTail = 0;
    }

    // Catalysts of a committed pair all have seq < tailSeq and commit
    // in order: once commit passes the tail, none remain.
    const auto retired = [this](const CommittedPair &pair) {
        return pair.tailSeq <= lastCommitSeq;
    };
    std::erase_if(committedLoadPairs, retired);
    std::erase_if(committedStorePairs, retired);
}

void
PipelineAuditor::onSquash(const Uop &uop, uint64_t cycle, const char *)
{
    ++checks;
    auto drop = [&](uint64_t seq) {
        Rec *rec = findRec(seq);
        if (!rec) {
            report("squash.unknown", seq, cycle,
                   "squashed µ-op is not tracked");
            return;
        }
        if (rec->state == SeqState::Committed) {
            report("squash.committed", seq, cycle,
                   "squashed an already-committed µ-op");
            return;
        }
        dropRec(seq);
    };

    drop(uop.seq);
    if (uop.isTailMarker)
        return; // the pair record lives on (and dies with) the head
    if (uop.hasTail) {
        // The tail nucleus replays with its head. A pending (predicted)
        // tail still has its own marker in flight, which this squash
        // visits separately; only absorbed tails are dropped here.
        Rec *tail_rec = findRec(uop.tailDyn->seq);
        if (tail_rec && tail_rec->state == SeqState::Absorbed)
            drop(uop.tailDyn->seq);
    }
    // drop() freed the head's record unless it had committed.
    if (Rec *rec = findRec(uop.seq))
        rec->pairTail = 0;
}

void
PipelineAuditor::onCycleEnd(const CycleView &view)
{
    ++cyclesAudited;
    checks += 5;

    auto check_limit = [&](const char *name, size_t size, size_t limit) {
        if (size > limit)
            report("structure.overflow", 0, view.cycle,
                   strFormat("%s holds %zu entries (limit %zu)", name,
                             size, limit));
    };
    if (view.rob)
        check_limit("ROB", view.rob->size(), params.robSize);
    if (view.aq)
        check_limit("AQ", view.aq->size(), params.aqSize);
    check_limit("IQ", view.iqCount, params.iqSize);
    if (view.lq)
        check_limit("LQ", view.lq->size(), params.lqSize);
    if (view.sq)
        check_limit("SQ", view.sq->size() + view.drainCount,
                    params.sqSize);

    if (cyclesAudited % scanInterval == 0)
        checkOrderedScan(view);
}

void
PipelineAuditor::checkOrderedScan(const CycleView &view)
{
    auto check_order = [&](const char *name,
                           const RingBuffer<Uop *> *queue) {
        if (!queue)
            return;
        ++checks;
        uint64_t prev = invalidSeq;
        for (const Uop *uop : *queue) {
            if (prev != invalidSeq && uop->seq <= prev) {
                report("structure.order", uop->seq, view.cycle,
                       strFormat("%s entries out of program order "
                                 "(%llu after %llu)",
                                 name,
                                 static_cast<unsigned long long>(
                                     uop->seq),
                                 static_cast<unsigned long long>(prev)));
                return;
            }
            prev = uop->seq;
        }
    };
    check_order("ROB", view.rob);
    check_order("LQ", view.lq);
    check_order("SQ", view.sq);
}

void
PipelineAuditor::onFinish(bool drained, uint64_t cycle)
{
    ++checks;
    if (!drained)
        return; // budget abort: in-flight leftovers are legitimate

    // Leaks in ascending seq order, wherever their records live, and
    // the pair records left, reported at the oldest head.
    std::vector<const Rec *> leaked;
    const Rec *first_pair = nullptr;
    size_t pairs = 0;
    const auto scan = [&](const Rec &rec) {
        if (rec.state == SeqState::InFlight ||
            rec.state == SeqState::Absorbed)
            leaked.push_back(&rec);
        if (rec.state != SeqState::Free && rec.pairTail) {
            ++pairs;
            if (!first_pair || rec.dyn.seq < first_pair->dyn.seq)
                first_pair = &rec;
        }
    };
    for (const Rec &rec : recs)
        scan(rec);
    for (const auto &[seq, rec] : displaced)
        scan(rec);
    std::sort(leaked.begin(), leaked.end(),
              [](const Rec *a, const Rec *b) {
                  return a->dyn.seq < b->dyn.seq;
              });
    for (const Rec *rec : leaked)
        report(rec->state == SeqState::Absorbed ? "leak.absorbed"
                                                 : "leak.inflight",
               rec->dyn.seq, cycle,
               "µ-op neither committed nor squashed at drain");
    if (pairs)
        report("leak.pair", first_pair->dyn.seq, cycle,
               strFormat("%zu pair records survive the drain", pairs));

    // Exactly-once: the feed's sequence numbers are contiguous, so the
    // committed count must cover [minSeq, maxSeq] with no gaps.
    if (anyFetched) {
        const uint64_t expected = maxSeq - minSeq + 1;
        if (committedSeqs != expected)
            report("leak.count", 0, cycle,
                   strFormat("committed %llu of %llu fetched sequence "
                             "numbers",
                             static_cast<unsigned long long>(
                                 committedSeqs),
                             static_cast<unsigned long long>(expected)));
    }
}

std::string
PipelineAuditor::toJson() const
{
    std::string out = strFormat(
        "{\"ok\":%s,\"checks\":%llu,\"uops\":%llu,\"violations\":[",
        ok() ? "true" : "false",
        static_cast<unsigned long long>(checks),
        static_cast<unsigned long long>(fetchEvents));
    for (size_t i = 0; i < theViolations.size(); ++i) {
        if (i)
            out += ',';
        out += theViolations[i].toJson();
    }
    out += "],\"counts\":{";
    bool first = true;
    for (const auto &[name, count] : violationCounts) {
        if (!first)
            out += ',';
        first = false;
        out += strFormat("\"%s\":%llu", jsonEscape(name).c_str(),
                         static_cast<unsigned long long>(count));
    }
    out += "}}";
    return out;
}

} // namespace helios
