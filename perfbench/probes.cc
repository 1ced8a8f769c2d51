/**
 * @file
 * Standalone layer probes for the traced run.
 *
 * Some layers are called millions of times per operation (the feed,
 * the branch predictor, the caches, the idiom matcher); a span per
 * call would cost more than the call. These probes time each of them
 * as one aggregated pass over the fig10 suite's instruction streams,
 * one span per kernel with the number of calls as its count.
 */

#include "bench.hh"
#include "fusion/idiom.hh"
#include "harness/runner.hh"
#include "sim/hart.hh"
#include "uarch/branch_pred.hh"
#include "uarch/cache.hh"

namespace perfbench
{

using namespace helios;

void
probeFeed(const std::vector<Workload> &suite, uint64_t budget)
{
    for (const Workload &workload : suite) {
        Memory mem;
        Hart hart(mem);
        hart.reset(workload.program());
        HartFeed feed(hart, budget);
        DynInst inst;
        uint64_t drained = 0;
        Span span("sim.feed_drain", true);
        while (feed.next(inst))
            ++drained;
        span.setCount(drained);
    }
}

Facts
probeReplay(const std::vector<Workload> &suite, uint64_t budget)
{
    const CoreParams params = CoreParams::icelake(FusionMode::None);
    Facts facts;
    std::vector<DynInst> stream;
    for (const Workload &workload : suite) {
        stream.clear();
        forEachDynInst(workload, budget,
                       [&](const DynInst &inst) { stream.push_back(inst); });
        facts["insts"] += double(stream.size());

        {
            // As fetch calls it: every control µ-op, in program order.
            BranchPredictor bpred;
            Span span("uarch.bpred_replay", true);
            for (const DynInst &inst : stream)
                if (inst.inst.isControl())
                    bpred.predictAndCheck(inst.pc, inst.inst, inst.taken,
                                          inst.nextPc);
            span.setCount(bpred.lookups);
            facts["bpred.lookups"] += double(bpred.lookups);
            facts["bpred.mispredicts"] += double(bpred.mispredicts);
        }
        {
            // Fetch charges the I-side on every new line; loads and
            // stores access the D-side for each line they touch.
            CacheHierarchy caches(params);
            uint64_t accesses = 0;
            uint64_t last_line = ~0ULL;
            Span span("uarch.cache_replay", true);
            for (const DynInst &inst : stream) {
                const uint64_t line = inst.pc / params.lineBytes;
                if (line != last_line) {
                    last_line = line;
                    caches.instAccess(line);
                    ++accesses;
                }
                if (inst.isMem()) {
                    const uint64_t first = inst.effAddr / params.lineBytes;
                    const uint64_t last =
                        (inst.effAddr + inst.memSize() - 1) /
                        params.lineBytes;
                    caches.dataAccess(first);
                    ++accesses;
                    if (last != first) {
                        caches.dataAccess(last);
                        ++accesses;
                    }
                }
            }
            span.setCount(accesses);
            facts["cache.accesses"] += double(accesses);
            facts["l1d.hits"] += double(caches.l1d.hits);
            facts["l1d.misses"] += double(caches.l1d.misses);
            facts["l2.hits"] += double(caches.l2.hits);
            facts["l2.misses"] += double(caches.l2.misses);
        }
        {
            // Every consecutive pair, as decode would see it.
            uint64_t matched = 0;
            Span span("fusion.idiom_replay", true);
            for (size_t i = 1; i < stream.size(); ++i)
                matched += matchIdiom(stream[i - 1].inst, stream[i].inst) !=
                           Idiom::None;
            span.setCount(stream.size() ? stream.size() - 1 : 0);
            facts["idiom.matched"] += double(matched);
        }
    }
    return facts;
}

} // namespace perfbench
