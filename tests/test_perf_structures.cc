/**
 * @file
 * The hot-path data structures behind the cycle-level core (see
 * DESIGN.md, "Performance engineering"): the µ-op slab pool, the
 * fixed-capacity ring buffers, the address-range counting filter —
 * and the two whole-pipeline guarantees they must uphold:
 *
 *  - recycling µ-op slots is invisible: a squash-heavy run with the
 *    pool recycling (production) and with the never-reuse debug
 *    fallback (CoreParams::poolRecycling = false) produce identical
 *    architectural state, an identical stat dump, and a clean audit;
 *
 *  - the seq-indexed rings wrap without corruption: runs long enough
 *    to lap the inflight ring several times still commit in strict
 *    program order under every fusion mode, with the profiler's
 *    per-site partition invariants intact;
 *
 *  - the facts a µ-op caches at fetch (Uop::refreshFacts) never drift
 *    from its nuclei, through every change of its fusion state.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/ring.hh"
#include "harness/runner.hh"
#include "observed_run.hh"
#include "telemetry/lifecycle.hh"
#include "telemetry/profiler.hh"
#include "uarch/auditor.hh"
#include "uarch/mem_filter.hh"
#include "uarch/uop.hh"
#include "uarch/uop_pool.hh"

using namespace helios;

namespace
{

const FusionMode allModes[] = {FusionMode::None,
                               FusionMode::RiscvFusion,
                               FusionMode::CsfSbr,
                               FusionMode::RiscvFusionPP,
                               FusionMode::Helios,
                               FusionMode::Oracle};

std::string
tag(const char *workload, FusionMode mode)
{
    return std::string(workload) + "/" + fusionModeName(mode);
}

} // namespace

// ---------------------------------------------------------------------
// RingBuffer
// ---------------------------------------------------------------------

TEST(RingBuffer, WrapsAndKeepsFifoOrder)
{
    RingBuffer<int> ring(4);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 4u);

    // Drive head all the way around the backing array several times.
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 5; ++round) {
        while (!ring.full())
            ring.push_back(next_in++);
        EXPECT_EQ(ring.size(), 4u);
        // Logical index 0 is always the oldest element.
        for (size_t i = 0; i < ring.size(); ++i)
            EXPECT_EQ(ring[i], next_out + int(i));
        ring.pop_front();
        ring.pop_front();
        EXPECT_EQ(ring.front(), next_out + 2);
        next_out += 2;
    }
}

TEST(RingBuffer, IterationMatchesLogicalOrder)
{
    RingBuffer<int> ring(3);
    ring.push_back(1);
    ring.push_back(2);
    ring.pop_front(); // head now mid-array: iteration must wrap
    ring.push_back(3);
    ring.push_back(4);

    std::vector<int> seen;
    for (int value : ring)
        seen.push_back(value);
    EXPECT_EQ(seen, (std::vector<int>{2, 3, 4}));
    EXPECT_EQ(ring.back(), 4);

    ring.pop_back();
    EXPECT_EQ(ring.back(), 3);
    ring.clear();
    EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------
// UopPool
// ---------------------------------------------------------------------

TEST(UopPool, RecyclesSlotsLifoAndResetsState)
{
    UopPool pool(true);
    Uop *first = pool.alloc();
    first->seq = 42;
    first->issued = true;
    first->wakeHead = 7;
    first->wakeTail = 8;
    first->tailProducers[0] = 9;

    pool.release(first);
    Uop *second = pool.alloc();
    // LIFO free list: the released slot comes straight back...
    EXPECT_EQ(second, first);
    // ...with every field reset to a fresh µ-op.
    EXPECT_EQ(second->seq, 0u);
    EXPECT_FALSE(second->issued);
    EXPECT_EQ(second->wakeHead, noWakeEdge);
    EXPECT_EQ(second->wakeTail, noWakeEdge);
    EXPECT_EQ(second->tailProducers[0], ~0ULL);
    EXPECT_EQ(std::memcmp(second, &freshUop, sizeof(Uop)), 0);
}

TEST(UopPool, DebugModeNeverReusesSlots)
{
    UopPool pool(false);
    EXPECT_FALSE(pool.recycling());
    Uop *first = pool.alloc();
    pool.release(first);
    EXPECT_NE(pool.alloc(), first);
}

TEST(UopPool, GrowsBySlab)
{
    UopPool pool(true);
    std::vector<Uop *> live;
    for (size_t i = 0; i < UopPool::slabSize + 1; ++i)
        live.push_back(pool.alloc());
    EXPECT_EQ(pool.numSlabs(), 2u);
    // Recycling the whole population keeps the pool at two slabs
    // forever after.
    for (Uop *uop : live)
        pool.release(uop);
    for (size_t i = 0; i < live.size(); ++i)
        pool.alloc();
    EXPECT_EQ(pool.numSlabs(), 2u);
}

// ---------------------------------------------------------------------
// MemRangeFilter
// ---------------------------------------------------------------------

TEST(MemRangeFilter, NeverFalseNegative)
{
    MemRangeFilter filter;
    EXPECT_TRUE(filter.empty());
    // Empty filter: nothing can overlap.
    EXPECT_FALSE(filter.mayOverlap(0x1000, 0x1008));

    filter.add(0x1000, 0x1008);
    EXPECT_FALSE(filter.empty());
    // Same range, contained range, and straddling range must all hit.
    EXPECT_TRUE(filter.mayOverlap(0x1000, 0x1008));
    EXPECT_TRUE(filter.mayOverlap(0x1004, 0x1005));
    EXPECT_TRUE(filter.mayOverlap(0x0ff8, 0x1001));

    filter.remove(0x1000, 0x1008);
    EXPECT_TRUE(filter.empty());
    EXPECT_FALSE(filter.mayOverlap(0x1000, 0x1008));
}

TEST(MemRangeFilter, OversizedRangesStayConservative)
{
    MemRangeFilter filter;
    // A range spanning more granules than the per-range cap is
    // tracked by count only: every query must then hit.
    filter.add(0x10000, 0x20000);
    EXPECT_TRUE(filter.mayOverlap(0x0, 0x1));
    filter.remove(0x10000, 0x20000);
    EXPECT_TRUE(filter.empty());
    EXPECT_FALSE(filter.mayOverlap(0x10000, 0x10008));
}

// ---------------------------------------------------------------------
// Pool recycling is invisible to the simulation
// ---------------------------------------------------------------------

TEST(PoolRecycling, SquashStormBitIdenticalToDebugFallback)
{
    // sha and 620.omnetpp_s are the suite's flush-heaviest kernels
    // at this budget (mispredicted data-dependent branches): hundreds
    // of squashed µ-ops go back to the pool and their slots are
    // handed to refetched successors. The debug fallback gives every
    // fetch a pristine slot instead; any stale-field leak through
    // Uop::recycle() shows up as a diverging stat dump or checksum.
    for (const char *workload : {"sha", "620.omnetpp_s"}) {
        for (FusionMode mode : allModes) {
            CoreParams recycled = CoreParams::icelake(mode);
            recycled.audit = true;
            CoreParams pristine = recycled;
            pristine.poolRecycling = false;

            const RunResult a =
                runOne(findWorkload(workload), recycled, 30'000);
            const RunResult b =
                runOne(findWorkload(workload), pristine, 30'000);

            EXPECT_EQ(a.archChecksum, b.archChecksum)
                << tag(workload, mode);
            EXPECT_EQ(a.memChecksum, b.memChecksum)
                << tag(workload, mode);
            EXPECT_EQ(a.cycles, b.cycles) << tag(workload, mode);
            EXPECT_EQ(a.uops, b.uops) << tag(workload, mode);
            EXPECT_EQ(a.stats.dump(), b.stats.dump())
                << tag(workload, mode);
            // The squash storm actually happened...
            EXPECT_GT(a.stat("flush.squashed_uops"), 0u)
                << tag(workload, mode);
            // ...and both disciplines audit clean.
            EXPECT_TRUE(a.auditViolations.empty()) << tag(workload, mode);
            EXPECT_TRUE(b.auditViolations.empty()) << tag(workload, mode);
        }
    }
}

// ---------------------------------------------------------------------
// Cached µ-op facts
// ---------------------------------------------------------------------

namespace
{

/** Recomputes a µ-op's facts from its nuclei with the instructions' own
 *  predicates, not with Uop::refreshFacts(), at every fetch, issue and
 *  commit, and keeps the first µ-op whose cached facts differ. */
class FactsWatch : public PipelineObserver
{
  public:
    void onFetch(const Uop &uop, uint64_t) override { check(uop, "fetch"); }
    void onIssue(const Uop &uop, uint64_t) override { check(uop, "issue"); }
    void onCommit(const Uop &uop, uint64_t) override { check(uop, "commit"); }

    uint64_t checked = 0;
    uint64_t drifted = 0;
    std::string first; ///< the first drift, described

  private:
    void
    check(const Uop &uop, const char *event)
    {
        ++checked;
        const Instruction &head = uop.dyn->inst;
        const Instruction *tail = uop.hasTail ? &uop.tailDyn->inst : nullptr;
        const bool tail_loads = tail && tail->isLoad();
        const bool tail_stores = tail && tail->isStore();
        const bool loads = !uop.isTailMarker && (head.isLoad() || tail_loads);
        const bool stores =
            !uop.isTailMarker && (head.isStore() || tail_stores);

        PortClass port = PortClass::Alu;
        if (loads)
            port = PortClass::Load;
        else if (stores)
            port = PortClass::Store;
        else if (head.isLoad())
            port = PortClass::Load;
        else if (head.isStore())
            port = PortClass::Store;
        else if (head.isControl())
            port = PortClass::Branch;
        else if (head.info().cls == OpClass::IntMul)
            port = PortClass::Mul;
        else if (head.info().cls == OpClass::IntDiv)
            port = PortClass::Div;

        const bool same =
            uop.isLoad() == loads && uop.isStore() == stores &&
            bool(uop.mem & Uop::HeadLoad) == head.isLoad() &&
            bool(uop.mem & Uop::HeadStore) == head.isStore() &&
            bool(uop.mem & Uop::TailLoad) == tail_loads &&
            bool(uop.mem & Uop::TailStore) == tail_stores &&
            uop.port == port &&
            uop.headRd == (head.writesReg() ? head.rd : 0) &&
            uop.tailRd == (tail && tail->writesReg() ? tail->rd : 0) &&
            uop.headRs1 == (head.readsRs1() ? head.rs1 : 0) &&
            uop.headRs2 == (head.readsRs2() ? head.rs2 : 0) &&
            uop.serializing == head.isSerializing();
        if (same)
            return;
        if (!drifted++)
            first = std::string("seq ") + std::to_string(uop.seq) +
                    " at " + event + (uop.hasTail ? " (fused)" : "") +
                    (uop.isTailMarker ? " (tail marker)" : "");
    }
};

} // namespace

TEST(UopFacts, CachedFactsMatchTheNucleiInEveryMode)
{
    // Every change of fusion state must refresh the facts: consecutive
    // fusion, predicted fusion, the nest-limit unfuse, unfuseInPlace
    // and a tail marker's conversion at Dispatch. The stats below show
    // the suite reaches each of them at this budget.
    uint64_t csf_pairs = 0, predicted = 0, nest_limited = 0, unfused = 0;
    for (const Workload &workload : allWorkloads()) {
        for (FusionMode mode : allModes) {
            FactsWatch watch;
            const RunResult result = observedRun(
                workload, CoreParams::icelake(mode), 20'000, {&watch});
            const std::string where = tag(workload.name.c_str(), mode);
            EXPECT_EQ(watch.drifted, 0u) << where << ": " << watch.first;
            EXPECT_GT(watch.checked, result.uops) << where;
            csf_pairs += result.stat("pairs.csf_mem") +
                         result.stat("pairs.csf_other");
            predicted += result.stat("fusion.fp_applied");
            nest_limited += result.stat("fusion.fp_nest_limited");
            unfused += result.stat("fusion.unfused");
        }
    }
    EXPECT_GT(csf_pairs, 0u);
    EXPECT_GT(predicted, 0u);
    EXPECT_GT(nest_limited, 0u);
    EXPECT_GT(unfused, 0u);
}

// ---------------------------------------------------------------------
// Completion timing wheel
// ---------------------------------------------------------------------

namespace
{

/** Counts commits that came before the µ-op's completion was due (a
 *  wheel that wrapped onto a pending slot fires events early) and
 *  commits of µ-ops that waited out @a latency after issue. */
class CompletionWatch : public PipelineObserver
{
  public:
    explicit CompletionWatch(unsigned latency) : latency(latency) {}

    void
    onCommit(const Uop &uop, uint64_t cycle) override
    {
        if (cycle < uop.doneCycle)
            ++early;
        if (uop.doneCycle - uop.issueCycle >= latency)
            ++slow;
    }

    const unsigned latency;
    uint64_t early = 0;
    uint64_t slow = 0;
};

} // namespace

TEST(TimingWheel, FarMemoryLatencyRunsToCompletion)
{
    // The completion wheel is sized from CoreParams, so a memory
    // latency far above the default 200 cycles must still fit every
    // event. A memory-bound kernel runs to its exit, leaves exactly
    // the functional engine's state, and commits no µ-op before its
    // completion was due. The suite's working sets fit the default
    // 2 MiB L3, so the caches shrink until mcf's pointer chase misses.
    const Workload &workload = findWorkload("605.mcf_s");
    CoreParams params = CoreParams::icelake(FusionMode::Helios);
    params.memLatency = 5000;
    params.l1dBytes = 4 * 1024;
    params.l1dWays = 4;
    params.l2Bytes = 8 * 1024;
    params.l2Ways = 4;
    params.l3Bytes = 16 * 1024;
    params.l3Ways = 4;
    CompletionWatch watch(params.memLatency);
    const RunResult timed =
        observedRun(workload, params, UINT64_MAX, {&watch});
    const FunctionalResult functional = runFunctional(workload);
    ASSERT_TRUE(timed.exited);
    EXPECT_EQ(timed.instructions, functional.instructions);
    EXPECT_EQ(timed.archChecksum, functional.archChecksum);
    EXPECT_EQ(timed.memChecksum, functional.memChecksum);
    EXPECT_GT(watch.slow, 0u) << "no load paid the memory latency";
    EXPECT_EQ(watch.early, 0u);
}

// ---------------------------------------------------------------------
// Ring wraparound
// ---------------------------------------------------------------------

TEST(RingWraparound, CommitOrderSurvivesSeqWrapInEveryMode)
{
    // The inflight ring holds ~4k slots at the default geometry, so a
    // 30k-instruction run laps it several times; shrunken structure
    // sizes make each lap cheaper and force the ROB/LQ/SQ rings to
    // wrap their backing arrays thousands of times.
    for (FusionMode mode : allModes) {
        CoreParams params = CoreParams::icelake(mode);
        params.robSize = 24;
        params.aqSize = 12;
        params.iqSize = 16;
        params.lqSize = 8;
        params.sqSize = 6;
        PipelineAuditor auditor(params);
        LifecycleTracer tracer;

        const RunResult result = observedRun(
            findWorkload("qsort"), params, 30'000, {&auditor, &tracer});
        ASSERT_GT(result.uops, 8192u) << fusionModeName(mode);
        EXPECT_TRUE(auditor.ok())
            << fusionModeName(mode) << ": " << auditor.toJson();

        // Committed µ-ops must appear in strict program order with
        // monotone retire stamps, no matter how often their seq
        // numbers wrapped the ring index.
        uint64_t last_seq = 0, last_retire = 0, committed = 0;
        for (const UopLifecycle &record : tracer.records()) {
            if (record.squashed)
                continue;
            if (committed > 0) {
                EXPECT_GT(record.seq, last_seq)
                    << fusionModeName(mode);
                EXPECT_GE(record.retire, last_retire)
                    << fusionModeName(mode);
            }
            last_seq = record.seq;
            last_retire = record.retire;
            ++committed;
        }
        EXPECT_EQ(committed, tracer.numCommitted())
            << fusionModeName(mode);
        EXPECT_GT(committed, 0u) << fusionModeName(mode);
    }
}

TEST(RingWraparound, ProfilerPartitionHoldsAcrossWraps)
{
    for (FusionMode mode : allModes) {
        CoreParams params = CoreParams::icelake(mode);
        params.profile = true;

        const RunResult result =
            runOne(findWorkload("qsort"), params, 30'000);
        ASSERT_TRUE(result.profiled) << fusionModeName(mode);
        const ProfileData &profile = result.profile;

        // Per-site executions and fused pairs partition the run's
        // aggregates exactly — a wrapped ring that dropped or
        // double-counted a µ-op would break the sum.
        uint64_t executions = 0, fused_tail = 0;
        for (const ProfileSite &site : profile.sites) {
            executions += site.executions;
            fused_tail += site.fusedTail;
        }
        EXPECT_EQ(executions, result.stat("commit.insts"))
            << fusionModeName(mode);
        EXPECT_EQ(fused_tail, profile.fusedPairs())
            << fusionModeName(mode);
    }
}
