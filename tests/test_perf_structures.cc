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
 *    per-site partition invariants intact.
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
    first->dependents.push_back(7);
    first->tailProducers.push_back(9);

    pool.release(first);
    Uop *second = pool.alloc();
    // LIFO free list: the released slot comes straight back...
    EXPECT_EQ(second, first);
    // ...with every field reset to a fresh µ-op.
    EXPECT_EQ(second->seq, 0u);
    EXPECT_FALSE(second->issued);
    EXPECT_TRUE(second->dependents.empty());
    EXPECT_TRUE(second->tailProducers.empty());
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
        for (FusionMode mode :
             {FusionMode::None, FusionMode::Helios,
              FusionMode::Oracle}) {
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
