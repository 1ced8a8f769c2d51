/**
 * @file
 * Pipeline integration tests: every configuration must preserve
 * architectural semantics (committing exactly the functional stream)
 * while keeping its statistics self-consistent.
 */

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "sim/checkpoint.hh"
#include "sim/hart.hh"
#include "uarch/pipeline.hh"

using namespace helios;

namespace
{

constexpr uint64_t budget = 60'000;

const std::string sweepWorkloads[] = {
    "605.mcf_s",      "602.gcc_s_1", "657.xz_s_1", "620.omnetpp_s",
    "qsort",          "sha",         "patricia",   "fft",
    "crc32",          "typeset",     "blowfish",   "rsynth",
    "648.exchange2_s", "631.deepsjeng_s",
};

const FusionMode allModes[] = {
    FusionMode::None,    FusionMode::RiscvFusion,
    FusionMode::CsfSbr,  FusionMode::RiscvFusionPP,
    FusionMode::Helios,  FusionMode::Oracle,
};

class ModeSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
  protected:
    const Workload &workload() { return findWorkload(std::get<0>(GetParam())); }
    FusionMode mode() { return allModes[std::get<1>(GetParam())]; }
};

/** Every committed nucleus by seq: each µ-op's head and a fused µ-op's
 *  tail (an NCSF tail commits before its catalyst). It also checks what
 *  each flush leaves at the end of its cycle: an empty AQ, and a ROB
 *  that holds only µ-ops older than every squashed seq. */
struct CommittedNuclei : PipelineObserver
{
    std::map<uint64_t, DynInst> bySeq;
    uint64_t repeats = 0;
    uint64_t flushes = 0;
    uint64_t oldestSquashed = ~0ULL; ///< this cycle's (~0: none)

    void
    onCommit(const Uop &uop, uint64_t) override
    {
        record(*uop.dyn);
        if (uop.hasTail)
            record(*uop.tailDyn);
    }

    void
    record(const DynInst &dyn)
    {
        if (!bySeq.emplace(dyn.seq, dyn).second)
            ++repeats;
    }

    void
    onSquash(const Uop &uop, uint64_t, const char *) override
    {
        oldestSquashed = std::min(oldestSquashed, uop.seq);
    }

    void
    onCycleEnd(const CycleView &view) override
    {
        if (oldestSquashed == ~0ULL)
            return;
        ++flushes;
        EXPECT_TRUE(view.aq->empty())
            << "the AQ holds µ-ops after the flush in cycle " << view.cycle;
        bool rob_older = true;
        for (const Uop *uop : *view.rob)
            rob_older &= uop->seq < oldestSquashed;
        EXPECT_TRUE(rob_older) << "the ROB holds a µ-op at or past seq "
                               << oldestSquashed << " after the flush in "
                               << "cycle " << view.cycle;
        oldestSquashed = ~0ULL;
    }
};

/**
 * Run @a hart for the budget under @a mode and check that the pipeline
 * commits each record of @a expected, the functional stream from the
 * hart's current instruction on, exactly once and with the facts the
 * functional run gave it.
 */
void
expectCommitsStream(Hart &hart, FusionMode mode,
                    const std::vector<DynInst> &expected)
{
    HartFeed feed(hart, budget);
    Pipeline pipeline(CoreParams::icelake(mode), feed);
    CommittedNuclei committed;
    pipeline.attach(&committed);
    const PipelineResult result = pipeline.run();
    EXPECT_GT(result.cycles, 0u);
    EXPECT_EQ(result.instructions, expected.size())
        << "pipeline committed a different instruction count";
    EXPECT_EQ(committed.repeats, 0u) << "a seq committed twice";
    // At most one flush a cycle, and each squashes at least its flush
    // point: equal counts mean the observer checked every flush.
    EXPECT_EQ(committed.flushes,
              pipeline.stats().get("flush.order_violation") +
                  pipeline.stats().get("flush.fusion_region"));
    EXPECT_EQ(committed.bySeq.size(), expected.size());
    for (const DynInst &want : expected) {
        const auto it = committed.bySeq.find(want.seq);
        ASSERT_NE(it, committed.bySeq.end())
            << "seq " << want.seq << " never committed";
        const DynInst &got = it->second;
        ASSERT_TRUE(got.pc == want.pc && got.inst == want.inst &&
                    got.effAddr == want.effAddr &&
                    got.nextPc == want.nextPc && got.taken == want.taken)
            << "seq " << want.seq << " committed as another instruction";
    }
}

} // namespace

TEST_P(ModeSweep, CommitsExactlyTheFunctionalStream)
{
    // Functional execution is the ground truth, record by record.
    std::vector<DynInst> expected;
    forEachDynInst(workload(), budget,
                   [&](const DynInst &dyn) { expected.push_back(dyn); });

    Memory mem;
    Hart hart(mem);
    hart.reset(workload().program());
    expectCommitsStream(hart, mode(), expected);
}

TEST(Pipeline, RestoredCheckpointCommitsTheFunctionalStream)
{
    // A restored hart's first record is its checkpoint's instruction
    // index, not seq 0.
    const Workload &workload = findWorkload("rsynth");
    constexpr uint64_t cut = 25'000;
    std::vector<DynInst> expected;
    forEachDynInst(workload, cut + budget, [&](const DynInst &dyn) {
        if (dyn.seq >= cut)
            expected.push_back(dyn);
    });

    Memory mem;
    Hart hart(mem);
    const Program prog = workload.program();
    hart.reset(prog);
    ASSERT_EQ(hart.runFast(cut), cut);
    const Checkpoint ckpt = hart.makeCheckpoint(prog.sourceHash);

    Memory restored_mem;
    Hart restored(restored_mem);
    restored.restoreCheckpoint(ckpt);
    ASSERT_EQ(restored.instsExecuted(), cut);
    expectCommitsStream(restored, FusionMode::Helios, expected);
}

TEST_P(ModeSweep, StatisticsAreSelfConsistent)
{
    RunResult r = runOne(workload(), mode(), budget);

    // Committed µ-ops + fused pairs == committed instructions.
    const uint64_t pairs = r.stat("pairs.csf_mem") +
                           r.stat("pairs.csf_other") +
                           r.stat("pairs.ncsf");
    EXPECT_EQ(r.uops + pairs, r.instructions);

    // IPC in a sane band.
    EXPECT_GT(r.ipc(), 0.05);
    EXPECT_LT(r.ipc(), double(CoreParams().commitWidth));

    switch (mode()) {
      case FusionMode::None:
        EXPECT_EQ(pairs, 0u);
        break;
      case FusionMode::RiscvFusion:
        EXPECT_EQ(r.stat("pairs.csf_mem") + r.stat("pairs.ncsf"), 0u);
        break;
      case FusionMode::CsfSbr:
        EXPECT_EQ(r.stat("pairs.csf_other") + r.stat("pairs.ncsf"), 0u);
        break;
      case FusionMode::RiscvFusionPP:
        EXPECT_EQ(r.stat("pairs.ncsf"), 0u);
        break;
      case FusionMode::Helios:
        // Validated fusions cannot exceed applied ones.
        EXPECT_LE(r.stat("fusion.validated"),
                  r.stat("fusion.fp_applied"));
        EXPECT_LE(r.stat("pairs.fp_validated"),
                  r.stat("fusion.fp_applied"));
        break;
      case FusionMode::Oracle:
        // The address oracle names only eligible in-region heads, each
        // of which the shared fusion path accepts, and never trains.
        EXPECT_EQ(r.stat("fusion.fp_applied"),
                  r.stat("fusion.fp_attempts"));
        EXPECT_EQ(r.stat("fusion.mispredict_region"), 0u);
        EXPECT_EQ(r.stat("uch.matches"), 0u);
        break;
    }

    // Loads/stores executed at least once each (committed count is in
    // instructions; replays can make executed > committed).
    if (r.stat("commit.loads") > 0) {
        EXPECT_GT(r.stat("exec.loads"), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ModeSweep,
    ::testing::Combine(::testing::ValuesIn(sweepWorkloads),
                       ::testing::Range(0, 6)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>
           &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           fusionModeName(
                               allModes[std::get<1>(info.param)]);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(Pipeline, FusionModesNeverChangeResults)
{
    // Run a self-checking kernel to completion under every mode: the
    // exit checksum must match the reference each time. (Timing-only
    // machinery must never alter architectural behaviour.)
    const Workload &w = findWorkload("648.exchange2_s");
    const uint64_t expected = w.reference();
    for (FusionMode mode : allModes) {
        Memory mem;
        Hart hart(mem);
        hart.reset(w.program());
        HartFeed feed(hart, UINT64_MAX);
        CoreParams params = CoreParams::icelake(mode);
        Pipeline pipeline(params, feed);
        pipeline.run();
        EXPECT_TRUE(hart.exited()) << fusionModeName(mode);
        EXPECT_EQ(hart.exitCode(), expected) << fusionModeName(mode);
    }
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    const Workload &w = findWorkload("631.deepsjeng_s");
    RunResult a = runOne(w, FusionMode::Helios, 40'000);
    RunResult b = runOne(w, FusionMode::Helios, 40'000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stats.dump(), b.stats.dump());
}

TEST(Pipeline, MaxCyclesCapRespected)
{
    // mcf's cold caches leave long quiet runs for run() to skip. The
    // cap lies inside the one from cycle 239 to 401, and the run must
    // stop exactly on it.
    constexpr uint64_t cap = 300;
    const Workload &w = findWorkload("605.mcf_s");
    CoreParams params = CoreParams::icelake(FusionMode::None);
    params.maxCycles = cap;
    Memory mem;
    Hart hart(mem);
    hart.reset(w.program());
    HartFeed feed(hart, UINT64_MAX);
    Pipeline pipeline(params, feed);
    PipelineResult result = pipeline.run();
    EXPECT_EQ(result.cycles, cap);
    const CpiStack stack = pipeline.stats().cpiStack();
    EXPECT_EQ(stack.totalCycles(), cap);
    EXPECT_TRUE(stack.exact()) << stack.toString();
}

TEST(Pipeline, FusionImprovesGeomeanOrdering)
{
    // Headline shape on a pressure-bound workload: fusing memory
    // pairs must not lose to no fusion, and Helios must beat
    // consecutive-only memory fusion (the paper's key claim).
    const Workload &w = findWorkload("602.gcc_s_1");
    const double none = runOne(w, FusionMode::None, budget).ipc();
    const double csf = runOne(w, FusionMode::CsfSbr, budget).ipc();
    const double helios = runOne(w, FusionMode::Helios, budget).ipc();
    EXPECT_GT(csf, none);
    EXPECT_GT(helios, csf);
}
