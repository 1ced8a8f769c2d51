/**
 * @file
 * Per-PC fusion-site profiler (src/telemetry/profiler.*) and the
 * annotated-disassembly join (src/telemetry/annotate.*).
 *
 * The load-bearing guarantees under test:
 *  - per-site fused-pair counts sum exactly to the aggregate pairs.*
 *    counters under every fusion mode (the five-class refinement
 *    partitions the three whole-run counters);
 *  - every missed oracle pair carries exactly one reason, the
 *    per-reason counts partition the oracle-minus-predictor gap, and
 *    non-Helios modes only ever see the reasons that exist without a
 *    predictor (cold site / distance over limit);
 *  - attaching the profiler changes NOTHING about the simulation
 *    (bit-identical architectural state and an identical stat dump);
 *  - the windowed time series tiles the run exactly (cycles,
 *    instructions, fused pairs and per-category CPI all sum to the
 *    whole-run values) and round-trips losslessly through the
 *    RunReport v2 schema while v1 files stay parseable;
 *  - every site's stall cycles and every window's CPI map recount
 *    exactly from the cycle views the pipeline sends;
 *  - the annotated disassembly is well-formed text and JSON with one
 *    line per text-section instruction.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"
#include "observed_run.hh"
#include "telemetry/annotate.hh"
#include "telemetry/profiler.hh"

using namespace helios;

namespace
{

constexpr uint64_t smokeBudget = 20'000;

const FusionMode allModes[] = {FusionMode::None,
                               FusionMode::RiscvFusion,
                               FusionMode::CsfSbr,
                               FusionMode::RiscvFusionPP,
                               FusionMode::Helios,
                               FusionMode::Oracle};

const char *const someWorkloads[] = {"qsort", "crc32", "dijkstra"};

RunResult
profiledRun(const char *workload, FusionMode mode,
            uint64_t window_cycles = 0)
{
    CoreParams params = CoreParams::icelake(mode);
    params.profile = true;
    params.profileWindowCycles = window_cycles;
    return runOne(findWorkload(workload), params, smokeBudget);
}

std::string
tag(const char *workload, FusionMode mode)
{
    return std::string(workload) + "/" + fusionModeName(mode);
}

} // namespace

// ---------------------------------------------------------------------
// Per-site counters vs. whole-run aggregates
// ---------------------------------------------------------------------

TEST(Profiler, SiteCountsPartitionAggregateCounters)
{
    for (const char *workload : someWorkloads) {
        for (FusionMode mode : allModes) {
            const RunResult result = profiledRun(workload, mode);
            ASSERT_TRUE(result.profiled) << tag(workload, mode);
            const ProfileData &profile = result.profile;

            // Re-sum every per-site array; the totals must agree.
            std::array<uint64_t, kNumPairClasses> fused{};
            std::array<uint64_t, kNumMissReasons> missed{};
            uint64_t executions = 0, fused_tail = 0;
            uint64_t attempts = 0, mispredicts = 0;
            for (const ProfileSite &site : profile.sites) {
                for (size_t i = 0; i < kNumPairClasses; ++i)
                    fused[i] += site.fused[i];
                for (size_t i = 0; i < kNumMissReasons; ++i)
                    missed[i] += site.missed[i];
                executions += site.executions;
                fused_tail += site.fusedTail;
                attempts += site.attempts;
                mispredicts += site.mispredicts;
            }
            EXPECT_EQ(fused, profile.fusedTotals)
                << tag(workload, mode);
            EXPECT_EQ(missed, profile.missedTotals)
                << tag(workload, mode);

            // One execution per committed architectural instruction
            // (the fused tail counts at its own pc).
            EXPECT_EQ(executions, result.instructions)
                << tag(workload, mode);
            EXPECT_EQ(fused_tail, profile.fusedPairs())
                << tag(workload, mode);

            // The five-class refinement partitions the aggregate
            // pairs.* counters exactly.
            const auto cls = [&](PairClass c) {
                return profile.fusedTotals[size_t(c)];
            };
            EXPECT_EQ(cls(PairClass::Csf),
                      result.stat("pairs.csf_other"))
                << tag(workload, mode);
            EXPECT_EQ(cls(PairClass::Sbr) + cls(PairClass::Nctf),
                      result.stat("pairs.csf_mem"))
                << tag(workload, mode);
            EXPECT_EQ(cls(PairClass::Ncsf) + cls(PairClass::Dbr),
                      result.stat("pairs.ncsf"))
                << tag(workload, mode);
            EXPECT_EQ(profile.fusedPairs(),
                      result.stat("pairs.csf_other") +
                          result.stat("pairs.csf_mem") +
                          result.stat("pairs.ncsf"))
                << tag(workload, mode);

            // Predictor activity keyed to the tail site.
            EXPECT_EQ(attempts, result.stat("fusion.fp_attempts"))
                << tag(workload, mode);
            EXPECT_EQ(mispredicts, result.stat("fusion.mispredicts"))
                << tag(workload, mode);
        }
    }
}

TEST(Profiler, StallCyclesAreBoundedByCpiCategories)
{
    const RunResult result = profiledRun("qsort", FusionMode::Helios);
    const ProfileData &profile = result.profile;
    ASSERT_EQ(profile.totalCycles, result.cycles);

    // Stall attribution charges at most one (site, category) pair per
    // cycle, so per-category site sums never exceed the whole-run
    // CPI-stack counter and the grand total never exceeds the cycles.
    std::map<std::string, uint64_t> stalls;
    uint64_t total = 0;
    for (const ProfileSite &site : profile.sites)
        for (const auto &[category, cycles] : site.stalls) {
            stalls[category] += cycles;
            total += cycles;
        }
    EXPECT_LE(total, result.cycles);
    EXPECT_GT(total, 0u); // qsort does stall under Helios
    for (const auto &[category, cycles] : stalls) {
        EXPECT_EQ(category.rfind("cpi.", 0), 0u) << category;
        EXPECT_LE(cycles, result.stat(category)) << category;
        EXPECT_NE(category, "cpi.retiring") << "retiring cycles have "
                                               "no blocked head";
    }
}

// ---------------------------------------------------------------------
// Missed-opportunity attribution
// ---------------------------------------------------------------------

TEST(Profiler, MissReasonsPartitionTheGap)
{
    for (const char *workload : someWorkloads) {
        for (FusionMode mode : allModes) {
            const RunResult result = profiledRun(workload, mode);
            const ProfileData &profile = result.profile;

            // Exactly one reason per missed pair: the per-reason
            // totals sum to the number of missed pairs, per site and
            // overall.
            uint64_t site_missed = 0;
            for (const ProfileSite &site : profile.sites)
                site_missed += site.missedPairs();
            EXPECT_EQ(site_missed, profile.missedPairs())
                << tag(workload, mode);

            // Without a Helios predictor there is nothing to agree or
            // disagree with and no NCSF machinery to break a pair:
            // only the predictor-free reasons can appear.
            if (mode != FusionMode::Helios) {
                const auto reason = [&](MissReason r) {
                    return profile.missedTotals[size_t(r)];
                };
                EXPECT_EQ(reason(MissReason::QueueCapacity), 0u)
                    << tag(workload, mode);
                EXPECT_EQ(reason(MissReason::CatalystInterference), 0u)
                    << tag(workload, mode);
                EXPECT_EQ(reason(MissReason::PredictorDisagreement),
                          0u)
                    << tag(workload, mode);
            }
        }
    }
}

TEST(Profiler, OracleFinderSeesUnfusedPairs)
{
    // Under NoFusion every oracle-visible pair is a miss; under Helios
    // most of those same pairs commit fused. The gap the classifier
    // decomposes is the difference.
    const RunResult none = profiledRun("qsort", FusionMode::None);
    const RunResult helios = profiledRun("qsort", FusionMode::Helios);

    EXPECT_EQ(none.profile.fusedPairs(), 0u);
    EXPECT_GT(none.profile.missedPairs(), 0u);
    EXPECT_GT(helios.profile.fusedPairs(), 0u);
    EXPECT_LT(helios.profile.missedPairs(),
              none.profile.missedPairs());

    // NoFusion has no predictor state at all: every miss is a cold
    // site or out of predictor range.
    const auto &missed = none.profile.missedTotals;
    EXPECT_EQ(none.profile.missedPairs(),
              missed[size_t(MissReason::ColdSite)] +
                  missed[size_t(MissReason::DistanceOverLimit)]);
}

// ---------------------------------------------------------------------
// Observer effect
// ---------------------------------------------------------------------

TEST(Profiler, DisabledMeansBitIdenticalRun)
{
    for (FusionMode mode : allModes) {
        CoreParams plain_params = CoreParams::icelake(mode);
        const RunResult plain =
            runOne(findWorkload("crc32"), plain_params, smokeBudget);
        const RunResult profiled =
            profiledRun("crc32", mode, /*window_cycles=*/1000);

        EXPECT_FALSE(plain.profiled) << fusionModeName(mode);
        EXPECT_TRUE(profiled.profiled) << fusionModeName(mode);
        EXPECT_EQ(plain.archChecksum, profiled.archChecksum)
            << fusionModeName(mode);
        EXPECT_EQ(plain.memChecksum, profiled.memChecksum)
            << fusionModeName(mode);
        EXPECT_EQ(plain.cycles, profiled.cycles)
            << fusionModeName(mode);
        EXPECT_EQ(plain.instructions, profiled.instructions)
            << fusionModeName(mode);
        EXPECT_EQ(plain.uops, profiled.uops) << fusionModeName(mode);

        // The profiler writes no counters: the stat dumps are
        // identical entry for entry.
        EXPECT_EQ(plain.stats.dump(), profiled.stats.dump())
            << fusionModeName(mode);
    }
}

// ---------------------------------------------------------------------
// Windowed time series
// ---------------------------------------------------------------------

TEST(Profiler, WindowsTileTheRunExactly)
{
    constexpr uint64_t interval = 512;
    const RunResult result =
        profiledRun("qsort", FusionMode::Helios, interval);
    const ProfileData &profile = result.profile;
    ASSERT_EQ(profile.windowCycles, interval);
    ASSERT_GE(profile.windows.size(), 2u);

    uint64_t cycles = 0, instructions = 0, uops = 0, fused = 0;
    std::map<std::string, uint64_t> cpi;
    for (size_t i = 0; i < profile.windows.size(); ++i) {
        const ProfileWindow &window = profile.windows[i];
        // Windows are contiguous; all but the trailing partial one
        // span exactly the sampling interval.
        EXPECT_EQ(window.startCycle, cycles) << "window " << i;
        if (i + 1 < profile.windows.size()) {
            EXPECT_EQ(window.cycles, interval) << "window " << i;
        }

        // Each window's CPI map partitions its own cycles.
        uint64_t attributed = 0;
        for (const auto &[category, count] : window.cpi) {
            cpi[category] += count;
            attributed += count;
        }
        EXPECT_EQ(attributed, window.cycles) << "window " << i;

        cycles += window.cycles;
        instructions += window.instructions;
        uops += window.uops;
        fused += window.fusedPairs;
    }

    // The series tiles the whole run: everything sums back to the
    // run-level aggregates, including each cpi.* stack entry.
    EXPECT_EQ(cycles, result.cycles);
    EXPECT_EQ(cycles, profile.totalCycles);
    EXPECT_EQ(instructions, result.instructions);
    EXPECT_EQ(uops, result.stat("commit.uops"));
    EXPECT_EQ(fused, profile.fusedPairs());
    for (const auto &[category, count] : cpi)
        EXPECT_EQ(count, result.stat(category)) << category;
}

TEST(Profiler, StallChargesMatchCycleViews)
{
    // An observer beside the profiler keeps what every CycleView says;
    // the profiler's site stalls and window CPI maps must recount from
    // it exactly.
    struct Charge
    {
        std::string category;
        bool headBlocked;
        uint64_t blockedPc;
    };
    struct Views : PipelineObserver
    {
        std::vector<Charge> cycles;
        void
        onCycleEnd(const CycleView &view) override
        {
            cycles.push_back(
                {view.cpiCategory, view.headBlocked, view.blockedPc});
        }
    };

    constexpr uint64_t interval = 512;
    for (FusionMode mode : {FusionMode::Helios, FusionMode::None}) {
        const char *name = fusionModeName(mode);
        CoreParams params = CoreParams::icelake(mode);
        params.profileWindowCycles = interval;
        FusionProfiler profiler(params);
        Views views;
        const RunResult result = observedRun(
            findWorkload("qsort"), params, smokeBudget, {&profiler, &views});
        const ProfileData &profile = profiler.data();
        ASSERT_EQ(views.cycles.size(), result.cycles) << name;

        std::map<uint64_t, std::map<std::string, uint64_t>> stalls;
        std::vector<std::map<std::string, uint64_t>> windows(
            (views.cycles.size() + interval - 1) / interval);
        for (size_t cycle = 0; cycle < views.cycles.size(); ++cycle) {
            const Charge &charge = views.cycles[cycle];
            ++windows[cycle / interval][charge.category];
            if (charge.headBlocked)
                ++stalls[charge.blockedPc][charge.category];
        }

        EXPECT_GT(stalls.size(), 0u) << name;
        size_t stalled_sites = 0;
        for (const ProfileSite &site : profile.sites) {
            const auto it = stalls.find(site.pc);
            if (it == stalls.end()) {
                EXPECT_TRUE(site.stalls.empty()) << name << " " << site.pc;
                continue;
            }
            ++stalled_sites;
            EXPECT_EQ(site.stalls, it->second) << name << " " << site.pc;
        }
        EXPECT_EQ(stalled_sites, stalls.size()) << name;

        ASSERT_EQ(profile.windows.size(), windows.size()) << name;
        for (size_t i = 0; i < windows.size(); ++i)
            EXPECT_EQ(profile.windows[i].cpi, windows[i])
                << name << " window " << i;
    }
}

TEST(Profiler, ZeroIntervalMeansNoTimeSeries)
{
    const RunResult result =
        profiledRun("crc32", FusionMode::Helios, /*window_cycles=*/0);
    EXPECT_EQ(result.profile.windowCycles, 0u);
    EXPECT_TRUE(result.profile.windows.empty());
    // The per-site aggregates are unaffected by the sampling knob.
    EXPECT_GT(result.profile.sites.size(), 0u);
    EXPECT_GT(result.profile.fusedPairs(), 0u);
}

// ---------------------------------------------------------------------
// RunReport schema (profile section, v2+)
// ---------------------------------------------------------------------

TEST(Profiler, ProfileRoundTripsThroughReportSchema)
{
    RunReportFile file;
    file.generator = "test_profiler";
    for (FusionMode mode : {FusionMode::None, FusionMode::Helios})
        file.add(profiledRun("qsort", mode, /*window_cycles=*/750),
                 smokeBudget);

    const JsonValue json = file.toJson();
    EXPECT_EQ(json.at("version").asUint(), kRunReportVersion);
    EXPECT_TRUE(json.at("runs").at(0).has("profile"));

    const std::string text = file.toJsonText();
    const RunReportFile parsed = RunReportFile::fromJsonText(text);
    EXPECT_EQ(parsed, file);
    EXPECT_EQ(parsed.toJsonText(), text); // second trip bit-identical

    const RunReport *run = parsed.find("qsort", "Helios");
    ASSERT_NE(run, nullptr);
    ASSERT_TRUE(run->profiled);
    EXPECT_EQ(run->profile, file.find("qsort", "Helios")->profile);
    EXPECT_GT(run->profile.windows.size(), 0u);
}

TEST(Profiler, VersionOneReportsStillParse)
{
    // A v1 file is exactly a v2 file without profile sections; the
    // loader accepts anything up to the current schema version.
    RunReportFile file;
    file.generator = "test_profiler";
    CoreParams params = CoreParams::icelake(FusionMode::Helios);
    file.add(runOne(findWorkload("crc32"), params, smokeBudget),
             smokeBudget);

    JsonValue json = file.toJson();
    EXPECT_FALSE(json.at("runs").at(0).has("profile"));
    json.set("version", JsonValue(uint64_t{1}));

    const RunReportFile parsed = RunReportFile::fromJson(json);
    EXPECT_EQ(parsed.version, 1u);
    const RunReport *run = parsed.find("crc32", "Helios");
    ASSERT_NE(run, nullptr);
    EXPECT_FALSE(run->profiled);
}

// ---------------------------------------------------------------------
// Annotated disassembly
// ---------------------------------------------------------------------

TEST(Annotate, TextAndJsonForEveryWorkload)
{
    for (const char *name : someWorkloads) {
        const RunResult result = profiledRun(name, FusionMode::Helios);
        const Program program = findWorkload(name).program();

        const std::vector<AnnotatedLine> lines =
            annotateLines(result.profile, program);
        ASSERT_EQ(lines.size(), program.numInsts()) << name;
        size_t profiled = 0;
        for (size_t i = 0; i < lines.size(); ++i) {
            EXPECT_EQ(lines[i].pc, program.textBase + 4 * i) << name;
            EXPECT_FALSE(lines[i].disasm.empty()) << name;
            if (lines[i].profiled) {
                ++profiled;
                EXPECT_GT(lines[i].site.executions, 0u) << name;
            }
        }
        EXPECT_GT(profiled, 0u) << name;

        const std::string text =
            annotateText(result.profile, program, 5);
        EXPECT_NE(text.find("annotated disassembly"),
                  std::string::npos)
            << name;
        EXPECT_NE(text.find("fused pairs"), std::string::npos) << name;

        // The JSON form survives a dump -> parse trip and carries one
        // entry per text line.
        const JsonValue json =
            annotateJson(result.profile, program, 5);
        const JsonValue reparsed = JsonValue::parse(json.dump(2));
        EXPECT_EQ(reparsed, json) << name;
        EXPECT_EQ(reparsed.at("schema").asString(), "helios-annotate")
            << name;
        EXPECT_EQ(reparsed.at("lines").size(), program.numInsts())
            << name;
        EXPECT_EQ(reparsed.at("total_cycles").asUint(), result.cycles)
            << name;
    }
}
