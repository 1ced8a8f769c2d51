/**
 * @file
 * The committed suite baseline (bench/baselines/suite.json) is the one
 * pin of simulated behaviour in tier-1. Two checks keep it honest:
 *
 * - Two representative cells (mcf and qsort under Helios), re-run at
 *   the baseline's budget, must reproduce their baseline runs exactly,
 *   every counter and histogram included.
 * - Without simulating, the baseline must hold exactly one run per
 *   suite workload and fusion mode at the default budget, with this
 *   build's program and configuration hashes, so an edited kernel, a
 *   new kernel or a changed CoreParams default shows up here before
 *   CI's full sweep runs.
 *
 * After an intentional model change, regenerate the baseline with the
 * command in kRegenerate and commit it with the change; its git diff
 * names every counter that moved.
 */

#include <iterator>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "harness/run_report.hh"
#include "harness/runner.hh"

using namespace helios;

namespace
{

const char *const kRegenerate =
    "if the change is intended, regenerate the baseline with "
    "`HELIOS_REPORT=bench/baselines/suite.json ./build/bench/figures` "
    "(no other HELIOS_* variable set) and commit it";

const FusionMode kModes[] = {FusionMode::None,
                             FusionMode::RiscvFusion,
                             FusionMode::CsfSbr,
                             FusionMode::RiscvFusionPP,
                             FusionMode::Helios,
                             FusionMode::Oracle};

/** The headline fields and counters on which two runs differ. */
std::string
differences(const RunReport &actual, const RunReport &expected)
{
    std::string out;
    const JsonValue fresh = actual.toJson();
    const JsonValue pinned = expected.toJson();
    for (const auto &[key, value] : pinned.members())
        if (key != "counters" && !(fresh.get(key) == value))
            out += " " + key;

    std::map<std::string, std::pair<uint64_t, uint64_t>> counters;
    for (const auto &[name, count] : actual.stats.dump())
        counters[name].first = count;
    for (const auto &[name, count] : expected.stats.dump())
        counters[name].second = count;
    for (const auto &[name, counts] : counters)
        if (counts.first != counts.second)
            out += " " + name + "=" + std::to_string(counts.first) +
                   " (baseline " + std::to_string(counts.second) + ")";
    return out;
}

} // namespace

TEST(Golden, CellsMatchSuiteBaseline)
{
    const RunReportFile baseline = RunReportFile::load(SUITE_BASELINE);
    for (const char *name : {"605.mcf_s", "qsort"}) {
        const RunReport *expected = baseline.find(name, "Helios");
        ASSERT_NE(expected, nullptr)
            << "no Helios run of " << name << " in " << SUITE_BASELINE;
        const RunResult result =
            runOne(findWorkload(name),
                   CoreParams::icelake(FusionMode::Helios),
                   expected->maxInsts);
        const RunReport actual =
            makeRunReport(result, expected->maxInsts);
        EXPECT_TRUE(actual == *expected)
            << name << " under Helios moved:"
            << differences(actual, *expected) << "\n"
            << kRegenerate;
    }
}

TEST(Golden, SuiteBaselineIsCurrent)
{
    const RunReportFile baseline = RunReportFile::load(SUITE_BASELINE);
    EXPECT_TRUE(baseline.host.isNull())
        << "the baseline carries a host section (HELIOS_METRICS was "
           "set); "
        << kRegenerate;
    EXPECT_TRUE(baseline.verdicts.empty()) << kRegenerate;
    EXPECT_EQ(baseline.runs.size(),
              allWorkloads().size() * std::size(kModes))
        << kRegenerate;

    for (const Workload &workload : allWorkloads()) {
        const uint64_t program_hash = workload.program().sourceHash;
        for (FusionMode mode : kModes) {
            const std::string cell =
                workload.name + " under " + fusionModeName(mode);
            const RunReport *run =
                baseline.find(workload.name, fusionModeName(mode));
            if (!run) {
                ADD_FAILURE() << "no run of " << cell << "; "
                              << kRegenerate;
                continue;
            }
            EXPECT_EQ(run->maxInsts, kBenchDefaultBudget)
                << cell << " ran at another budget; " << kRegenerate;
            EXPECT_FALSE(run->profiled)
                << cell << " carries a profile (HELIOS_PROFILE was "
                           "set); "
                << kRegenerate;
            EXPECT_EQ(run->programHash, program_hash)
                << "the " << workload.name << " kernel changed; "
                << kRegenerate;
            EXPECT_EQ(run->configHash,
                      configHash(CoreParams::icelake(mode)))
                << "the " << fusionModeName(mode)
                << " parameters changed; " << kRegenerate;
        }
    }
}
