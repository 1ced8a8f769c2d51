/**
 * @file
 * The committed suite baseline (bench/baselines/suite.json) is the one
 * pin of simulated behaviour in tier-1. Three checks keep it honest:
 *
 * - Two representative cells (mcf and qsort under Helios), re-run at
 *   the baseline's budget, must reproduce their baseline runs exactly,
 *   every counter and histogram included.
 * - Without simulating, the baseline must hold exactly one run per
 *   suite workload and fusion mode at the default budget, with this
 *   build's program and configuration hashes, so an edited kernel, a
 *   new kernel or a changed CoreParams default shows up here before
 *   CI's full sweep runs. Written back, the parsed file must equal
 *   the committed bytes.
 * - Without simulating, OracleFusion must bound Helios kernel by
 *   kernel, except where a listed, measured cause says why not.
 *
 * After an intentional model change, regenerate the baseline with the
 * command in kRegenerate and commit it with the change; its git diff
 * names every counter that moved.
 */

#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
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
    std::ifstream in(SUITE_BASELINE);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const RunReportFile baseline = RunReportFile::fromJsonText(bytes.str());
    // Parsing and writing the file back reproduces it byte for byte, so
    // the report schema and the JSON writer still spell every value as
    // the committed baseline does.
    EXPECT_TRUE(baseline.toJsonText() == bytes.str())
        << "the baseline does not survive parse and dump byte for byte";
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

TEST(Golden, OracleBoundsHelios)
{
    // OracleFusion is Helios's fusion path with an address oracle in
    // place of the predictor, so the gap between the two measures
    // prediction quality. Each exception below was measured on the
    // committed baseline; a stale entry fails too, so the list stays
    // exact.
    const std::map<std::string, const char *> ipc_exceptions = {
        {"blowfish",
         "the oracle fuses 100 NCSF pairs Helios does not (3,821 against "
         "3,722) yet runs 2,619 cycles longer: cpi.exec.load +1,161, "
         "dispatch.stall.iq +4,792. It knows which pairs are eligible, "
         "not which pay off"},
        {"qsort",
         "hoisted tails of the oracle's 7,467 NCSF pairs (Helios: 2,675) "
         "meet older stores: 57 order-violation flushes against 14, "
         "squashing 1,641 µ-ops against 369"},
        {"605.mcf_s",
         "4 cycles in 160,713 (-0.002%), from a different head choice "
         "on 43 more NCSF pairs"},
    };
    const std::map<std::string, const char *> ncsf_exceptions = {
        {"623.xalancbmk_s",
         "2,402 of the pairs only Helios fuses span two cache lines "
         "within the 64 B region; the oracle names same-line heads, as a "
         "trained UCH does"},
        {"typeset",
         "all 3,634 pairs only Helios fuses span two cache lines within "
         "the 64 B region; the oracle names same-line heads"},
        {"gsm_toast",
         "a different head choice: 7,028 of Helios's heads pair with "
         "another tail under the oracle, and 920 of Helios's pairs span "
         "two cache lines (16,000 pairs against 16,013)"},
    };

    const RunReportFile baseline = RunReportFile::load(SUITE_BASELINE);
    for (const Workload &workload : allWorkloads()) {
        const std::string &name = workload.name;
        const RunReport *helios = baseline.find(name, "Helios");
        const RunReport *oracle = baseline.find(name, "OracleFusion");
        ASSERT_TRUE(helios && oracle) << name << "; " << kRegenerate;

        if (ipc_exceptions.count(name))
            EXPECT_LT(oracle->ipc, helios->ipc)
                << name << " is listed as an IPC exception but the "
                   "oracle now bounds Helios";
        else
            EXPECT_GE(oracle->ipc, helios->ipc) << name;

        const uint64_t oracle_ncsf = oracle->stats.get("pairs.ncsf");
        const uint64_t helios_ncsf = helios->stats.get("pairs.ncsf");
        if (ncsf_exceptions.count(name))
            EXPECT_LT(oracle_ncsf, helios_ncsf)
                << name << " is listed as a pairs.ncsf exception but the "
                   "oracle now bounds Helios";
        else
            EXPECT_GE(oracle_ncsf, helios_ncsf) << name;

        // The oracle names only in-region heads that renameMarker keeps.
        for (const char *counter :
             {"fusion.mispredict_region", "fusion.unfuse_deadlock",
              "fusion.unfuse_late_raw"})
            EXPECT_EQ(oracle->stats.get(counter), 0u)
                << name << " under OracleFusion: " << counter;
    }
}
