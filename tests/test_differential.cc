/**
 * @file
 * Differential verification harness: fast (tier-1) coverage.
 *
 * A smoke subset of workloads runs through {NoFusion, CSF-SBR,
 * Helios, OracleFusion} asserting identical final architectural state
 * and committed counts; harness mechanics (violation reporting, JSON,
 * option validation) are exercised directly. The full workload suite
 * lives in test_differential_full.cc under the `slow` ctest label.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "harness/differential.hh"

using namespace helios;

namespace
{

constexpr uint64_t smokeBudget = 20'000;

std::vector<const Workload *>
pick(std::initializer_list<const char *> names)
{
    std::vector<const Workload *> workloads;
    for (const char *name : names)
        workloads.push_back(&findWorkload(name));
    return workloads;
}

} // namespace

TEST(Differential, SmokeSubsetAgreesAcrossConfigs)
{
    DiffOptions opts;
    opts.maxInsts = smokeBudget;
    const DiffReport report = runDifferential(
        pick({"605.mcf_s", "qsort", "crc32"}), opts);

    ASSERT_EQ(report.workloads.size(), 3u);
    ASSERT_EQ(report.results.size(),
              report.workloads.size() * report.modes.size());
    EXPECT_TRUE(report.ok()) << report.toJson();

    // Every cell actually ran and the committed counts line up with
    // the functional hart even before the cross-checks.
    for (const RunResult &result : report.results) {
        EXPECT_GT(result.cycles, 0u) << result.workload;
        EXPECT_EQ(result.instructions, result.hartInstructions)
            << result.workload;
    }
}

TEST(Differential, FusedModesNeverCommitFewerInstructions)
{
    DiffOptions opts;
    opts.maxInsts = smokeBudget;
    const DiffReport report =
        runDifferential(pick({"dijkstra", "sha"}), opts);
    ASSERT_TRUE(report.ok()) << report.toJson();

    for (size_t w = 0; w < report.workloads.size(); ++w) {
        const RunResult &base = report.result(w, 0);
        for (size_t m = 1; m < report.modes.size(); ++m) {
            const RunResult &res = report.result(w, m);
            EXPECT_EQ(res.instructions, base.instructions);
            EXPECT_EQ(res.archChecksum, base.archChecksum);
            EXPECT_EQ(res.memChecksum, base.memChecksum);
            // Fusion shrinks the µ-op stream, never grows it.
            EXPECT_LE(res.uops, base.uops);
        }
    }
}

TEST(Differential, ViolationPathProducesReport)
{
    // An impossible IPC demand forces the regression check to fire,
    // exercising the reporting path without corrupting a pipeline.
    DiffOptions opts;
    opts.maxInsts = 5'000;
    opts.ipcTolerance = -10.0; // fused must beat baseline 11x: never
    const DiffReport report = runDifferential(pick({"crc32"}), opts);

    EXPECT_FALSE(report.ok());
    ASSERT_FALSE(report.violations.empty());
    const DiffViolation &violation = report.violations.front();
    EXPECT_EQ(violation.check, "ipc_regression");
    EXPECT_EQ(violation.workload, "crc32");

    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
    EXPECT_NE(json.find("ipc_regression"), std::string::npos) << json;
    EXPECT_NE(json.find("crc32"), std::string::npos) << json;
}

TEST(Differential, ElfWorkloadAgreesAcrossEngines)
{
    // The ELF-loaded kernel routes the real-binary loader, the Linux
    // ABI start stack and the ecall shim (write + brk) through the
    // DynInst-lockstep and end-state engine comparison.
    const EngineDiffReport report =
        runEngineDifferential({&elfChecksumWorkload()});
    EXPECT_TRUE(report.ok()) << report.toJson();
    EXPECT_GT(report.tracedInstructions, 0u);
    EXPECT_GT(report.untracedInstructions, 0u);
}

TEST(Differential, ElfWorkloadAgreesAcrossFusionConfigs)
{
    DiffOptions opts;
    opts.maxInsts = smokeBudget;
    // The kernel retires a few hundred instructions, so its IPC is
    // dominated by pipeline fill and the regression heuristic is
    // noise; this test is about architectural agreement.
    opts.ipcTolerance = 1.0;
    const DiffReport report =
        runDifferential({&elfChecksumWorkload()}, opts);
    EXPECT_TRUE(report.ok()) << report.toJson();

    ASSERT_FALSE(report.results.empty());
    for (const RunResult &result : report.results) {
        EXPECT_TRUE(result.exited) << result.workload;
        EXPECT_EQ(result.exitCode,
                  elfChecksumWorkload().reference());
        // The report carries the image fingerprint for provenance.
        EXPECT_NE(result.programHash, 0u);
    }
}

TEST(Differential, RejectsDegenerateOptions)
{
    DiffOptions opts;
    opts.modes = {FusionMode::None};
    EXPECT_THROW(runDifferential(pick({"crc32"}), opts), FatalError);
}

TEST(Differential, AuditedSmokeRunIsClean)
{
    DiffOptions opts;
    opts.maxInsts = smokeBudget;
    opts.audit = true;
    const DiffReport report = runDifferential(pick({"qsort"}), opts);

    EXPECT_TRUE(report.ok()) << report.toJson();
    EXPECT_TRUE(report.audited);
    for (const RunResult &result : report.results) {
        EXPECT_TRUE(result.audited);
        EXPECT_GT(result.auditChecks, 0u);
    }
}
