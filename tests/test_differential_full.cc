/**
 * @file
 * Differential verification across the FULL workload suite: every
 * workload runs under {NoFusion, CSF-SBR, Helios, OracleFusion} with
 * the invariant auditor attached (when compiled in), and every
 * configuration must reproduce the baseline architectural state and
 * committed instruction count. Registered under the `slow` ctest
 * label; tier-1 coverage lives in test_differential.cc.
 */

#include <gtest/gtest.h>

#include "harness/differential.hh"

using namespace helios;

TEST(DifferentialFull, AllWorkloadsAllConfigs)
{
    DiffOptions opts;
    opts.maxInsts = 50'000;
    opts.audit = true;

    const DiffReport report = runDifferentialAll(opts);

    ASSERT_EQ(report.workloads.size(), allWorkloads().size());
    EXPECT_TRUE(report.ok()) << report.toJson();

    uint64_t audit_checks = 0;
    for (const RunResult &result : report.results) {
        EXPECT_GT(result.cycles, 0u) << result.workload;
        EXPECT_EQ(result.instructions, result.hartInstructions)
            << result.workload << " under "
            << fusionModeName(result.mode);
        audit_checks += result.auditChecks;
    }
    if (opts.audit) {
        EXPECT_GT(audit_checks, 0u);
    }
}
