/**
 * @file
 * Workload validation: every kernel must assemble, run to completion
 * within its instruction budget, and produce exactly the checksum its
 * C++ reference implementation computes. This pins down the assembler,
 * the functional simulator and the kernels themselves.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/hart.hh"
#include "workloads/workloads.hh"

using namespace helios;

namespace
{

class WorkloadCheck : public ::testing::TestWithParam<std::string>
{};

} // namespace

TEST_P(WorkloadCheck, MatchesReference)
{
    const Workload &workload = findWorkload(GetParam());
    Memory mem;
    Hart hart(mem);
    hart.reset(workload.program());
    hart.runFast(40'000'000);
    ASSERT_TRUE(hart.exited())
        << workload.name << " did not exit within budget ("
        << hart.instsExecuted() << " insts executed)";
    EXPECT_EQ(hart.exitCode(), workload.reference())
        << workload.name << " checksum mismatch";
}

TEST_P(WorkloadCheck, DynamicLengthIsReasonable)
{
    const Workload &workload = findWorkload(GetParam());
    Memory mem;
    Hart hart(mem);
    hart.reset(workload.program());
    hart.runFast(40'000'000);
    ASSERT_TRUE(hart.exited());
    // Kernels are sized for meaningful timing runs: long enough to
    // exercise the pipeline, short enough for the bench matrix.
    EXPECT_GT(hart.instsExecuted(), 50'000u) << workload.name;
    EXPECT_LT(hart.instsExecuted(), 2'000'000u) << workload.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadCheck,
    ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(Workloads, SuiteShape)
{
    const auto &all = allWorkloads();
    EXPECT_GE(all.size(), 30u);
    unsigned spec = 0, mibench = 0;
    for (const Workload &workload : all) {
        EXPECT_FALSE(workload.name.empty());
        EXPECT_FALSE(workload.description.empty());
        (workload.suite == Suite::Spec ? spec : mibench) += 1;
    }
    EXPECT_GE(spec, 10u);
    EXPECT_GE(mibench, 15u);
}

TEST(Workloads, NamesAreUnique)
{
    auto names = workloadNames();
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Workloads, FindUnknownThrows)
{
    EXPECT_THROW(findWorkload("no-such-benchmark"), FatalError);
}
