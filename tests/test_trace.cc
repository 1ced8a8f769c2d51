/** @file Pipeline event-trace tests (the µ-op lifecycle tracer). */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "harness/runner.hh"
#include "sim/hart.hh"
#include "telemetry/lifecycle.hh"
#include "uarch/pipeline.hh"

using namespace helios;

TEST(PipelineTrace, CommitLinesAndFusionMarkers)
{
    const char *source = R"(
        la s0, data
        li s1, 500
    loop:
        ld t0, 0(s0)
        add t2, t2, t0
        ld t1, 16(s0)
        add t2, t2, t1
        addi s1, s1, -1
        bnez s1, loop
        mv a0, t2
        li a7, 93
        ecall
        .data
        .align 6
    data:
        .zero 64
    )";
    Memory mem;
    Hart hart(mem);
    hart.reset(assemble(source));
    HartFeed feed(hart);
    Pipeline pipeline(CoreParams::icelake(FusionMode::Helios), feed);
    LifecycleTracer tracer;
    pipeline.attach(&tracer);
    const PipelineResult result = pipeline.run();

    // One record per committed µ-op, with cycle stamps and disassembly.
    EXPECT_EQ(tracer.numCommitted(), result.uops);
    bool head_alone = false, ncsf_pair = false;
    for (const UopLifecycle &rec : tracer.records()) {
        if (rec.squashed)
            continue;
        EXPECT_GT(rec.retire, rec.fetch) << rec.disasm;
        head_alone |= rec.disasm == "ld t0, 0(s0)";
        // The NCSF pair appears once the predictor warms up.
        ncsf_pair |= rec.fusion == FusionKind::NcsfMem &&
                     rec.pairDistance > 1 &&
                     rec.disasm == "ld t0, 0(s0) + ld t1, 16(s0)";
    }
    EXPECT_TRUE(head_alone);
    EXPECT_TRUE(ncsf_pair);
}

TEST(PipelineTrace, DisabledByDefault)
{
    const Workload &workload = findWorkload("crc32");
    RunResult result = runOne(workload, FusionMode::Helios, 5'000);
    EXPECT_GT(result.instructions, 0u); // no crash without a sink
}
