/**
 * @file
 * Quickstart: assemble a RISC-V program, execute it functionally,
 * then run it through the Helios out-of-order pipeline and compare
 * against the no-fusion baseline.
 *
 *   $ ./examples/quickstart
 */

#include <cstdio>

#include "asm/assembler.hh"
#include "sim/hart.hh"
#include "uarch/pipeline.hh"

using namespace helios;

int
main()
{
    // A small kernel with obvious fusion opportunities: two loads off
    // the same cache line separated by ALU work (an NCSF pair), and a
    // `li` (lui+addiw) pair the consecutive-fusion idioms catch.
    const char *source = R"(
        la s0, data
        li s1, 20000
        li s2, 0
    loop:
        ld t0, 0(s0)          # head nucleus
        add s2, s2, t0
        xor t2, s2, t0        # catalyst
        ld t1, 16(s0)         # tail nucleus (same line, NCSF)
        add s2, s2, t1
        li t3, 1234567        # lui+addiw -> consecutive fusion
        add s2, s2, t3
        addi s1, s1, -1
        bnez s1, loop
        mv a0, s2
        li a7, 93
        ecall

        .data
        .align 6
    data:
        .dword 3, 5, 7, 9, 11, 13, 15, 17
    )";

    const Program program = assemble(source);
    std::printf("assembled %zu instructions\n", program.numInsts());

    // 1) Functional execution (the ground truth).
    {
        Memory memory;
        Hart hart(memory);
        hart.reset(program);
        hart.runFast();
        std::printf("functional result: a0 = %llu after %llu insts\n",
                    (unsigned long long)hart.exitCode(),
                    (unsigned long long)hart.instsExecuted());
    }

    // 2) Timing simulation, no fusion vs Helios.
    for (FusionMode mode : {FusionMode::None, FusionMode::Helios}) {
        Memory memory;
        Hart hart(memory);
        hart.reset(program);
        HartFeed feed(hart);
        Pipeline pipeline(CoreParams::icelake(mode), feed);
        const PipelineResult result = pipeline.run();
        std::printf(
            "%-12s %8llu cycles  IPC %.3f  csf pairs %llu  "
            "ncsf pairs %llu\n",
            fusionModeName(mode), (unsigned long long)result.cycles,
            result.ipc(),
            (unsigned long long)(pipeline.stats().get("pairs.csf_mem") +
                                 pipeline.stats().get(
                                     "pairs.csf_other")),
            (unsigned long long)pipeline.stats().get("pairs.ncsf"));
    }
    return 0;
}
