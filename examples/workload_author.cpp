/**
 * @file
 * Workload authoring walkthrough: write a self-checking RISC-V kernel
 * the way the suite's kernels are written — assembly plus a C++
 * reference of the same algorithm — validate it functionally, then
 * measure it under the fusion configurations and the stream analyses.
 *
 *   $ ./examples/workload_author
 */

#include <cstdio>

#include "harness/analysis.hh"
#include "harness/runner.hh"
#include "sim/hart.hh"

using namespace helios;

namespace
{

/// The kernel: strided sums over an array of 3-field records, the
/// kind of code that is full of load-pair opportunities.
constexpr uint64_t numRecords = 2000;
constexpr uint64_t numRounds = 10;

const char *kernelSource = R"(
    la s0, records
    li s1, {N}

    # build records: {key, value, weight}
    li t0, 0
build:
    li t1, 24
    mul t1, t1, t0
    add t1, t1, s0
    sd t0, 0(t1)
    slli t2, t0, 1
    addi t2, t2, 3
    sd t2, 8(t1)
    xori t3, t2, 0x2a
    sd t3, 16(t1)
    addi t0, t0, 1
    blt t0, s1, build

    li s2, 0
    li s3, {ROUNDS}
round:
    li t0, 0
    mv t1, s0
scan:
    ld t2, 8(t1)     # value
    ld t3, 16(t1)    # weight: contiguous -> consecutive fusion
    mul t4, t2, t3
    add s2, s2, t4
    ld t5, 0(t1)     # key: same line -> predictive fusion
    xor s2, s2, t5
    addi t1, t1, 24
    addi t0, t0, 1
    blt t0, s1, scan
    addi s3, s3, -1
    bnez s3, round

    mv a0, s2
    li a7, 93
    ecall

    .data
    .align 6
records:
    .zero {BYTES}
)";

/// The C++ reference mirrors the kernel's arithmetic exactly.
uint64_t
reference()
{
    uint64_t key[numRecords], value[numRecords], weight[numRecords];
    for (uint64_t i = 0; i < numRecords; ++i) {
        key[i] = i;
        value[i] = 2 * i + 3;
        weight[i] = value[i] ^ 0x2a;
    }
    uint64_t sum = 0;
    for (uint64_t round = 0; round < numRounds; ++round) {
        for (uint64_t i = 0; i < numRecords; ++i) {
            sum += value[i] * weight[i];
            sum ^= key[i];
        }
    }
    return sum;
}

} // namespace

int
main()
{
    using workload_detail::substitute;
    std::string source = kernelSource;
    source = substitute(source, "N", numRecords);
    source = substitute(source, "ROUNDS", numRounds);
    source = substitute(source, "BYTES", numRecords * 24);

    Workload workload{"records_scan", Suite::MiBench,
                      "record scanning demo", source, reference};

    // 1) Self-check against the C++ reference.
    Memory memory;
    Hart hart(memory);
    hart.reset(workload.program());
    hart.runFast();
    const uint64_t expected = reference();
    std::printf("checksum: asm %llu, reference %llu — %s\n",
                (unsigned long long)hart.exitCode(),
                (unsigned long long)expected,
                hart.exitCode() == expected ? "MATCH" : "MISMATCH");
    if (hart.exitCode() != expected)
        return 1;

    // 2) Stream characterization (what could fuse?).
    NcsfPotentialAccumulator accumulator;
    forEachDynInst(workload, UINT64_MAX,
                   [&](const DynInst &dyn) { accumulator.add(dyn); });
    const NcsfPotentialStats &potential = accumulator.stats();
    std::printf("pairable: CSF %.1f%%  NCSF %.1f%%  (of %llu µ-ops)\n",
                100.0 * potential.fraction(potential.csfSbr +
                                           potential.csfDbr),
                100.0 * potential.fraction(potential.ncsfSbr +
                                           potential.ncsfDbr),
                (unsigned long long)potential.totalUops);

    // 3) Timing under the main configurations.
    for (FusionMode mode : {FusionMode::None, FusionMode::CsfSbr,
                            FusionMode::Helios, FusionMode::Oracle}) {
        const RunResult result = runOne(workload, mode);
        std::printf("%-14s IPC %.3f  fused pairs %llu\n",
                    fusionModeName(mode), result.ipc(),
                    (unsigned long long)(result.stat("pairs.csf_mem") +
                                         result.stat("pairs.ncsf")));
    }
    return 0;
}
