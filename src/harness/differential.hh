/**
 * @file
 * Differential verification harness: run workloads through multiple
 * fusion configurations and machine-check that fusion only changed
 * the timing, never the computation.
 *
 * For every workload the harness asserts, against the no-fusion
 * baseline, that each configuration
 *
 *  - reached an identical final architectural state (register file,
 *    pc, exit status and output via Hart::archChecksum(); memory via
 *    Memory::checksum());
 *  - committed exactly the instructions the functional hart executed
 *    (no µ-op lost or duplicated by fusion/unfuse/replay);
 *  - did not regress IPC below the unfused baseline beyond a small
 *    tolerance (fusion exists to go faster);
 *  - with DiffOptions::audit set, produced zero PipelineAuditor
 *    invariant violations.
 *
 * Violations carry the offending workload/mode plus seq and cycle
 * where known, and the whole report renders to JSON for CI logs.
 */

#ifndef HARNESS_DIFFERENTIAL_HH
#define HARNESS_DIFFERENTIAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace helios
{

/** Knobs for one differential sweep. */
struct DiffOptions
{
    /** Configurations to compare; the first is the baseline. */
    std::vector<FusionMode> modes = {FusionMode::None, FusionMode::CsfSbr,
                                     FusionMode::Helios, FusionMode::Oracle};

    /** Per-workload instruction budget. */
    uint64_t maxInsts = UINT64_MAX;

    /**
     * Fused configurations must reach at least
     * (1 - ipcTolerance) × baseline IPC. Fusion never removes work,
     * so a real regression means the model spent cycles it should
     * not have; the tolerance absorbs second-order scheduling noise.
     */
    double ipcTolerance = 0.02;

    /** Attach a PipelineAuditor to every run. */
    bool audit = false;

    /** Worker threads for the underlying runMatrix (0 = default). */
    unsigned jobs = 0;
};

/** One cross-configuration or audit failure. */
struct DiffViolation
{
    std::string workload;
    FusionMode mode = FusionMode::None;
    std::string check;  ///< "arch_state", "mem_state", "commit_count",
                        ///< "ipc_regression" or "audit.<invariant>"
    std::string detail; ///< human-readable specifics
    uint64_t seq = 0;   ///< offending sequence number (0 if n/a)
    uint64_t cycle = 0; ///< offending cycle (0 if n/a)

    std::string toJson() const;
};

/** Everything a differential sweep produced. */
struct DiffReport
{
    std::vector<FusionMode> modes;
    std::vector<std::string> workloads;
    /** Row-major: results[w * modes.size() + m]. */
    std::vector<RunResult> results;
    std::vector<DiffViolation> violations;
    bool audited = false;

    bool ok() const { return violations.empty(); }

    const RunResult &
    result(size_t workload, size_t mode) const
    {
        return results[workload * modes.size() + mode];
    }

    /** Machine-readable report: {"ok":..., "violations":[...], ...}. */
    std::string toJson() const;
};

/**
 * Run @a workloads through every configuration in @a opts.modes and
 * cross-check the results. Cells run through runMatrix(), so the
 * sweep parallelizes across (workload, mode) and results are
 * deterministic. fatal() if opts requests fewer than two modes.
 */
DiffReport runDifferential(const std::vector<const Workload *> &workloads,
                           const DiffOptions &opts = {});

/** Convenience: the full workload suite. */
DiffReport runDifferentialAll(const DiffOptions &opts = {});

/** One fast-vs-reference engine equivalence failure. */
struct EngineDiffViolation
{
    std::string workload;
    std::string check;  ///< "dyninst_stream", "trace_length",
                        ///< "inst_count", "arch_state", "mem_state"
                        ///< or "exit_state"
    std::string detail; ///< human-readable specifics
    uint64_t seq = 0;   ///< first diverging sequence number (0 if n/a)

    std::string toJson() const;
};

/** Result of a fast-vs-reference engine equivalence sweep. */
struct EngineDiffReport
{
    std::vector<std::string> workloads;
    std::vector<EngineDiffViolation> violations;
    uint64_t tracedInstructions = 0;   ///< DynInsts compared in lockstep
    uint64_t untracedInstructions = 0; ///< insts executed per engine

    bool ok() const { return violations.empty(); }

    /** Machine-readable report: {"ok":..., "violations":[...], ...}. */
    std::string toJson() const;
};

/**
 * Prove the fast-forward engine (Hart::runFast / Hart::stepFast)
 * bit-identical to the reference engine (Hart::run / Hart::step).
 * For each workload, two independent checks:
 *
 *  1. traced lockstep — step() and stepFast() advance private harts
 *     side by side and every DynInst field (seq, pc, nextPc, decoded
 *     instruction including the raw word, effective address, branch
 *     outcome) is compared record by record for the first
 *     @a traced_insts instructions;
 *  2. untraced end state — run() and runFast() execute under
 *     @a max_insts and the final Hart::archChecksum(),
 *     Memory::checksum(), executed-instruction count and exit
 *     status/code must all match.
 */
EngineDiffReport
runEngineDifferential(const std::vector<const Workload *> &workloads,
                      uint64_t max_insts = UINT64_MAX,
                      uint64_t traced_insts = 20'000);

/**
 * Convenience: the full workload suite plus a self-modifying-code
 * kernel (smcPatchWorkload()) that patches instruction words inside
 * its own hot loop, exercising the decoder-cache invalidation path
 * under both engines, plus an ELF-loaded kernel
 * (elfChecksumWorkload()) that routes the real-binary frontend and
 * the Linux ecall shim through the same lockstep checks.
 */
EngineDiffReport
runEngineDifferentialAll(uint64_t max_insts = UINT64_MAX,
                         uint64_t traced_insts = 20'000);

/**
 * A self-checking kernel that stores into its own text segment every
 * iteration (rewriting an addi immediate), so any stale decoder-cache
 * entry or block descriptor shows up as a checksum divergence. Not
 * part of allWorkloads() — the paper matrix never self-modifies — but
 * appended by runEngineDifferentialAll() and usable directly in
 * tests.
 */
const Workload &smcPatchWorkload();

/**
 * A self-checking kernel assembled in-process, packed into a static
 * ELF64 image (harness/elf_image.hh) and re-loaded through the real
 * ELF frontend. Runs under the Linux ABI start stack and exercises
 * the ecall shim (write to captured stdout, brk heap growth) before
 * exiting with a heap checksum. Appended by
 * runEngineDifferentialAll(); also usable directly in fusion-config
 * differentials.
 */
const Workload &elfChecksumWorkload();

} // namespace helios

#endif // HARNESS_DIFFERENTIAL_HH
