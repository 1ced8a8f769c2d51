/**
 * @file
 * Experiment harness: run workload × configuration matrices and
 * collect results for the paper's tables and figures.
 *
 * Two throughput layers keep the big sweeps fast: a streaming trace
 * API (forEachDynInst) so analyses never materialize multi-million
 * entry vectors, and a parallel run matrix (runMatrix) that farms
 * independent (workload, configuration) cells out to a worker pool —
 * every cell owns a private Memory/Hart/Pipeline, so the sweep is
 * embarrassingly parallel and results are deterministic.
 */

#ifndef HARNESS_RUNNER_HH
#define HARNESS_RUNNER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/trace.hh"
#include "telemetry/profiler.hh"
#include "uarch/auditor.hh"
#include "uarch/params.hh"
#include "workloads/workloads.hh"

namespace helios
{

struct Checkpoint;

/** Result of one (workload, configuration) timing run. */
struct RunResult
{
    std::string workload;
    FusionMode mode = FusionMode::None;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t uops = 0;
    StatGroup stats;

    // Final architectural state of the functional hart that fed the
    // run. The differential harness compares these across fusion
    // configurations: the timing model must never change what the
    // program computed.
    uint64_t archChecksum = 0;     ///< Hart::archChecksum()
    uint64_t memChecksum = 0;      ///< Memory::checksum()
    uint64_t hartInstructions = 0; ///< instructions the hart executed
    bool exited = false;           ///< program reached its exit ecall
    uint64_t exitCode = 0;
    uint64_t programHash = 0;      ///< Program::sourceHash fingerprint
    uint64_t configHash = 0;       ///< configHash(params) of this run

    // Audit outcome; filled when CoreParams::audit was set.
    bool audited = false;
    uint64_t auditChecks = 0;
    std::vector<AuditViolation> auditViolations;

    // Per-PC fusion-site profile; filled when CoreParams::profile
    // was set.
    bool profiled = false;
    ProfileData profile;

    // Sampled-interval cell outcome (MatrixCell::restoreFrom runs).
    // cycles/instructions/uops above stay the cell totals (warmup +
    // measured window); the sampling layer subtracts the warmup
    // snapshot to get the measured window.
    bool sampled = false;
    uint64_t sampleStartInst = 0;  ///< checkpoint cut (dynamic index)
    bool warmupTaken = false;      ///< the commit watch latched
    uint64_t warmupCycles = 0;
    uint64_t warmupInstructions = 0;
    uint64_t warmupUops = 0;
    uint64_t warmupFusedPairs = 0;

    double
    ipc() const
    {
        return cycles ? double(instructions) / double(cycles) : 0.0;
    }

    /** Convenience accessor into the stat group. */
    uint64_t stat(const std::string &name) const { return stats.get(name); }
};

/**
 * Run one workload under one configuration.
 *
 * @param max_insts cap on executed architectural instructions
 *        (UINT64_MAX: run the kernel to completion)
 */
RunResult runOne(const Workload &workload, FusionMode mode,
                 uint64_t max_insts = UINT64_MAX);

/** Same, with explicit parameters (ablation studies). */
RunResult runOne(const Workload &workload, const CoreParams &params,
                 uint64_t max_insts = UINT64_MAX);

/**
 * Sampled-interval variant: restore the hart from @a restore_from
 * instead of resetting (skipping the assemble/ELF-load entirely), run
 * at most @a max_insts instructions, and latch the warmup snapshot
 * when @a warmup_insts instructions have committed (0: no watch).
 * With @a checksum_memory false, memChecksum stays 0 instead of
 * fingerprinting every resident page. With restore_from == nullptr
 * and the checksum taken this is exactly the plain overload.
 */
RunResult runOne(const Workload &workload, const CoreParams &params,
                 uint64_t max_insts, const Checkpoint *restore_from,
                 uint64_t warmup_insts, bool checksum_memory = true);

/**
 * One cell of an experiment matrix: a workload to run under a
 * configuration with an instruction budget. The workload is held by
 * pointer and must outlive the runMatrix() call (cells built from
 * allWorkloads() / findWorkload() always satisfy this).
 *
 * Sampled-interval cells additionally point at a Checkpoint to
 * restore from (must outlive the runMatrix() call) and carry the
 * warmup length; the hart then resumes from the checkpoint's cut
 * instead of resetting, so a long run shards into independent,
 * restartable interval cells. runMatrix() skips an interval cell's
 * memory checksum: its memChecksum stays 0.
 */
struct MatrixCell
{
    const Workload *workload = nullptr;
    CoreParams params;
    uint64_t maxInsts = UINT64_MAX;

    // Sampled-interval cells (harness/sampling.hh schedules these).
    const Checkpoint *restoreFrom = nullptr;
    uint64_t warmupInsts = 0;

    MatrixCell() = default;

    MatrixCell(const Workload &w, const CoreParams &p,
               uint64_t max_insts = UINT64_MAX)
        : workload(&w), params(p), maxInsts(max_insts)
    {}

    MatrixCell(const Workload &w, FusionMode mode,
               uint64_t max_insts = UINT64_MAX)
        : workload(&w), params(CoreParams::icelake(mode)),
          maxInsts(max_insts)
    {}
};

/**
 * Run every cell of an experiment matrix, possibly in parallel.
 *
 * Results come back in input order and are bit-identical to running
 * the cells sequentially through runOne(): each worker owns private
 * simulator state, so the schedule cannot influence any counter.
 * A fatal() raised by any cell is rethrown on the calling thread.
 *
 * @param jobs worker-thread count; 0 means defaultJobCount()
 */
std::vector<RunResult> runMatrix(const std::vector<MatrixCell> &cells,
                                 unsigned jobs = 0);

/** The most worker threads HELIOS_JOBS or a --jobs flag may ask for. */
constexpr unsigned kMaxJobs = 1024;

/**
 * Worker count used by runMatrix(jobs=0): the HELIOS_JOBS environment
 * variable if set (fatal() unless it is a count from 1 to kMaxJobs),
 * otherwise std::thread::hardware_concurrency().
 */
unsigned defaultJobCount();

/** Final state of a functional-only (no timing model) run. */
struct FunctionalResult
{
    uint64_t instructions = 0; ///< executed before exit/budget
    uint64_t archChecksum = 0; ///< Hart::archChecksum()
    uint64_t memChecksum = 0;  ///< Memory::checksum()
    bool exited = false;
    uint64_t exitCode = 0;
    uint64_t programHash = 0;  ///< Program::sourceHash fingerprint
};

/**
 * Functional-only run: Hart::runFast() under @a max_insts, returning
 * the final architectural fingerprint.
 */
FunctionalResult runFunctional(const Workload &workload,
                               uint64_t max_insts = UINT64_MAX);

/**
 * Streaming functional run: execute the workload through Hart::step()
 * and hand each dynamic instruction to @a visit as it retires,
 * without buffering the stream.
 *
 * @return the number of instructions executed
 */
uint64_t forEachDynInst(const Workload &workload, uint64_t max_insts,
                        const std::function<void(const DynInst &)> &visit);

/**
 * Geometric mean of a list of ratios. Non-positive values carry no
 * usable ratio information (log is undefined) and are skipped; an
 * input with no positive values yields 0.
 */
double geomean(const std::vector<double> &values);

/** The per-workload instruction budget of the bench binaries and of
 *  the committed suite baseline. */
constexpr uint64_t kBenchDefaultBudget = 200'000;

/**
 * The per-workload instruction budget used by bench binaries:
 * kBenchDefaultBudget unless the HELIOS_MAX_INSTS environment
 * variable overrides it. Malformed or zero values are a fatal() error
 * rather than a silent zero-instruction run.
 */
uint64_t benchInstructionBudget();

/**
 * HELIOS_PROFILE: when set, the figures bench attaches the fusion-site
 * profiler to every cell with this window in cycles (0: no windowed
 * samples).
 */
std::optional<uint64_t> benchProfileWindow();

/**
 * Check every HELIOS_* variable a run reads, through the parsers its
 * reader uses, before any work: HELIOS_JOBS, HELIOS_MAX_INSTS and
 * HELIOS_PROFILE as above; HELIOS_HEARTBEAT (seconds between sweep
 * heartbeats, a non-negative number; 0 turns it off);
 * HELIOS_PROGRESS (0 or 1); HELIOS_LOG (a level name); the output
 * files HELIOS_LOG_JSON, HELIOS_HOST_TRACE, HELIOS_METRICS and
 * HELIOS_REPORT; and the HELIOS_LEDGER directory. fatal() naming the
 * variable and quoting the value on the first bad one.
 */
void validateRunEnvironment();

} // namespace helios

#endif // HARNESS_RUNNER_HH
