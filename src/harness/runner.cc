#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "harness/run_ledger.hh"
#include "ledger/ledger.hh"
#include "sim/checkpoint.hh"
#include "sim/hart.hh"
#include "telemetry/host_metrics.hh"
#include "telemetry/host_trace.hh"
#include "uarch/auditor.hh"
#include "uarch/params.hh"
#include "uarch/pipeline.hh"

namespace helios
{

namespace
{

/**
 * Parse a strictly positive integer environment variable; fatal() on
 * garbage, trailing junk, overflow or zero so misconfigured sweeps
 * fail loudly instead of silently running nothing.
 */
uint64_t
parsePositiveEnv(const char *name, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 0);
    // strtoull silently wraps negative input to a huge value.
    if (end == text || *end != '\0' || text[0] == '-')
        fatal("%s='%s' is not a number", name, text);
    if (errno == ERANGE)
        fatal("%s='%s' is out of range", name, text);
    if (value == 0)
        fatal("%s must be a positive integer (got '%s')", name, text);
    return value;
}

/**
 * Sweep progress feedback, fed by workers as cells complete. Two
 * modes, both off the results path (pure observer):
 *
 *  - stderr is a TTY: a throttled rewrite-in-place progress line with
 *    completion percentage, cell rate and ETA (HELIOS_PROGRESS=0
 *    disables);
 *  - otherwise: a periodic heartbeat through the structured logger at
 *    info level, every HELIOS_HEARTBEAT seconds (default 30; 0
 *    disables) — so a multi-hour redirected sweep still shows a
 *    pulse in its log.
 */
class MatrixProgress
{
  public:
    explicit MatrixProgress(size_t total_cells)
        : total(total_cells),
          start(std::chrono::steady_clock::now())
    {
        const char *env = std::getenv("HELIOS_PROGRESS");
        tty = isatty(fileno(stderr)) &&
              !(env && std::string(env) == "0");
        heartbeatSeconds = 30.0;
        if (const char *beat = std::getenv("HELIOS_HEARTBEAT"))
            heartbeatSeconds = std::strtod(beat, nullptr);
    }

    ~MatrixProgress()
    {
        if (shown)
            Logger::global().clearProgress();
    }

    void
    cellDone()
    {
        const size_t done = completed.fetch_add(1) + 1;
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   start)
                                   .count();
        if (tty) {
            std::lock_guard<std::mutex> lock(mutex);
            // Throttle redraws; always draw the final cell so the
            // line ends at 100%.
            if (elapsed - lastUpdate < 0.1 && done != total)
                return;
            lastUpdate = elapsed;
            shown = true;
            Logger::global().progress(render(done, elapsed));
        } else if (heartbeatSeconds > 0) {
            std::lock_guard<std::mutex> lock(mutex);
            if (elapsed - lastUpdate < heartbeatSeconds)
                return;
            lastUpdate = elapsed;
            inform("[matrix] %s", render(done, elapsed).c_str());
        }
    }

  private:
    std::string
    render(size_t done, double elapsed) const
    {
        return formatMatrixProgress(done, total, elapsed);
    }

    const size_t total;
    const std::chrono::steady_clock::time_point start;
    std::atomic<size_t> completed{0};
    std::mutex mutex;
    double lastUpdate = 0.0;
    double heartbeatSeconds = 30.0;
    bool tty = false;
    bool shown = false;
};

} // namespace

RunResult
runOne(const Workload &workload, const CoreParams &params,
       uint64_t max_insts, const Checkpoint *restore_from,
       uint64_t warmup_insts)
{
    Memory mem;
    Hart hart(mem);
    uint64_t program_hash = 0;
    if (restore_from) {
        // Resume mid-run: no assemble/ELF-load — the checkpoint is
        // the whole program state, and it is config-independent, so
        // every configuration of a sweep restores the same one.
        hart.restoreCheckpoint(*restore_from);
        program_hash = restore_from->programHash;
    } else {
        const Program prog = workload.program();
        hart.reset(prog);
        program_hash = prog.sourceHash;
    }
    HartFeed feed(hart, max_insts);

    Pipeline pipeline(params, feed);
    if (warmup_insts)
        pipeline.armCommitWatch(warmup_insts);
    std::unique_ptr<PipelineAuditor> auditor;
    if (params.audit) {
        auditor = std::make_unique<PipelineAuditor>(params);
        pipeline.attach(auditor.get());
    }
    const PipelineResult pres = pipeline.run();

    RunResult result;
    result.workload = workload.name;
    result.mode = params.fusion;
    result.cycles = pres.cycles;
    result.instructions = pres.instructions;
    result.uops = pres.uops;
    result.stats = pipeline.stats();
    result.archChecksum = hart.archChecksum();
    result.memChecksum = mem.checksum();
    result.hartInstructions = hart.instsExecuted();
    result.exited = hart.exited();
    result.exitCode = hart.exitCode();
    result.programHash = program_hash;
    result.configHash = configHash(params);
    if (auditor) {
        result.audited = true;
        result.auditChecks = auditor->checksPerformed();
        result.auditViolations = auditor->violations();
    }
    if (const FusionProfiler *profiler = pipeline.fusionProfiler()) {
        result.profiled = true;
        result.profile = profiler->data();
    }
    if (restore_from) {
        result.sampled = true;
        result.sampleStartInst = restore_from->instIndex;
        const Pipeline::CommitWatch &watch = pipeline.commitWatch();
        result.warmupTaken = watch.taken;
        result.warmupCycles = watch.cycles;
        result.warmupInstructions = watch.instructions;
        result.warmupUops = watch.uops;
        result.warmupFusedPairs = watch.fusedPairs;
    }
    return result;
}

RunResult
runOne(const Workload &workload, const CoreParams &params,
       uint64_t max_insts)
{
    return runOne(workload, params, max_insts, nullptr, 0);
}

RunResult
runOne(const Workload &workload, FusionMode mode, uint64_t max_insts)
{
    return runOne(workload, CoreParams::icelake(mode), max_insts);
}

unsigned
defaultJobCount()
{
    if (const char *env = std::getenv("HELIOS_JOBS")) {
        const uint64_t jobs = parsePositiveEnv("HELIOS_JOBS", env);
        if (jobs > 1024)
            fatal("HELIOS_JOBS=%llu is absurdly large",
                  static_cast<unsigned long long>(jobs));
        return static_cast<unsigned>(jobs);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::vector<RunResult>
runMatrix(const std::vector<MatrixCell> &cells, unsigned jobs)
{
    std::vector<RunResult> results(cells.size());
    if (cells.empty())
        return results;
    for (const MatrixCell &cell : cells)
        helios_assert(cell.workload, "matrix cell without a workload");

    if (jobs == 0)
        jobs = defaultJobCount();
    jobs = std::min<size_t>(jobs, cells.size());

    MatrixProgress progress(cells.size());

    // One cell, fully observed: a host-trace span on the worker's
    // track, log-context fields so any warn() fired inside the
    // pipeline names its cell, and guest-throughput accounting. All
    // of it reads the finished result — nothing feeds back into the
    // simulation, so telemetry on/off cannot move a counter (tier-1
    // guarded).
    auto run_cell = [&](size_t index) {
        const MatrixCell &cell = cells[index];
        const std::string mode = fusionModeName(cell.params.fusion);
        LogContext context({{"cell", std::to_string(index)},
                            {"workload", cell.workload->name},
                            {"config", mode}});
        HostSpan span(strFormat("cell %zu %s/%s", index,
                                cell.workload->name.c_str(),
                                mode.c_str()),
                      "cell");
        span.arg("workload", cell.workload->name);
        span.arg("config", mode);
        results[index] =
            runOne(*cell.workload, cell.params, cell.maxInsts,
                   cell.restoreFrom, cell.warmupInsts);
        span.end();
        logDebug("cell done: %llu cycles, %llu insts, IPC %.3f",
                 (unsigned long long)results[index].cycles,
                 (unsigned long long)results[index].instructions,
                 results[index].ipc());
        if (HostMetrics::global().enabled()) {
            HostMetrics::global().recordGuestWork(
                results[index].instructions, results[index].uops);
            HostMetrics::global().recordCellCompleted();
        }
        // Interval cells are fragments of one sampled run — their
        // individual numbers would collide under the (program,
        // config, budget) key. The sampling layer records the
        // aggregate instead, keyed by the sampling spec.
        if (Ledger::global() && !cell.restoreFrom)
            recordRunToLedger(results[index], cell.maxInsts);
        progress.cellDone();
    };

    if (jobs <= 1) {
        for (size_t i = 0; i < cells.size(); ++i)
            run_cell(i);
        return results;
    }

    // Each worker grabs the next unclaimed cell; every cell owns
    // private Memory/Hart/Pipeline state, so the claim order cannot
    // affect any result and output order is the input order.
    std::atomic<size_t> next{0};
    std::atomic<unsigned> worker_id{0};
    std::mutex error_mutex;
    std::exception_ptr error;

    auto worker = [&] {
        if (HostTracer::global().enabled())
            HostTracer::global().setThreadName(strFormat(
                "worker-%u", worker_id.fetch_add(1)));
        for (;;) {
            const size_t index = next.fetch_add(1);
            if (index >= cells.size())
                return;
            try {
                run_cell(index);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        pool.emplace_back(worker);
    for (std::thread &thread : pool)
        thread.join();

    if (error)
        std::rethrow_exception(error);
    return results;
}

FunctionalResult
runFunctional(const Workload &workload, uint64_t max_insts,
              bool fast_path)
{
    Memory mem;
    Hart hart(mem);
    const Program prog = workload.program();
    hart.reset(prog);

    FunctionalResult result;
    result.instructions =
        fast_path ? hart.runFast(max_insts) : hart.run(max_insts);
    result.archChecksum = hart.archChecksum();
    result.memChecksum = mem.checksum();
    result.exited = hart.exited();
    result.exitCode = hart.exitCode();
    result.programHash = prog.sourceHash;
    return result;
}

std::vector<DynInst>
functionalTrace(const Workload &workload, uint64_t max_insts)
{
    Memory mem;
    Hart hart(mem);
    hart.reset(workload.program());

    std::vector<DynInst> trace;
    DynInst rec;
    while (trace.size() < max_insts && hart.step(rec))
        trace.push_back(rec);
    return trace;
}

uint64_t
forEachDynInst(const Workload &workload, uint64_t max_insts,
               const std::function<void(const DynInst &)> &visit)
{
    Memory mem;
    Hart hart(mem);
    hart.reset(workload.program());

    uint64_t executed = 0;
    DynInst rec;
    while (executed < max_insts && hart.step(rec)) {
        visit(rec);
        ++executed;
    }
    return executed;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    size_t counted = 0;
    for (double value : values) {
        if (value <= 0.0)
            continue; // no ratio information; keep -inf out of the mean
        log_sum += std::log(value);
        ++counted;
    }
    return counted ? std::exp(log_sum / double(counted)) : 0.0;
}

uint64_t
benchInstructionBudget()
{
    if (const char *env = std::getenv("HELIOS_MAX_INSTS"))
        return parsePositiveEnv("HELIOS_MAX_INSTS", env);
    return 200'000;
}

} // namespace helios
