/**
 * @file
 * The four benchmark workloads.
 *
 *  - fig10_sweep: every suite kernel under all six fusion modes at the
 *    fig10 budget. Almost all host time is in the cycle model.
 *  - fastforward: every suite kernel to completion on the fast
 *    functional engine. Never touches the cycle model, so a uarch
 *    change must leave it unchanged.
 *  - sampled_long: the seeded long-frame program sampled under
 *    NoFusion and Helios from one checkpoint set: checkpoint cut and
 *    restore, and many short cold-start cells.
 *  - observed_sweep: the suite under four modes with every observer
 *    armed (audit, windowed profiler, histograms), then a report save,
 *    load and self-diff and one ledger record per cell.
 *
 * A harness pass runs the sweeps and the sampled intervals through the
 * harness's own worker pool (one runMatrix call per sweep pass, one
 * runSampled call per sampled mode) and takes each cell's latency from
 * the span runMatrix records for it. fastforward, which has no harness
 * pool, and every layered pass run on the benchmark's closed-loop pool
 * (pool.cc).
 */

#include <algorithm>
#include <filesystem>

#include "asm/assembler.hh"
#include "bench.hh"
#include "common/random.hh"
#include "harness/report_diff.hh"
#include "harness/run_ledger.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"
#include "harness/sampling.hh"
#include "ledger/ledger.hh"
#include "sim/checkpoint.hh"
#include "sim/hart.hh"
#include "uarch/auditor.hh"
#include "uarch/pipeline.hh"

namespace perfbench
{

using namespace helios;

namespace
{

constexpr size_t kMaxFailureNotes = 5;

/** Fresh copy of the suite registry (what allWorkloads() builds once
 *  per process), so every set-up repetition pays registry init. */
std::vector<Workload>
buildRegistry()
{
    std::vector<Workload> all = workload_detail::specWorkloads();
    std::vector<Workload> mi = workload_detail::mibenchWorkloads();
    std::vector<Workload> mi2 = workload_detail::mibenchWorkloads2();
    all.insert(all.end(), mi.begin(), mi.end());
    all.insert(all.end(), mi2.begin(), mi2.end());
    return all;
}

void
noteFailure(PassOutcome &out, const std::string &what)
{
    ++out.failed;
    if (out.failures.size() < kMaxFailureNotes)
        out.failures.push_back(what);
}

bool
allRan(const PassTiming &timing)
{
    return std::all_of(timing.ran.begin(), timing.ran.end(),
                       [](char ran) { return ran; });
}

uint64_t
fusedPairs(const RunResult &run)
{
    return run.stat("pairs.csf_mem") + run.stat("pairs.csf_other") +
           run.stat("pairs.ncsf");
}

/** Every simulated number of a timing run, in canonical order. */
uint64_t
digestRun(const RunResult &run)
{
    Digest d;
    d.add(run.workload);
    d.add(std::string(fusionModeName(run.mode)));
    for (uint64_t v : {run.cycles, run.instructions, run.uops,
                       run.archChecksum, run.memChecksum,
                       run.hartInstructions, uint64_t(run.exited),
                       run.exitCode, run.programHash, run.configHash,
                       run.auditChecks, uint64_t(run.auditViolations.size()),
                       run.sampleStartInst, uint64_t(run.warmupTaken),
                       run.warmupCycles, run.warmupInstructions,
                       run.warmupUops, run.warmupFusedPairs})
        d.add(v);
    for (const auto &[name, value] : run.stats.dump()) {
        d.add(name);
        d.add(value);
    }
    for (const auto &[name, hist] : run.stats.dumpHistograms()) {
        d.add(name);
        for (size_t i = 0; i < hist->numBuckets(); ++i)
            d.add(hist->bucketCount(i));
        for (uint64_t v : {hist->samples(), hist->sum(), hist->minValue(),
                           hist->maxValue()})
            d.add(v);
    }
    if (run.profiled)
        d.add(run.profile.toJson().dump());
    return d.value();
}

/**
 * runOne, one layer down: the same calls, each under a span. Must
 * produce exactly what runOne produces (the sim digests compare them).
 */
RunResult
runCellLayered(const Workload &workload, const CoreParams &params,
               uint64_t max_insts, const Checkpoint *restore_from,
               uint64_t warmup_insts, const char *tag)
{
    Memory mem;
    Hart hart(mem);
    uint64_t program_hash = 0;
    if (restore_from) {
        Span span("sim.restore");
        hart.restoreCheckpoint(*restore_from);
        program_hash = restore_from->programHash;
    } else {
        Program prog;
        {
            Span span("asm.assemble");
            prog = workload.program();
        }
        Span span("sim.reset");
        hart.reset(prog);
        program_hash = prog.sourceHash;
    }
    HartFeed feed(hart, max_insts);

    std::unique_ptr<Pipeline> pipeline;
    std::unique_ptr<PipelineAuditor> auditor;
    {
        Span span("uarch.ctor", false, tag);
        pipeline = std::make_unique<Pipeline>(params, feed);
        if (warmup_insts)
            pipeline->armCommitWatch(warmup_insts);
        if (params.audit) {
            auditor = std::make_unique<PipelineAuditor>(params);
            pipeline->attachAuditor(auditor.get());
        }
    }
    PipelineResult pres;
    {
        Span span("uarch.run", false, tag);
        pres = pipeline->run();
        span.setCount(pres.uops);
    }

    RunResult result;
    result.workload = workload.name;
    result.mode = params.fusion;
    result.cycles = pres.cycles;
    result.instructions = pres.instructions;
    result.uops = pres.uops;
    result.stats = pipeline->stats();
    {
        Span span("sim.checksum");
        result.archChecksum = hart.archChecksum();
        result.memChecksum = mem.checksum();
    }
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
    if (const FusionProfiler *profiler = pipeline->fusionProfiler()) {
        result.profiled = true;
        result.profile = profiler->data();
    }
    if (restore_from) {
        result.sampled = true;
        result.sampleStartInst = restore_from->instIndex;
        const Pipeline::CommitWatch &watch = pipeline->commitWatch();
        result.warmupTaken = watch.taken;
        result.warmupCycles = watch.cycles;
        result.warmupInstructions = watch.instructions;
        result.warmupUops = watch.uops;
        result.warmupFusedPairs = watch.fusedPairs;
    }
    return result;
}

// ---------------------------------------------------------------------
// fig10_sweep and observed_sweep
// ---------------------------------------------------------------------

class CellSweep : public BenchWorkload
{
  public:
    CellSweep(bool observed, unsigned workers, std::string work_dir)
        : observed(observed), workers(workers), workDir(std::move(work_dir))
    {}

    void
    setup(uint64_t seed) override
    {
        suite = buildRegistry();
        if (observed)
            modes = {FusionMode::None, FusionMode::CsfSbr,
                     FusionMode::Helios, FusionMode::Oracle};
        else
            modes = {FusionMode::None, FusionMode::RiscvFusion,
                     FusionMode::CsfSbr, FusionMode::RiscvFusionPP,
                     FusionMode::Helios, FusionMode::Oracle};
        cells.clear();
        for (size_t k = 0; k < suite.size(); ++k)
            for (size_t m = 0; m < modes.size(); ++m) {
                CoreParams params = CoreParams::icelake(modes[m]);
                if (observed) {
                    params.audit = true;
                    params.profile = true;
                    params.profileWindowCycles = kProfileWindowCycles;
                    params.sampleHistograms = true;
                }
                cells.push_back({k, m, params});
            }
        // The seed only permutes the order cells are submitted in,
        // which changes which cells run side by side. Each pass draws
        // a fresh order, so no one order's tail sets a run's numbers.
        orders = Rng(seed);

        // Reference outputs: the fast functional engine at the same
        // budget. Every mode of a kernel must end in this state.
        reference.clear();
        for (const Workload &workload : suite)
            reference.push_back(runFunctional(workload, kSuiteBudget));
        firstDigests.clear();
    }

    PassOutcome
    pass(bool layered, Clock::time_point deadline) override
    {
        std::vector<RunResult> results(cells.size());
        const std::vector<size_t> order =
            seededOrder(cells.size(), orders.next());
        PassOutcome out;
        if (layered) {
            out.timing = runPass(order.size(), workers, [&](size_t i) {
                const Cell &cell = cells[order[i]];
                const char *tag = fusionModeName(modes[cell.mode]);
                Span span("cell", true, tag);
                results[order[i]] =
                    runCellLayered(suite[cell.kernel], cell.params,
                                   kSuiteBudget, nullptr, 0, tag);
            }, deadline);
            if (!allRan(out.timing))
                return out; // an untimed warm-up pass
        } else {
            // The whole sweep as one runMatrix call, in this pass's
            // order, as users run it.
            std::vector<MatrixCell> batch;
            for (size_t c : order)
                batch.emplace_back(suite[cells[c].kernel], cells[c].params,
                                   kSuiteBudget);
            std::vector<RunResult> runs;
            out.timing = timeHarnessCells(
                batch.size(), [&] { runs = runMatrix(batch, workers); });
            for (size_t i = 0; i < runs.size(); ++i)
                results[order[i]] = std::move(runs[i]);
        }

        std::vector<uint64_t> digests(cells.size());
        for (size_t i = 0; i < order.size(); ++i) {
            const size_t c = order[i];
            const RunResult &run = results[c];
            const std::string what = suite[cells[c].kernel].name + "/" +
                                     fusionModeName(modes[cells[c].mode]);
            ++out.attempted;
            if (!out.timing.errors[i].empty()) {
                noteFailure(out, what + ": " + out.timing.errors[i]);
                continue;
            }
            out.guestInsts += run.instructions;
            digests[c] = digestRun(run);
            const FunctionalResult &ref = reference[cells[c].kernel];
            if (run.archChecksum != ref.archChecksum ||
                run.memChecksum != ref.memChecksum ||
                run.hartInstructions != ref.instructions)
                noteFailure(out, what + ": final state differs from the "
                                        "functional run");
            else if (observed &&
                     (!run.audited || !run.auditViolations.empty()))
                noteFailure(out, what + ": audit reported " +
                                     std::to_string(
                                         run.auditViolations.size()) +
                                     " violation(s)");
            else if (!firstDigests.empty() && digests[c] != firstDigests[c])
                noteFailure(out, what + ": differs from the first pass");
        }
        const bool all_ran = std::all_of(
            out.timing.errors.begin(), out.timing.errors.end(),
            [](const std::string &error) { return error.empty(); });
        if (observed && all_ran)
            persist(results, out);
        if (firstDigests.empty())
            firstDigests = digests;
        Digest pass_digest;
        for (uint64_t d : digests)
            pass_digest.add(d);
        out.digest = pass_digest.value();
        last = std::move(results);
        return out;
    }

    Facts
    facts() const override
    {
        Facts f;
        if (last.empty())
            return f;
        uint64_t helios_pairs = 0, helios_insts = 0;
        std::vector<double> helios_ratio, oracle_ratio;
        for (size_t c = 0; c < cells.size(); ++c) {
            const RunResult &run = last[c];
            const std::string mode = fusionModeName(run.mode);
            f["uarch.cycles"] += double(run.cycles);
            f["uarch.uops"] += double(run.uops);
            f["uarch.squashed_uops"] +=
                double(run.stat("flush.squashed_uops"));
            f["uarch.loads"] += double(run.stat("exec.loads"));
            f["uarch.stores"] += double(run.stat("exec.stores"));
            f["uarch.stlf_forwards"] += double(run.stat("stlf.forwards"));
            f["uarch.lsq_violations"] += double(run.stat("lsq.violations"));
            f["hart_insts"] += double(run.hartInstructions);
            f["uops." + mode] += double(run.uops);
            f["cycles." + mode] += double(run.cycles);
            f["hart_insts." + mode] += double(run.hartInstructions);
            f["uarch.audit_checks"] += double(run.auditChecks);
            f["telemetry.profile_sites"] += double(run.profile.sites.size());
            if (run.mode == FusionMode::Helios) {
                helios_pairs += fusedPairs(run);
                helios_insts += run.instructions;
                f["fusion.fp_attempts"] +=
                    double(run.stat("fusion.fp_attempts"));
                f["fp_correct"] += double(run.stat("fusion.fp_correct"));
                f["fp_applied"] += double(run.stat("fusion.fp_applied"));
            }
            if (cells[c].mode == 0) {
                // Modes of one kernel are adjacent in canonical order.
                const double base = run.ipc();
                for (size_t m = 1; m < modes.size(); ++m) {
                    const RunResult &other = last[c + m];
                    if (other.mode == FusionMode::Helios)
                        helios_ratio.push_back(other.ipc() / base);
                    if (other.mode == FusionMode::Oracle)
                        oracle_ratio.push_back(other.ipc() / base);
                }
            }
        }
        f["fusion.coverage"] =
            helios_insts ? 2.0 * double(helios_pairs) / double(helios_insts)
                         : 0.0;
        f["fusion.fp_accuracy"] =
            f["fp_applied"] > 0 ? f["fp_correct"] / f["fp_applied"] : 0.0;
        f["fusion.helios_uplift"] = geomean(helios_ratio);
        f["fusion.oracle_uplift"] = geomean(oracle_ratio);
        f["ledger.records"] = double(ledgerRecords);
        return f;
    }

  private:
    /** Observed sweeps sample 10k-cycle profiler windows. */
    static constexpr uint64_t kProfileWindowCycles = 10'000;

    struct Cell
    {
        size_t kernel;
        size_t mode;
        CoreParams params;
    };

    /** The report round trip and the ledger records that follow an
     *  observed sweep; their time counts in the pass wall. */
    void
    persist(const std::vector<RunResult> &results, PassOutcome &out)
    {
        const Clock::time_point start = Clock::now();
        const std::string tag = std::to_string(++persisted);
        const std::string path = workDir + "/report-" + tag + ".json";
        RunReportFile file;
        file.generator = "perfbench";
        {
            Span span("harness.report_write", true);
            for (const RunResult &run : results)
                file.add(run, kSuiteBudget);
            file.save(path);
        }
        RunReportFile loaded;
        {
            Span span("harness.report_parse", true);
            loaded = RunReportFile::load(path);
        }
        ReportDiffResult diff;
        std::string diff_text;
        {
            Span span("harness.report_diff", true);
            diff = diffReportFiles(file, loaded, ReportDiffOptions{},
                                   diff_text);
        }
        if (!(loaded == file))
            noteFailure(out, "report save -> load did not round-trip");
        if (!diff.clean() || diff.matched != results.size())
            noteFailure(out, "report self-diff not clean: " + diff_text);

        const std::string ledger_dir = workDir + "/ledger-" + tag;
        Ledger::arm(ledger_dir);
        ledgerRecords = 0;
        for (const RunResult &run : results) {
            Span span("ledger.record", true);
            if (recordRunToLedger(run, kSuiteBudget) ==
                LedgerOutcome::Recorded)
                ++ledgerRecords;
        }
        Ledger::disarm();
        if (ledgerRecords != results.size())
            noteFailure(out, "ledger recorded " +
                                 std::to_string(ledgerRecords) + " of " +
                                 std::to_string(results.size()) +
                                 " cells");
        out.timing.wallS += secondsBetween(start, Clock::now());

        std::error_code ec;
        std::filesystem::remove(path, ec);
        std::filesystem::remove_all(ledger_dir, ec);
    }

    const bool observed;
    const unsigned workers;
    const std::string workDir;
    std::vector<Workload> suite;
    std::vector<FusionMode> modes;
    std::vector<Cell> cells;                ///< kernel-major, mode-minor
    Rng orders;                             ///< submission orders
    std::vector<FunctionalResult> reference; ///< per kernel
    std::vector<uint64_t> firstDigests;     ///< per cell, first pass
    std::vector<RunResult> last;            ///< last complete pass
    uint64_t persisted = 0;
    uint64_t ledgerRecords = 0;
};

// ---------------------------------------------------------------------
// fastforward
// ---------------------------------------------------------------------

class FastForward : public BenchWorkload
{
  public:
    explicit FastForward(unsigned workers) : workers(workers) {}

    void
    setup(uint64_t seed) override
    {
        suite = buildRegistry();
        expected.clear();
        for (const Workload &workload : suite)
            expected.push_back(workload.reference());
        orders = Rng(seed);
        firstDigests.clear();
    }

    PassOutcome
    pass(bool layered, Clock::time_point deadline) override
    {
        // Functional runs have no harness pool: both paths run on the
        // benchmark's own.
        std::vector<FunctionalResult> results(suite.size());
        const std::vector<size_t> order =
            seededOrder(suite.size(), orders.next());
        PassOutcome out;
        out.timing = runPass(order.size(), workers, [&](size_t i) {
            const Workload &workload = suite[order[i]];
            results[order[i]] = layered ? runLayered(workload)
                                        : runFunctional(workload);
        }, deadline);
        if (!allRan(out.timing))
            return out;

        std::vector<uint64_t> digests(suite.size());
        for (size_t i = 0; i < order.size(); ++i) {
            const size_t k = order[i];
            const FunctionalResult &run = results[k];
            ++out.attempted;
            if (!out.timing.errors[i].empty()) {
                noteFailure(out, suite[k].name + ": " + out.timing.errors[i]);
                continue;
            }
            out.guestInsts += run.instructions;
            Digest d;
            d.add(suite[k].name);
            for (uint64_t v : {run.instructions, run.archChecksum,
                               run.memChecksum, uint64_t(run.exited),
                               run.exitCode, run.programHash})
                d.add(v);
            digests[k] = d.value();
            if (!run.exited || run.exitCode != expected[k])
                noteFailure(out, suite[k].name + ": exit code " +
                                     std::to_string(run.exitCode) +
                                     " != reference " +
                                     std::to_string(expected[k]));
            else if (!firstDigests.empty() && digests[k] != firstDigests[k])
                noteFailure(out, suite[k].name +
                                     ": differs from the first pass");
        }
        if (firstDigests.empty())
            firstDigests = digests;
        Digest pass_digest;
        for (uint64_t d : digests)
            pass_digest.add(d);
        out.digest = pass_digest.value();
        return out;
    }

    Facts facts() const override { return {}; }

  private:
    /** runFunctional, one layer down. */
    static FunctionalResult
    runLayered(const Workload &workload)
    {
        Span op("kernel", true);
        Memory mem;
        Hart hart(mem);
        Program prog;
        {
            Span span("asm.assemble");
            prog = workload.program();
        }
        {
            Span span("sim.reset");
            hart.reset(prog);
        }
        FunctionalResult result;
        {
            Span span("sim.run_fast");
            result.instructions = hart.runFast();
            span.setCount(result.instructions);
        }
        {
            Span span("sim.checksum");
            result.archChecksum = hart.archChecksum();
            result.memChecksum = mem.checksum();
        }
        result.exited = hart.exited();
        result.exitCode = hart.exitCode();
        result.programHash = prog.sourceHash;
        return result;
    }

    const unsigned workers;
    std::vector<Workload> suite;
    std::vector<uint64_t> expected; ///< Workload::reference() per kernel
    Rng orders;                     ///< one submission order per pass
    std::vector<uint64_t> firstDigests;
};

// ---------------------------------------------------------------------
// sampled_long
// ---------------------------------------------------------------------

class SampledLong : public BenchWorkload
{
  public:
    explicit SampledLong(unsigned workers) : workers(workers)
    {
        // The validated sampling shape: 25k warmup + 30k window, 50
        // samples over a 64M-instruction frame.
        spec.totalBudget = 64'000'000;
        spec.sampleCount = 50;
        spec.warmupInsts = 25'000;
        spec.intervalInsts = 30'000;
        spec.validate();
        modes = {FusionMode::None, FusionMode::Helios};
        for (FusionMode mode : modes)
            params.push_back(CoreParams::icelake(mode));
    }

    void
    setup(uint64_t seed) override
    {
        const std::string input = makeLongFrameInput(seed);
        Program prog = assemble(longFrameSource());
        prog.stdinData = input;
        expected = longFrameReference(input);
        const uint64_t reference = expected;
        workload = Workload{"longframe", Suite::Spec,
                            "seeded long frame: record pairs, pointer "
                            "chase, spill/fill calls, data branches",
                            "", [reference] { return reference; },
                            [prog] { return prog; }};
        programChecked = false;
        firstDigest = 0;
    }

    PassOutcome
    pass(bool layered, Clock::time_point deadline) override
    {
        PassOutcome out;
        const Clock::time_point start = Clock::now();
        const CheckpointSet set =
            layered ? buildLayered() : buildCheckpoints(workload, spec);
        const double build_s = secondsBetween(start, Clock::now());

        checkpointBytes = 0;
        for (const Checkpoint &ckpt : set.checkpoints)
            checkpointBytes += ckpt.pages.size() * Memory::pageSize +
                               ckpt.output.size() +
                               ckpt.sys.stdinData.size();
        Digest set_digest;
        for (uint64_t v : {set.ffInstructions, uint64_t(set.exited),
                           set.exitCode, set.programHash})
            set_digest.add(v);
        for (const Checkpoint &ckpt : set.checkpoints) {
            for (uint64_t v : {ckpt.instIndex, ckpt.pc,
                               uint64_t(ckpt.pages.size()),
                               ckpt.sys.stdinPos, ckpt.sys.brk})
                set_digest.add(v);
            for (uint64_t reg : ckpt.regs)
                set_digest.add(reg);
        }

        // Operation i is interval i % n under mode i / n.
        const size_t n = set.checkpoints.size();
        std::vector<IntervalSample> samples(n * modes.size());
        std::vector<char> sampled(samples.size(), 0);
        if (layered) {
            out.timing = runPass(samples.size(), workers, [&](size_t i) {
                const size_t m = i / n, k = i % n;
                const char *tag = fusionModeName(modes[m]);
                Span span("interval", true, tag);
                const RunResult run = runCellLayered(
                    workload, params[m],
                    spec.warmupInsts + spec.intervalInsts,
                    &set.checkpoints[k], spec.warmupInsts, tag);
                // Score the window as runSampled does.
                if (!run.warmupTaken)
                    return;
                IntervalSample s;
                s.startInst = run.sampleStartInst;
                s.warmupCycles = run.warmupCycles;
                s.cycles = run.cycles - run.warmupCycles;
                s.instructions = run.instructions - run.warmupInstructions;
                s.uops = run.uops - run.warmupUops;
                s.fusedPairs = fusedPairs(run) - run.warmupFusedPairs;
                if (s.instructions == 0)
                    return;
                samples[i] = s;
                sampled[i] = 1;
            }, deadline);
        } else {
            // One runSampled call per mode over the shared set, each
            // running its intervals through runMatrix's pool.
            for (size_t m = 0; m < modes.size(); ++m) {
                SampledResult result;
                const PassTiming timing = timeHarnessCells(n, [&] {
                    result = runSampled(workload, params[m], spec, set,
                                        workers);
                });
                out.timing.wallS += timing.wallS;
                out.timing.busyS += timing.busyS;
                out.timing.opMs.insert(out.timing.opMs.end(),
                                       timing.opMs.begin(),
                                       timing.opMs.end());
                out.timing.ran.insert(out.timing.ran.end(),
                                      timing.ran.begin(), timing.ran.end());
                out.timing.errors.insert(out.timing.errors.end(),
                                         timing.errors.begin(),
                                         timing.errors.end());
                for (const IntervalSample &s : result.intervals) {
                    const size_t k = s.startInst / spec.stride();
                    if (k < n) {
                        samples[m * n + k] = s;
                        sampled[m * n + k] = 1;
                    }
                }
            }
        }
        out.timing.wallS += build_s;
        if (!allRan(out.timing))
            return out;

        if (n != spec.sampleCount || set.exited)
            noteFailure(out, "checkpoint set has " + std::to_string(n) +
                                 " of " +
                                 std::to_string(spec.sampleCount) +
                                 " cuts");
        Digest digest;
        digest.add(set_digest.value());
        std::vector<std::vector<IntervalSample>> per_mode(modes.size());
        for (size_t i = 0; i < samples.size(); ++i) {
            const size_t m = i / n, k = i % n;
            const IntervalSample &s = samples[i];
            ++out.attempted;
            const std::string what =
                "interval " + std::to_string(k) + "/" +
                fusionModeName(modes[m]);
            if (!out.timing.errors[i].empty()) {
                noteFailure(out, what + ": " + out.timing.errors[i]);
                continue;
            }
            for (uint64_t v : {s.startInst, s.warmupCycles, s.cycles,
                               s.instructions, s.uops, s.fusedPairs})
                digest.add(v);
            // Commit retires up to commitWidth µops a cycle, a fused
            // one counting two instructions, so the warmup latch may
            // overshoot its target by up to 2·commitWidth − 1.
            const uint64_t overshoot = 2 * params[m].commitWidth;
            if (!sampled[i] || s.startInst != k * spec.stride() ||
                s.instructions > spec.intervalInsts ||
                s.instructions + overshoot <= spec.intervalInsts)
                noteFailure(out, what + ": window at " +
                                     std::to_string(s.startInst) +
                                     " measured " +
                                     std::to_string(s.instructions) +
                                     " instructions");
            else
                per_mode[m].push_back(s);
        }
        out.guestInsts = spec.totalBudget * modes.size();
        out.digest = digest.value();
        if (firstDigest && out.digest != firstDigest)
            noteFailure(out, "sampled results differ from the first pass");
        if (!firstDigest)
            firstDigest = out.digest;

        // The program's own output: its exit checksum from a complete
        // functional run must equal the C++ reference.
        if (!programChecked) {
            const FunctionalResult run = runFunctional(workload);
            programChecked = true;
            programOk = run.exited && run.exitCode == expected &&
                        run.instructions >
                            spec.totalBudget + spec.warmupInsts +
                                spec.intervalInsts;
        }
        if (!programOk) {
            noteFailure(out, "long-frame checksum differs from its C++ "
                             "reference");
            out.failed = out.attempted;
        }

        estimates.clear();
        for (size_t m = 0; m < modes.size(); ++m)
            estimates.push_back(
                estimateWeighted(per_mode[m], &IntervalSample::ipc));
        return out;
    }

    Facts
    facts() const override
    {
        Facts f;
        f["sim.checkpoint_mb"] = double(checkpointBytes) / (1024.0 * 1024.0);
        for (size_t m = 0; m < estimates.size(); ++m) {
            const std::string mode = fusionModeName(modes[m]);
            f["sampled_ipc." + mode] = estimates[m].mean;
            f["ci95_rel." + mode] = estimates[m].relative();
        }
        return f;
    }

  private:
    /** buildCheckpoints, one layer down. */
    CheckpointSet
    buildLayered()
    {
        Span op("sampling.build_checkpoints", true);
        Program prog;
        {
            Span span("workload.program");
            prog = workload.program();
        }
        Memory mem;
        Hart hart(mem);
        {
            Span span("sim.reset");
            hart.reset(prog);
        }
        CheckpointSet set;
        set.programHash = prog.sourceHash;
        for (uint64_t k = 0; k < spec.sampleCount; ++k) {
            const uint64_t target = k * spec.stride();
            if (target > hart.instsExecuted()) {
                Span span("sim.run_fast");
                span.setCount(target - hart.instsExecuted());
                hart.runFast(target - hart.instsExecuted());
            }
            if (hart.exited() || hart.instsExecuted() < target)
                break;
            Span span("sim.checkpoint_cut");
            set.checkpoints.push_back(hart.makeCheckpoint(prog.sourceHash));
        }
        set.ffInstructions = hart.instsExecuted();
        set.exited = hart.exited();
        set.exitCode = hart.exitCode();
        return set;
    }

    const unsigned workers;
    SamplingSpec spec;
    std::vector<FusionMode> modes;
    std::vector<CoreParams> params;
    Workload workload;
    uint64_t expected = 0;
    bool programChecked = false;
    bool programOk = false;
    uint64_t firstDigest = 0;
    uint64_t checkpointBytes = 0;
    std::vector<SampledEstimate> estimates;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig10_sweep", "fastforward", "sampled_long", "observed_sweep"};
    return names;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, unsigned workers,
             const std::string &work_dir)
{
    if (name == "fig10_sweep")
        return std::make_unique<CellSweep>(false, workers, work_dir);
    if (name == "fastforward")
        return std::make_unique<FastForward>(workers);
    if (name == "sampled_long")
        return std::make_unique<SampledLong>(workers);
    if (name == "observed_sweep")
        return std::make_unique<CellSweep>(true, workers, work_dir);
    return nullptr;
}

} // namespace perfbench
