/**
 * @file
 * Command-line driver: assemble and simulate a RISC-V assembly file.
 *
 *   $ ./examples/helios_run program.s [options]
 *   $ ./examples/helios_run --elf program.elf [options] [--argv ARG...]
 *
 * Every flag is declared once, with its meaning, in main()'s option
 * table. An unknown flag, a bad value, an unwritable output path, a
 * bad HELIOS_* variable and a pair of conflicting flags all exit with
 * status 2 and the usage line, before any input is read: a long
 * simulation never runs just to lose its results. See
 * OBSERVABILITY.md for the trace, report and profile formats.
 *
 * The program uses the same conventions as the workload suite: exit
 * through `li a7, 93; ecall` with the result in a0; `ecall` with
 * a7=64 writes bytes (a1=buf, a2=len) to stdout.
 */

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "asm/assembler.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "common/options.hh"
#include "harness/elf_image.hh"
#include "harness/differential.hh"
#include "harness/report.hh"
#include "harness/run_ledger.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"
#include "harness/sampling.hh"
#include "ledger/ledger.hh"
#include "sim/elf_loader.hh"
#include "sim/hart.hh"
#include "telemetry/annotate.hh"
#include "telemetry/host_metrics.hh"
#include "telemetry/host_trace.hh"
#include "telemetry/lifecycle.hh"
#include "telemetry/profiler.hh"
#include "uarch/auditor.hh"
#include "uarch/pipeline.hh"

using namespace helios;

namespace
{

/** One greppable line per recording attempt, so scripts (and
 *  test_cli) can tell a fresh record from a keyed replay. */
void
noteLedgerOutcome(LedgerOutcome outcome)
{
    const Ledger *ledger = Ledger::global();
    if (!ledger || outcome == LedgerOutcome::Disarmed)
        return;
    if (outcome == LedgerOutcome::Recorded)
        std::printf("ledger: recorded 1 run -> %s\n",
                    ledger->dir().c_str());
    else
        std::printf("ledger: hit (run already recorded in %s)\n",
                    ledger->dir().c_str());
}

/** Write the lifecycle trace pair: Chrome JSON plus Konata text. */
void
writeTraces(const LifecycleTracer &tracer, const std::string &path)
{
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot open trace file '%s'", path.c_str());
        tracer.writeChromeTrace(out);
    }
    const std::string konata_path = path + ".kanata";
    {
        std::ofstream out(konata_path);
        if (!out)
            fatal("cannot open trace file '%s'", konata_path.c_str());
        tracer.writeKonata(out);
    }
    std::printf("trace: %zu uop records (%zu committed, %zu squashed) "
                "-> %s (Chrome/Perfetto), %s (Konata)\n",
                tracer.numRecords(), tracer.numCommitted(),
                tracer.numSquashed(), path.c_str(),
                konata_path.c_str());
}

/**
 * The --time line: how fast the *simulator* ran, in units that
 * compare directly across hosts and changes — wall-clock seconds,
 * host-MHz-equivalent (simulated cycles per host second), and
 * simulated µops per host second. One fixed-format line so scripts
 * and tests can grep it.
 */
void
printTimeLine(double seconds, uint64_t cycles, uint64_t uops)
{
    const double mhz =
        seconds > 0 ? double(cycles) / seconds / 1e6 : 0.0;
    const double muops =
        seconds > 0 ? double(uops) / seconds / 1e6 : 0.0;
    std::printf("time: %.3f s wall, %.3f MHz-equivalent, "
                "%.3f Muops/s\n",
                seconds, mhz, muops);
}

/**
 * Sampled run: one configuration, or the full --sweep matrix over a
 * single shared checkpoint set (checkpoints are config-independent,
 * so the fast-forward is paid once for all six configurations).
 * Prints one greppable estimate line per configuration and routes
 * --report/--ledger through the schema-v5 `sampled` section.
 */
int
runSampledCli(const Workload &workload, const SamplingSpec &spec,
              FusionMode mode, bool sweep, unsigned jobs, bool timing,
              const std::string &report_path)
{
    Stopwatch timer;
    const CheckpointSet set = buildCheckpoints(workload, spec);
    std::printf("sampling: %zu checkpoint(s) over a %llu-instruction "
                "frame (%s), warmup %llu + interval %llu\n",
                set.checkpoints.size(),
                (unsigned long long)spec.totalBudget,
                set.reused ? "reused from checkpoint dir"
                           : "fast-forwarded",
                (unsigned long long)spec.warmupInsts,
                (unsigned long long)spec.intervalInsts);

    std::vector<FusionMode> modes;
    if (sweep)
        modes = {FusionMode::None,     FusionMode::RiscvFusion,
                 FusionMode::CsfSbr,   FusionMode::RiscvFusionPP,
                 FusionMode::Helios,   FusionMode::Oracle};
    else
        modes = {mode};

    std::vector<SampledResult> results;
    for (FusionMode m : modes)
        results.push_back(runSampled(workload, CoreParams::icelake(m),
                                     spec, set, jobs));
    const double elapsed = timer.seconds();

    for (const SampledResult &result : results)
        std::printf("sampled: %s IPC %.3f +- %.4f (95%% CI, %zu/%llu "
                    "intervals, coverage %.3f +- %.4f)\n",
                    fusionModeName(result.mode), result.ipc.mean,
                    result.ipc.ci95Half, result.intervals.size(),
                    (unsigned long long)spec.sampleCount,
                    result.coverage.mean, result.coverage.ci95Half);

    if (sweep) {
        const double base = results[0].ipc.mean;
        Table table({"config", "samples", "IPC", "95% CI half",
                     "coverage", "vs NoFusion"});
        for (const SampledResult &result : results)
            table.addRow({fusionModeName(result.mode),
                          std::to_string(result.intervals.size()),
                          Table::num(result.ipc.mean, 3),
                          Table::num(result.ipc.ci95Half, 4),
                          Table::num(result.coverage.mean, 3),
                          base > 0
                              ? Table::num(result.ipc.mean / base, 3)
                              : "-"});
        table.print();
    }
    if (timing) {
        uint64_t total_cycles = 0, total_uops = 0;
        for (const SampledResult &result : results) {
            total_cycles += result.measuredCycles;
            total_uops += result.measuredUops;
        }
        printTimeLine(elapsed, total_cycles, total_uops);
    }

    if (!report_path.empty()) {
        HostSpan report_span("report-write");
        RunReportFile file;
        file.generator = "helios_run --sample";
        for (const SampledResult &result : results)
            file.runs.push_back(makeSampledRunReport(result));
        attachHostSection(file);
        file.save(report_path);
        std::printf("report: %zu sampled run(s) -> %s\n",
                    file.runs.size(), report_path.c_str());
    }

    if (Ledger::global())
        for (const SampledResult &result : results)
            noteLedgerOutcome(recordSampledToLedger(result));
    return 0;
}

/**
 * Run every fusion configuration over the file as a parallel matrix.
 * With @a audit, route the sweep through the differential harness so
 * cross-configuration state and per-run invariants are checked too.
 */
int
runSweep(const Workload &workload, uint64_t max_insts, unsigned jobs,
         bool audit, bool dump_stats, bool cpi_stack, bool timing,
         const std::string &report_path,
         const std::string &profile_path, uint64_t window_cycles)
{
    const FusionMode modes[] = {FusionMode::None,
                                FusionMode::RiscvFusion,
                                FusionMode::CsfSbr,
                                FusionMode::RiscvFusionPP,
                                FusionMode::Helios, FusionMode::Oracle};

    if (jobs == 0)
        jobs = defaultJobCount();

    std::vector<RunResult> results;
    const DiffReport *diff = nullptr;
    DiffReport report;
    Stopwatch timer;
    HostSpan sweep_span("sweep");
    sweep_span.arg("workload", workload.name);
    if (audit) {
        DiffOptions opts;
        opts.modes.assign(std::begin(modes), std::end(modes));
        opts.maxInsts = max_insts;
        opts.audit = true;
        opts.jobs = jobs;
        report = runDifferential({&workload}, opts);
        results = report.results;
        diff = &report;
    } else {
        std::vector<MatrixCell> cells;
        for (FusionMode mode : modes) {
            CoreParams params = CoreParams::icelake(mode);
            // Reports carry occupancy histograms; sampling is
            // observer-effect-free (tested) and cheap at this scale.
            params.sampleHistograms = !report_path.empty();
            params.profile = !profile_path.empty();
            params.profileWindowCycles = window_cycles;
            cells.emplace_back(workload, params, max_insts);
        }
        results = runMatrix(cells, jobs);
    }
    sweep_span.end();
    const double elapsed = timer.seconds();

    const double base = results[0].ipc();
    Table table({"config", "cycles", "uops", "IPC", "vs NoFusion"});
    for (const RunResult &result : results)
        table.addRow({fusionModeName(result.mode),
                      std::to_string(result.cycles),
                      std::to_string(result.uops),
                      Table::num(result.ipc(), 3),
                      base > 0 ? Table::num(result.ipc() / base, 3)
                               : "-"});
    table.print();
    printMatrixTiming(results.size(), jobs, elapsed);
    if (timing) {
        uint64_t total_cycles = 0, total_uops = 0;
        for (const RunResult &result : results) {
            total_cycles += result.cycles;
            total_uops += result.uops;
        }
        printTimeLine(elapsed, total_cycles, total_uops);
    }

    for (const RunResult &result : results) {
        if (dump_stats) {
            std::printf("--- %s counters ---\n",
                        fusionModeName(result.mode));
            std::fputs(result.stats.toString().c_str(), stdout);
        }
        if (cpi_stack) {
            std::printf("--- %s CPI stack ---\n%s",
                        fusionModeName(result.mode),
                        result.stats.cpiStack(result.cycles)
                            .toString().c_str());
        }
    }

    if (!report_path.empty() || !profile_path.empty()) {
        HostSpan report_span("report-write");
        RunReportFile file;
        file.generator = "helios_run --sweep";
        if (diff)
            file.addDifferential(*diff, max_insts);
        else
            for (const RunResult &result : results)
                file.add(result, max_insts);
        attachHostSection(file);
        if (!report_path.empty()) {
            file.save(report_path);
            std::printf("report: %zu runs, %zu verdicts -> %s\n",
                        file.runs.size(), file.verdicts.size(),
                        report_path.c_str());
        }
        if (!profile_path.empty() && profile_path != report_path) {
            file.save(profile_path);
            std::printf("profile: %zu runs -> %s\n",
                        file.runs.size(), profile_path.c_str());
        }
    }

    if (diff) {
        if (diff->ok()) {
            std::printf("differential audit: ok (%zu configs, "
                        "0 violations)\n", results.size());
        } else {
            std::printf("differential audit: %zu violation(s)\n%s\n",
                        diff->violations.size(),
                        diff->toJson().c_str());
            return 1;
        }
    }
    return 0;
}

/** Attach an auditor to one pipeline run; report and set exit status. */
int
auditEpilogue(const PipelineAuditor &auditor)
{
    if (auditor.ok()) {
        std::printf("audit: ok (%llu checks over %llu uops)\n",
                    (unsigned long long)auditor.checksPerformed(),
                    (unsigned long long)auditor.uopsAudited());
        return 0;
    }
    std::printf("audit: %zu violation(s)\n%s\n",
                auditor.violations().size(), auditor.toJson().c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string elf_path, emit_elf_path, trace_path, report_path;
    std::string profile_path, log_json_path, host_trace_path;
    std::string metrics_path, ledger_path;
    std::vector<std::string> guest_argv;
    FusionMode mode = FusionMode::Helios;
    LogLevel log_level = LogLevel::Info;
    uint64_t max_insts = UINT64_MAX;
    uint64_t window_cycles = 10000;
    SamplingSpec sampling;
    sampling.intervalInsts = 100000;
    sampling.warmupInsts = 10000;
    unsigned jobs = 0;
    bool dump_stats = false, functional_only = false;
    bool cpi_stack = false, sweep = false, audit = false;
    bool annotate = false, timing = false;

    Options opts("helios_run", "<file.s>");
    // The program: a .s file, or a static RV64IM ELF64 executable
    // whose exit code a single run propagates; every argument after
    // --argv goes to the ELF guest as argv[1..]. --emit-elf packs the
    // assembled .s input into an ELF image and exits.
    opts.text("--elf", "FILE", elf_path)
        .rest("--argv", "ARG...", guest_argv)
        .outputFile("--emit-elf", emit_elf_path);
    // The run: one configuration (NoFusion, RISCVFusion, CSF-SBR,
    // RISCVFusion++, Helios by default, or OracleFusion) under an
    // instruction budget. --functional skips the timing model and
    // runs Hart::runFast; --sweep runs every configuration as a
    // parallel matrix on --jobs workers (default HELIOS_JOBS, else
    // every hardware thread) and prints a comparison table.
    opts.oneOf("--config", "NAME", mode, fusionModeFromName)
        .count("--max-insts", "N", max_insts)
        .flag("--functional", functional_only)
        .flag("--sweep", sweep)
        .count("--jobs", "N", jobs, 1, kMaxJobs);
    // Sampled simulation: fast-forward functionally, cut --sample
    // evenly spaced checkpoints over the --max-insts frame, and time
    // a --warmup + --interval window from each, reporting weighted
    // IPC and fusion coverage with 95% confidence intervals. Composes
    // with --sweep (one checkpoint set serves every configuration),
    // --report (the schema-v5 `sampled` section) and --ledger.
    // --checkpoint-dir keeps the cuts, keyed by program hash and
    // schedule, so a repeated run skips the fast-forward.
    opts.count("--sample", "N", sampling.sampleCount)
        .count("--interval", "M", sampling.intervalInsts)
        .count("--warmup", "K", sampling.warmupInsts, 0)
        .outputDir("--checkpoint-dir", sampling.checkpointDir);
    // Printed results: every counter (per configuration with
    // --sweep), the exact top-down CPI stack, a greppable
    // simulation-speed line, and the annotated disassembly of a
    // profiled run. --audit attaches the pipeline invariant auditor
    // (with --sweep, the differential harness) and exits 1 on a
    // violation.
    opts.flag("--stats", dump_stats)
        .flag("--cpi-stack", cpi_stack)
        .flag("--time", timing)
        .flag("--annotate", annotate)
        .flag("--audit", audit);
    // Files: a µop lifecycle trace (Chrome trace_event JSON, plus a
    // Konata view in FILE.kanata), a RunReport, and a report carrying
    // the per-PC fusion-site profile, sampled every --window cycles
    // (0: no windows).
    opts.outputFile("--trace", trace_path)
        .outputFile("--report", report_path)
        .outputFile("--profile", profile_path)
        .count("--window", "N", window_cycles, 0);
    // Host telemetry, each flag overriding its HELIOS_* variable: the
    // log threshold, a JSON-lines mirror of the log, a Chrome trace
    // of host phases and sweep cells, Prometheus metrics (also
    // stamped into reports), and the run ledger directory the
    // finished runs are recorded into (a keyed hit writes nothing;
    // query it with bench/helios_db).
    opts.oneOf("--log-level", "LEVEL", log_level, logLevelFromName)
        .outputFile("--log-json", log_json_path)
        .outputFile("--host-trace", host_trace_path)
        .outputFile("--metrics", metrics_path)
        .outputDir("--ledger", ledger_path);
    const std::vector<std::string> operands = opts.parse(argc, argv, 0, 1);
    const std::string path = operands.empty() ? "" : operands[0];
    const bool sampled = sampling.sampleCount != 0;

    if (!elf_path.empty() && !path.empty())
        opts.fail("--elf conflicts with assembly input '" + path +
                  "'; pick one program");
    if (path.empty() && elf_path.empty())
        opts.fail("missing operand");
    if (!guest_argv.empty() && elf_path.empty())
        opts.fail("--argv passes arguments to an ELF guest; add --elf");
    if (!emit_elf_path.empty() && !elf_path.empty())
        opts.fail("--emit-elf packs assembly input; it cannot re-emit "
                  "an --elf image");
    if (audit && functional_only)
        opts.fail("--audit checks the timing pipeline; drop "
                  "--functional");
    if (functional_only && (!trace_path.empty() || cpi_stack ||
                            !profile_path.empty() || annotate))
        opts.fail("--trace/--cpi-stack/--profile/--annotate need the "
                  "timing model; drop --functional");
    if (sweep && !trace_path.empty())
        opts.fail("--trace records one run; pick a --config instead "
                  "of --sweep");
    if (sweep && annotate)
        opts.fail("--annotate renders one run; pick a --config instead "
                  "of --sweep");
    if (sweep && audit && !profile_path.empty())
        opts.fail("--profile is not routed through the differential "
                  "harness; drop --audit or --sweep");
    if (!sampled && (opts.given("--interval") || opts.given("--warmup") ||
                     opts.given("--checkpoint-dir")))
        opts.fail("--interval/--warmup/--checkpoint-dir configure "
                  "sampled runs; add --sample N");
    if (sampled && functional_only)
        opts.fail("--sample estimates detailed-timing IPC; a "
                  "--functional run has no timing to sample");
    if (sampled && (!trace_path.empty() || annotate ||
                    !profile_path.empty() || audit))
        opts.fail("--trace/--annotate/--profile/--audit observe every "
                  "committed instruction; sampled runs measure only "
                  "windows — drop --sample or those flags");
    if (sampled && max_insts == UINT64_MAX)
        opts.fail("--sample needs an explicit --max-insts frame to "
                  "place samples in");
    sampling.totalBudget = max_insts;
    if (sampled)
        opts.check([&] { sampling.validate(); });
    opts.check(validateRunEnvironment);

    // The sinks flush at process exit, so every return path below
    // still produces the files.
    opts.check([&] {
        if (opts.given("--log-level"))
            Logger::global().setLevel(log_level);
        if (!log_json_path.empty())
            Logger::global().openJsonSink(log_json_path);
        initHostTelemetryFromEnv();
        if (!host_trace_path.empty())
            writeHostTraceAtExit(host_trace_path);
        if (!metrics_path.empty())
            writeHostMetricsAtExit(metrics_path);
        if (!ledger_path.empty())
            Ledger::arm(ledger_path);
        else
            initLedgerFromEnv();
    });

    // Read the input up front so a missing file is a usage error
    // (exit 2), distinct from a malformed program (exit 1 below).
    std::string source;
    std::vector<uint8_t> elf_image;
    if (!elf_path.empty()) {
        std::ifstream file(elf_path, std::ios::binary);
        if (!file)
            opts.fail("cannot open '" + elf_path + "'");
        elf_image.assign(std::istreambuf_iterator<char>(file),
                         std::istreambuf_iterator<char>());
    } else {
        std::ifstream file(path);
        if (!file)
            opts.fail("cannot open '" + path + "'");
        std::ostringstream text;
        text << file.rdbuf();
        source = text.str();
    }

    try {
        // Wrap the input as an ad-hoc workload so both frontends ride
        // the same runner/matrix machinery as the paper sweeps.
        Workload workload;
        workload.suite = Suite::MiBench;
        workload.description = "user program";
        if (!elf_path.empty()) {
            workload.name = elf_path;
            workload.makeProgram = [&elf_image, &elf_path,
                                    &guest_argv] {
                Program prog = loadElf(elf_image);
                prog.argv.assign(1, elf_path);
                prog.argv.insert(prog.argv.end(), guest_argv.begin(),
                                 guest_argv.end());
                return prog;
            };
        } else {
            workload.name = path;
            workload.source = source;
        }

        HostSpan assemble_span(elf_path.empty() ? "assemble"
                                                : "elf-load");
        const Program program = workload.program();
        assemble_span.end();
        if (!elf_path.empty())
            std::printf("elf: %s: %zu instructions, %zu segment(s), "
                        "entry 0x%llx, hash 0x%016llx\n",
                        elf_path.c_str(), program.numInsts(),
                        program.segments.size() + 1,
                        (unsigned long long)program.entry,
                        (unsigned long long)program.sourceHash);
        else
            std::printf("assembled %zu instructions, %zu data bytes\n",
                        program.numInsts(), program.data.size());

        if (!emit_elf_path.empty()) {
            const std::vector<uint8_t> image = buildElfImage(program);
            writeElfFile(emit_elf_path, program);
            std::printf("emitted ELF image -> %s (%zu bytes, "
                        "hash 0x%016llx)\n",
                        emit_elf_path.c_str(), image.size(),
                        (unsigned long long)fnv1a(image.data(),
                                                  image.size()));
            return 0;
        }

        if (sampled) {
            const int status =
                runSampledCli(workload, sampling, mode, sweep,
                              jobs, timing, report_path);
            if (const Ledger *ledger = Ledger::global())
                std::printf("ledger: %llu run(s) recorded, %llu "
                            "hit(s) -> %s\n",
                            (unsigned long long)ledger->recorded(),
                            (unsigned long long)ledger->hits(),
                            ledger->dir().c_str());
            return status;
        }

        if (sweep) {
            const int status =
                runSweep(workload, max_insts, jobs, audit, dump_stats,
                         cpi_stack, timing, report_path, profile_path,
                         window_cycles);
            if (const Ledger *ledger = Ledger::global())
                std::printf("ledger: %llu run(s) recorded, %llu "
                            "hit(s) -> %s\n",
                            (unsigned long long)ledger->recorded(),
                            (unsigned long long)ledger->hits(),
                            ledger->dir().c_str());
            return status;
        }

        Memory memory;
        Hart hart(memory);
        hart.reset(program);

        Stopwatch timer;
        if (functional_only) {
            HostSpan functional_span("functional");
            const uint64_t executed = hart.runFast(max_insts);
            functional_span.end();
            if (HostMetrics::global().enabled())
                HostMetrics::global().recordGuestWork(executed, 0);
            const double elapsed = timer.seconds();
            const double minst_per_sec =
                elapsed > 0 ? double(executed) / elapsed / 1e6 : 0.0;
            std::printf("functional: %llu instructions in %.3f s "
                        "(%.1f M inst/s, decoder cache: %zu entries)\n",
                        (unsigned long long)executed, elapsed,
                        minst_per_sec, hart.fastCacheEntries());
            if (timing)
                std::printf("time: %.3f s wall, %.2f Minst/s "
                            "(functional)\n",
                            elapsed, minst_per_sec);
            if (Ledger::global()) {
                FunctionalResult fres;
                fres.instructions = executed;
                fres.archChecksum = hart.archChecksum();
                fres.memChecksum = memory.checksum();
                fres.exited = hart.exited();
                fres.exitCode = hart.exitCode();
                fres.programHash = program.sourceHash;
                noteLedgerOutcome(recordFunctionalToLedger(
                    workload.name, fres, max_insts));
            }
        } else {
            HartFeed feed(hart, max_insts);
            CoreParams params = CoreParams::icelake(mode);
            params.sampleHistograms = !trace_path.empty() ||
                                      !report_path.empty() || cpi_stack;
            params.profile = !profile_path.empty() || annotate;
            params.profileWindowCycles = window_cycles;
            Pipeline pipeline(params, feed);
            LifecycleTracer tracer;
            if (!trace_path.empty())
                pipeline.attach(&tracer);
            PipelineAuditor auditor(params);
            if (audit)
                pipeline.attach(&auditor);
            HostSpan sim_span("detailed-sim");
            sim_span.arg("config", fusionModeName(mode));
            const PipelineResult result = pipeline.run();
            sim_span.end();
            if (HostMetrics::global().enabled())
                HostMetrics::global().recordGuestWork(
                    result.instructions, result.uops);
            const double elapsed = timer.seconds();
            std::printf("%s: %llu instructions in %llu cycles "
                        "(IPC %.3f) [%.3f s wall, %.1f K cycles/s]\n",
                        fusionModeName(mode),
                        (unsigned long long)result.instructions,
                        (unsigned long long)result.cycles,
                        result.ipc(), elapsed,
                        elapsed > 0 ? double(result.cycles) / elapsed /
                                          1e3
                                    : 0.0);
            if (timing)
                printTimeLine(elapsed, result.cycles, result.uops);
            if (dump_stats)
                std::fputs(pipeline.stats().toString().c_str(), stdout);
            if (cpi_stack)
                std::fputs(pipeline.stats()
                               .cpiStack(result.cycles)
                               .toString().c_str(),
                           stdout);
            if (!trace_path.empty()) {
                HostSpan span("trace-write");
                writeTraces(tracer, trace_path);
            }
            if (!report_path.empty() || !profile_path.empty() ||
                Ledger::global()) {
                HostSpan report_span("report-write");
                RunResult run;
                run.workload = path;
                run.mode = mode;
                run.cycles = result.cycles;
                run.instructions = result.instructions;
                run.uops = result.uops;
                run.stats = pipeline.stats();
                run.archChecksum = hart.archChecksum();
                run.memChecksum = memory.checksum();
                run.hartInstructions = hart.instsExecuted();
                run.exited = hart.exited();
                run.exitCode = hart.exitCode();
                run.programHash = program.sourceHash;
                run.configHash = configHash(params);
                if (audit) {
                    run.audited = true;
                    run.auditChecks = auditor.checksPerformed();
                    run.auditViolations = auditor.violations();
                }
                if (const FusionProfiler *profiler =
                        pipeline.fusionProfiler()) {
                    run.profiled = true;
                    run.profile = profiler->data();
                }
                if (!report_path.empty() || !profile_path.empty()) {
                    RunReportFile report_file;
                    report_file.generator = "helios_run";
                    report_file.add(run, max_insts == UINT64_MAX
                                             ? 0 : max_insts);
                    attachHostSection(report_file);
                    if (!report_path.empty()) {
                        report_file.save(report_path);
                        std::printf("report: 1 run -> %s\n",
                                    report_path.c_str());
                    }
                    if (!profile_path.empty() &&
                        profile_path != report_path) {
                        report_file.save(profile_path);
                        std::printf(
                            "profile: %zu sites, %zu windows -> %s\n",
                            report_file.runs[0].profile.sites.size(),
                            report_file.runs[0].profile.windows.size(),
                            profile_path.c_str());
                    }
                }
                noteLedgerOutcome(recordRunToLedger(run, max_insts));
            }
            if (annotate) {
                const FusionProfiler *profiler =
                    pipeline.fusionProfiler();
                std::fputs(
                    annotateText(profiler->data(), program).c_str(),
                    stdout);
            }
            if (audit) {
                const int status = auditEpilogue(auditor);
                if (status)
                    return status;
            }
        }

        if (!hart.output().empty())
            std::printf("program output: %s\n", hart.output().c_str());
        if (hart.exited())
            std::printf("exit code (a0): %llu\n",
                        (unsigned long long)hart.exitCode());
        else
            std::printf("stopped before exit (budget reached)\n");

        // Real-binary runs behave like a shell command: the guest's
        // exit status becomes ours (truncated to 8 bits, as the OS
        // would). Assembly kernels keep the historical behaviour of
        // reporting the checksum without failing the invocation.
        if (!elf_path.empty() && hart.exited())
            return int(hart.exitCode() & 0xff);
    } catch (const FatalError &error) {
        std::fprintf(stderr, "helios_run: %s\n", error.what());
        return 1;
    }
    return 0;
}
