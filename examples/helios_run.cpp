/**
 * @file
 * Command-line driver: assemble and simulate a RISC-V assembly file.
 *
 *   $ ./examples/helios_run program.s [options]
 *   $ ./examples/helios_run --elf program.elf [options]
 *       --elf FILE                         run a statically linked
 *                                          RV64IM ELF64 executable
 *                                          instead of assembling a .s
 *                                          file (conflicts with a
 *                                          positional source path);
 *                                          the guest exit code is
 *                                          propagated for single runs
 *       --argv ARG...                      remaining arguments become
 *                                          the guest argv[1..]
 *                                          (argv[0] is the ELF path);
 *                                          only valid with --elf
 *       --emit-elf FILE                    assemble the .s input, pack
 *                                          it into a static ELF64
 *                                          image at FILE and exit
 *                                          without simulating
 *       --config <NoFusion|RISCVFusion|CSF-SBR|RISCVFusion++|
 *                 Helios|OracleFusion>     (default Helios)
 *       --max-insts N                      instruction budget
 *       --trace FILE                       µop lifecycle trace: Chrome
 *                                          trace_event JSON to FILE
 *                                          (load in Perfetto / chrome:
 *                                          //tracing) plus a Konata
 *                                          pipeline view to FILE.kanata
 *       --stats                            dump every counter (per
 *                                          config with --sweep)
 *       --cpi-stack                        print the exact top-down
 *                                          cycle-accounting stack
 *       --report FILE                      write a machine-readable
 *                                          RunReport JSON file (single
 *                                          run or the whole --sweep)
 *       --profile FILE                     enable the per-PC fusion-
 *                                          site profiler and write a
 *                                          schema-v2 report (with the
 *                                          profile section) to FILE
 *       --window N                         profiler time-series window
 *                                          in cycles (default 10000;
 *                                          0 disables windowed samples)
 *       --log-level LEVEL                  logger threshold: trace,
 *                                          debug, info, warn, error or
 *                                          off (default info; env
 *                                          HELIOS_LOG)
 *       --log-json FILE                    mirror every log record as
 *                                          a JSON-lines object to FILE
 *                                          (env HELIOS_LOG_JSON)
 *       --host-trace FILE                  harness span trace: Chrome
 *                                          trace_event JSON of host
 *                                          phases (assemble,
 *                                          functional, detailed-sim,
 *                                          report-write) and per-cell
 *                                          sweep-worker spans, written
 *                                          at exit (env
 *                                          HELIOS_HOST_TRACE)
 *       --metrics FILE                     host metrics (per-phase
 *                                          wall-clock, peak RSS, guest
 *                                          and cell throughput, build
 *                                          stamp) in Prometheus text
 *                                          format, written at exit
 *                                          (env HELIOS_METRICS); also
 *                                          stamps the `host` section
 *                                          into --report files
 *       --ledger DIR                       record the finished run(s)
 *                                          into the content-addressed
 *                                          run ledger at DIR (created
 *                                          if absent; env
 *                                          HELIOS_LEDGER); a run whose
 *                                          key (program hash, config
 *                                          hash, budget, build) is
 *                                          already present is a keyed
 *                                          hit and writes nothing.
 *                                          Query with bench/helios_db.
 *       --annotate                         profile the run and print
 *                                          annotated disassembly
 *                                          (execs / coverage / stalls
 *                                          per line) on stdout
 *       --time                             print a machine-greppable
 *                                          simulation-speed line:
 *                                          wall-clock seconds, host-
 *                                          MHz-equivalent (simulated
 *                                          cycles per host second) and
 *                                          simulated µops per second;
 *                                          with --functional the line
 *                                          is wall seconds + Minst/s
 *       --functional                       skip the timing model and
 *                                          execute through
 *                                          Hart::runFast (decoder
 *                                          cache + threaded dispatch)
 *       --sweep                            run ALL configurations as a
 *                                          parallel matrix and print a
 *                                          comparison table
 *       --jobs N                           worker threads for --sweep
 *                                          (default HELIOS_JOBS or all
 *                                          hardware threads)
 *       --sample N                         sampled simulation: fast-
 *                                          forward functionally, cut N
 *                                          evenly spaced checkpoints
 *                                          across the --max-insts
 *                                          frame (required), and run
 *                                          detailed timing only on a
 *                                          warmup+interval window from
 *                                          each cut; reports weighted
 *                                          IPC / fusion coverage with
 *                                          95% confidence intervals.
 *                                          Composes with --sweep (one
 *                                          checkpoint set serves every
 *                                          configuration), --report
 *                                          (schema-v5 `sampled`
 *                                          section) and --ledger
 *                                          (keyed by sampling spec)
 *       --interval M                       measured instructions per
 *                                          sample window (default
 *                                          100000)
 *       --warmup K                         detailed warmup instructions
 *                                          before each measured window
 *                                          (default 10000; must be
 *                                          less than --interval)
 *       --checkpoint-dir DIR               persist/reuse checkpoints
 *                                          under DIR (created if
 *                                          absent); cuts are keyed by
 *                                          program hash and schedule,
 *                                          so repeated runs and config
 *                                          sweeps skip the fast-
 *                                          forward entirely
 *       --audit                            attach the pipeline invariant
 *                                          auditor;
 *                                          with --sweep, runs the
 *                                          differential harness and
 *                                          prints its JSON report on
 *                                          violation. Exit 1 when any
 *                                          invariant fails.
 *
 * Unknown options, options missing their argument, malformed
 * HELIOS_JOBS / HELIOS_MAX_INSTS / HELIOS_HEARTBEAT values, and output
 * paths (--trace/--report/--profile) that cannot be opened for writing
 * exit with status 2 — the last is checked up front so a long
 * simulation never runs just to lose its results. See
 * OBSERVABILITY.md for the trace, report and profile formats.
 *
 * The program uses the same conventions as the workload suite: exit
 * through `li a7, 93; ecall` with the result in a0; `ecall` with
 * a7=64 writes bytes (a1=buf, a2=len) to stdout.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "asm/assembler.hh"
#include "common/bits.hh"
#include "common/logging.hh"
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

void
usage()
{
    std::fprintf(stderr,
                 "usage: helios_run <file.s> [--config NAME] "
                 "[--max-insts N] [--trace FILE] "
                 "[--stats] [--cpi-stack] [--report FILE] "
                 "[--profile FILE] [--window N] [--annotate] "
                 "[--time] [--functional] "
                 "[--sweep] [--jobs N] [--audit] [--emit-elf FILE] "
                 "[--sample N] [--interval M] [--warmup K] "
                 "[--checkpoint-dir DIR] "
                 "[--log-level LEVEL] [--log-json FILE] "
                 "[--host-trace FILE] [--metrics FILE] "
                 "[--ledger DIR]\n"
                 "       helios_run --elf <file.elf> [options] "
                 "[--argv ARG...]\n");
}

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

/**
 * Output paths fail fast: a path that cannot be opened for writing is
 * a usage error (exit 2) detected before the simulation runs, not a
 * silent or late failure after minutes of work. The append-mode probe
 * never truncates an existing file.
 */
void
requireWritable(const std::string &path, const char *flag)
{
    if (path.empty())
        return;
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
        std::fprintf(stderr,
                     "helios_run: %s: cannot open '%s' for writing\n",
                     flag, path.c_str());
        std::exit(2);
    }
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
 * Parse a numeric option value; garbage, trailing junk, negatives and
 * (unless @a allow_zero) zero are usage errors (exit 2) like any
 * other malformed option.
 */
uint64_t
parseCount(const char *text, const char *flag, bool allow_zero = false)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0' || text[0] == '-' ||
        errno == ERANGE || (value == 0 && !allow_zero)) {
        std::fprintf(stderr,
                     "helios_run: %s needs a positive integer "
                     "(got '%s')\n",
                     flag, text);
        usage();
        std::exit(2);
    }
    return value;
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
    if (argc < 2) {
        usage();
        return 2;
    }

    std::string path;
    std::string elf_path;
    std::string emit_elf_path;
    std::vector<std::string> guest_argv;
    std::string trace_path;
    std::string report_path;
    std::string profile_path;
    std::string log_level;
    std::string log_json_path;
    std::string host_trace_path;
    std::string metrics_path;
    std::string ledger_path;
    FusionMode mode = FusionMode::Helios;
    uint64_t max_insts = UINT64_MAX;
    uint64_t window_cycles = 10000;
    uint64_t sample_count = 0;
    uint64_t interval_insts = 100000;
    uint64_t warmup_insts = 10000;
    bool sampling_tuned = false; ///< --interval/--warmup given
    std::string checkpoint_dir;
    unsigned jobs = 0;
    bool dump_stats = false, functional_only = false;
    bool cpi_stack = false, sweep = false, audit = false;
    bool annotate = false, timing = false;

    // Options taking a value; missing values are a usage error (exit
    // 2), same as unknown options.
    const auto value_of = [&](int &i, const char *name) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "helios_run: %s needs an argument\n",
                         name);
            usage();
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--elf") {
            elf_path = value_of(i, "--elf");
        } else if (arg == "--emit-elf") {
            emit_elf_path = value_of(i, "--emit-elf");
        } else if (arg == "--argv") {
            // Everything after --argv belongs to the guest program.
            for (int j = i + 1; j < argc; ++j)
                guest_argv.push_back(argv[j]);
            i = argc;
        } else if (arg == "--config") {
            try {
                mode = fusionModeFromName(value_of(i, "--config"));
            } catch (const FatalError &error) {
                std::fprintf(stderr, "helios_run: %s\n", error.what());
                usage();
                return 2;
            }
        } else if (arg == "--max-insts") {
            max_insts = parseCount(value_of(i, "--max-insts"),
                                   "--max-insts");
        } else if (arg == "--jobs") {
            const uint64_t count = parseCount(value_of(i, "--jobs"),
                                              "--jobs");
            // The same cap as HELIOS_JOBS; it also keeps the value
            // from wrapping in the narrower worker count.
            if (count > 1024) {
                std::fprintf(stderr,
                             "helios_run: --jobs %llu is absurdly "
                             "large (at most 1024)\n",
                             static_cast<unsigned long long>(count));
                usage();
                return 2;
            }
            jobs = unsigned(count);
        } else if (arg == "--trace") {
            trace_path = value_of(i, "--trace");
        } else if (arg == "--report") {
            report_path = value_of(i, "--report");
        } else if (arg == "--profile") {
            profile_path = value_of(i, "--profile");
        } else if (arg == "--window") {
            window_cycles =
                parseCount(value_of(i, "--window"), "--window", true);
        } else if (arg == "--sample") {
            sample_count =
                parseCount(value_of(i, "--sample"), "--sample");
        } else if (arg == "--interval") {
            interval_insts =
                parseCount(value_of(i, "--interval"), "--interval");
            sampling_tuned = true;
        } else if (arg == "--warmup") {
            warmup_insts = parseCount(value_of(i, "--warmup"),
                                      "--warmup", true);
            sampling_tuned = true;
        } else if (arg == "--checkpoint-dir") {
            checkpoint_dir = value_of(i, "--checkpoint-dir");
        } else if (arg == "--log-level") {
            log_level = value_of(i, "--log-level");
        } else if (arg == "--log-json") {
            log_json_path = value_of(i, "--log-json");
        } else if (arg == "--host-trace") {
            host_trace_path = value_of(i, "--host-trace");
        } else if (arg == "--metrics") {
            metrics_path = value_of(i, "--metrics");
        } else if (arg == "--ledger") {
            ledger_path = value_of(i, "--ledger");
        } else if (arg == "--annotate") {
            annotate = true;
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--cpi-stack") {
            cpi_stack = true;
        } else if (arg == "--time") {
            timing = true;
        } else if (arg == "--functional") {
            functional_only = true;
        } else if (arg == "--sweep") {
            sweep = true;
        } else if (arg == "--audit") {
            audit = true;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "helios_run: unknown option '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            path = arg;
        }
    }
    if (!elf_path.empty() && !path.empty()) {
        std::fprintf(stderr,
                     "helios_run: --elf conflicts with assembly input "
                     "'%s'; pick one program\n", path.c_str());
        return 2;
    }
    if (!guest_argv.empty() && elf_path.empty()) {
        std::fprintf(stderr,
                     "helios_run: --argv passes arguments to an ELF "
                     "guest; add --elf\n");
        return 2;
    }
    if (!emit_elf_path.empty() && !elf_path.empty()) {
        std::fprintf(stderr,
                     "helios_run: --emit-elf packs assembly input; it "
                     "cannot re-emit an --elf image\n");
        return 2;
    }
    if (path.empty() && elf_path.empty()) {
        usage();
        return 2;
    }
    // Bad HELIOS_JOBS / HELIOS_MAX_INSTS / HELIOS_HEARTBEAT values are
    // usage errors too, caught before any work.
    try {
        validateRunEnvironment();
    } catch (const FatalError &error) {
        std::fprintf(stderr, "helios_run: %s\n", error.what());
        return 2;
    }

    // Sampled-run usage errors, all caught before any simulation (or
    // even file I/O) happens — a bad sampling spec on a 500M-inst run
    // must not cost a fast-forward to discover.
    if (sample_count == 0 &&
        (sampling_tuned || !checkpoint_dir.empty())) {
        std::fprintf(stderr,
                     "helios_run: --interval/--warmup/--checkpoint-dir "
                     "configure sampled runs; add --sample N\n");
        return 2;
    }
    SamplingSpec sampling_spec;
    if (sample_count) {
        if (functional_only) {
            std::fprintf(stderr,
                         "helios_run: --sample estimates detailed-"
                         "timing IPC; a --functional run has no "
                         "timing to sample\n");
            return 2;
        }
        if (max_insts == UINT64_MAX) {
            std::fprintf(stderr,
                         "helios_run: --sample needs an explicit "
                         "--max-insts frame to place samples in\n");
            return 2;
        }
        sampling_spec.totalBudget = max_insts;
        sampling_spec.intervalInsts = interval_insts;
        sampling_spec.warmupInsts = warmup_insts;
        sampling_spec.sampleCount = sample_count;
        sampling_spec.checkpointDir = checkpoint_dir;
        try {
            sampling_spec.validate();
        } catch (const FatalError &error) {
            std::fprintf(stderr, "helios_run: %s\n", error.what());
            return 2;
        }
        if (!checkpoint_dir.empty()) {
            // Same fail-fast contract as the output paths: probe that
            // the directory is creatable and writable up front.
            std::error_code ec;
            std::filesystem::create_directories(checkpoint_dir, ec);
            const std::filesystem::path probe =
                std::filesystem::path(checkpoint_dir) /
                ".helios-write-probe";
            std::ofstream probe_out(probe);
            const bool writable = !ec && bool(probe_out);
            probe_out.close();
            std::filesystem::remove(probe, ec);
            if (!writable) {
                std::fprintf(stderr,
                             "helios_run: --checkpoint-dir: cannot "
                             "write to '%s'\n",
                             checkpoint_dir.c_str());
                return 2;
            }
        }
    }

    requireWritable(trace_path, "--trace");
    requireWritable(report_path, "--report");
    requireWritable(profile_path, "--profile");
    requireWritable(emit_elf_path, "--emit-elf");
    requireWritable(log_json_path, "--log-json");
    requireWritable(host_trace_path, "--host-trace");
    requireWritable(metrics_path, "--metrics");

    // Host telemetry: a bad level name is a usage error (exit 2) like
    // any other malformed option; the sinks flush at process exit so
    // every return path below still produces the files.
    if (!log_level.empty()) {
        try {
            Logger::global().setLevel(logLevelFromName(log_level));
        } catch (const FatalError &error) {
            std::fprintf(stderr, "helios_run: %s\n", error.what());
            usage();
            return 2;
        }
    }
    if (!log_json_path.empty())
        Logger::global().openJsonSink(log_json_path);
    initHostTelemetryFromEnv();
    if (!host_trace_path.empty())
        writeHostTraceAtExit(host_trace_path);
    if (!metrics_path.empty())
        writeHostMetricsAtExit(metrics_path);
    // --ledger wins over HELIOS_LEDGER; a bad directory is a usage
    // error like any other unwritable output path.
    try {
        if (!ledger_path.empty())
            Ledger::arm(ledger_path);
        else
            initLedgerFromEnv();
    } catch (const FatalError &error) {
        std::fprintf(stderr, "helios_run: %s\n", error.what());
        return 2;
    }

    // Read the input up front so a missing file is a usage error
    // (exit 2), distinct from a malformed program (exit 1 below).
    std::string source;
    std::vector<uint8_t> elf_image;
    if (!elf_path.empty()) {
        std::ifstream file(elf_path, std::ios::binary);
        if (!file) {
            std::fprintf(stderr, "helios_run: cannot open '%s'\n",
                         elf_path.c_str());
            return 2;
        }
        elf_image.assign(std::istreambuf_iterator<char>(file),
                         std::istreambuf_iterator<char>());
    } else {
        std::ifstream file(path);
        if (!file) {
            std::fprintf(stderr, "helios_run: cannot open '%s'\n",
                         path.c_str());
            return 2;
        }
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

        if (audit && functional_only)
            fatal("--audit checks the timing pipeline; drop "
                  "--functional");
        if (functional_only &&
            (!trace_path.empty() || cpi_stack ||
             !profile_path.empty() || annotate))
            fatal("--trace/--cpi-stack/--profile/--annotate need the "
                  "timing model; drop --functional");
        if (sweep && !trace_path.empty())
            fatal("--trace records one run; pick a --config instead "
                  "of --sweep");
        if (sweep && annotate)
            fatal("--annotate renders one run; pick a --config "
                  "instead of --sweep");
        if (sweep && audit && !profile_path.empty())
            fatal("--profile is not routed through the differential "
                  "harness; drop --audit or --sweep");
        if (sample_count &&
            (!trace_path.empty() || annotate ||
             !profile_path.empty() || audit))
            fatal("--trace/--annotate/--profile/--audit "
                  "observe every committed instruction; sampled runs "
                  "measure only windows — drop --sample or those "
                  "flags");

        if (sample_count) {
            const int status =
                runSampledCli(workload, sampling_spec, mode, sweep,
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
                        "(%.1f M inst/s, decoder cache: %zu entries, "
                        "%zu fused pairs)\n",
                        (unsigned long long)executed, elapsed,
                        minst_per_sec, hart.fastCacheEntries(),
                        hart.fastFusedPairs());
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
