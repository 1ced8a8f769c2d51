/**
 * @file
 * Sampled-vs-full validation gate for the interval sampler.
 *
 * For each named workload, run the same instruction frame twice:
 * once fully detailed (every instruction through the cycle model —
 * ground truth) and once sampled (harness/sampling.hh: functional
 * fast-forward, checkpoints at interval starts, warmup + measured
 * window per sample). Report the IPC error of the sampled estimate
 * against the full run, and fail (exit 1) when any workload's error
 * exceeds the tolerance — this is the committed accuracy contract CI
 * enforces, so estimator or warmup regressions surface as a red gate
 * rather than as silently wrong paper numbers.
 *
 *   $ sampling_error [options] [workload...]
 *
 * The flags, declared in main()'s option table, set the tolerance and
 * the sampling spec, and name a schema-v5 report and a checkpoint
 * directory.
 *
 * Default workloads: dotprod-like integer (crc32) and pointer-heavy
 * (qsort) kernels; CI passes its own pair explicitly.
 *
 * Exit status: 0 within tolerance, 1 tolerance exceeded, 2 usage
 * errors.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/options.hh"
#include "harness/report.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"
#include "harness/sampling.hh"
#include "workloads/workloads.hh"

using namespace helios;

int
main(int argc, char **argv)
{
    double tolerance = 2.0;
    SamplingSpec spec;
    spec.totalBudget = 2'000'000;
    spec.sampleCount = 10;
    spec.intervalInsts = 20'000;
    spec.warmupInsts = 5'000;
    std::string report_path;
    Options parser("sampling_error", "[workload...]");
    // --tolerance is the largest |sampled - full| / full IPC error, in
    // percent. --budget is each workload's frame, cut into --samples
    // windows of --warmup detailed instructions and --interval
    // measured ones. --report writes the full and the sampled run of
    // every workload; --checkpoint-dir persists and reuses the cuts.
    parser.number("--tolerance", "PCT", tolerance)
        .count("--budget", "N", spec.totalBudget)
        .count("--samples", "N", spec.sampleCount)
        .count("--interval", "M", spec.intervalInsts)
        .count("--warmup", "K", spec.warmupInsts, 0)
        .outputFile("--report", report_path)
        .outputDir("--checkpoint-dir", spec.checkpointDir);
    std::vector<std::string> names =
        parser.parse(argc, argv, 0, SIZE_MAX);
    if (names.empty())
        names = {"crc32", "qsort"};
    std::vector<const Workload *> workloads;
    for (const std::string &name : names)
        workloads.push_back(&parser.check(
            [&]() -> const Workload & { return findWorkload(name); }));
    parser.check([&] { spec.validate(); });

    try {
        printBenchHeader("sampled-vs-full IPC error",
                         strFormat("%zu workloads, %llu-inst frame, "
                                   "%llu samples x (%llu warmup + "
                                   "%llu interval), tolerance %.2f%%",
                                   names.size(),
                                   (unsigned long long)spec.totalBudget,
                                   (unsigned long long)spec.sampleCount,
                                   (unsigned long long)spec.warmupInsts,
                                   (unsigned long long)spec.intervalInsts,
                                   tolerance)
                             .c_str());

        const CoreParams params =
            CoreParams::icelake(FusionMode::Helios);
        RunReportFile file;
        file.generator = "sampling_error";

        Table table({"workload", "full IPC", "sampled IPC",
                     "95% CI half", "error %", "speedup", "verdict"});
        bool failed = false;
        for (const Workload *workload : workloads) {
            Stopwatch full_timer;
            const RunResult full =
                runOne(*workload, params, spec.totalBudget);
            const double full_seconds = full_timer.seconds();

            Stopwatch sampled_timer;
            const SampledResult sampled =
                runSampled(*workload, params, spec);
            const double sampled_seconds = sampled_timer.seconds();

            const double error_pct =
                full.ipc() > 0
                    ? 100.0 *
                          std::fabs(sampled.ipc.mean - full.ipc()) /
                          full.ipc()
                    : 0.0;
            const double speedup = sampled_seconds > 0
                                       ? full_seconds / sampled_seconds
                                       : 0.0;
            const bool ok = error_pct <= tolerance;
            failed = failed || !ok;

            table.addRow({workload->name, Table::num(full.ipc(), 4),
                          Table::num(sampled.ipc.mean, 4),
                          Table::num(sampled.ipc.ci95Half, 4),
                          Table::num(error_pct, 3),
                          Table::num(speedup, 1) + "x",
                          ok ? "ok" : "FAIL"});

            file.add(full, spec.totalBudget);
            file.runs.push_back(makeSampledRunReport(sampled));
        }
        table.print();

        if (!report_path.empty()) {
            attachHostSection(file);
            file.save(report_path);
            std::printf("report: %zu runs -> %s\n", file.runs.size(),
                        report_path.c_str());
        }

        if (failed) {
            std::printf("sampling error gate: FAIL (tolerance "
                        "%.2f%%)\n",
                        tolerance);
            return 1;
        }
        std::printf("sampling error gate: ok (tolerance %.2f%%)\n",
                    tolerance);
        return 0;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "sampling_error: %s\n", error.what());
        return 2;
    }
}
