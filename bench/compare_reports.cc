/**
 * @file
 * Diff two RunReport JSON files and flag regressions.
 *
 *   $ compare_reports baseline.json current.json [options]
 *
 * The options are the tolerances and --verbose it shares with
 * `helios_db diff`, declared once by addReportDiffOptions().
 *
 * The comparison itself — run matching, IPC/coverage/instruction
 * drift, per-site profile regressions, verdict propagation, top
 * counter deltas — lives in harness/report_diff.* and is shared with
 * `helios_db diff`, so a committed baseline and a ledger record diff
 * through exactly the same logic. This tool owns only the CLI: the
 * tolerance flags, the summary line, and the exit status.
 *
 * Exit status: 0 clean, 1 regression or verdict found, 2 usage /
 * file errors. CI keeps a committed baseline under bench/baselines/
 * and fails the build when a change drifts past the tolerance; to
 * accept an intentional change, regenerate the baseline (see
 * OBSERVABILITY.md).
 */

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "common/options.hh"
#include "harness/report_diff.hh"
#include "harness/run_report.hh"

using namespace helios;

int
main(int argc, char **argv)
{
    ReportDiffOptions options;
    Options parser("compare_reports", "<baseline.json> <current.json>");
    addReportDiffOptions(parser, options);
    const std::vector<std::string> paths = parser.parse(argc, argv, 2, 2);
    const std::string &baseline_path = paths[0];
    const std::string &current_path = paths[1];

    try {
        const RunReportFile baseline =
            RunReportFile::load(baseline_path);
        const RunReportFile current = RunReportFile::load(current_path);

        std::string findings;
        const ReportDiffResult result =
            diffReportFiles(baseline, current, options, findings);
        std::fputs(findings.c_str(), stdout);

        std::printf("compare_reports: %u run(s) matched, "
                    "%u regression(s)\n",
                    result.matched, result.regressions);
        return result.clean() ? 0 : 1;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "compare_reports: %s\n", error.what());
        return 2;
    }
}
