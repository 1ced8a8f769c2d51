/**
 * @file
 * The report-diff core shared by bench/compare_reports and
 * `helios_db diff`: match two RunReportFiles by (workload, mode) and
 * flag regressions — IPC drops, fusion-coverage drops, committed-
 * instruction drift under an identical budget, per-site coverage
 * regressions (schema v2 profiles), and differential-harness verdicts
 * carried by the current file. A regressing pair is annotated with
 * its top counter deltas so the first diagnostic step needs no second
 * tool.
 *
 * Output is rendered into a string, one line per finding, in exactly
 * the format compare_reports has always printed (VERDICT / MISSING /
 * IPC / COVERAGE / INSTS / SITE / ok) — CI greps and the test suite
 * key on those spellings. The summary line and exit-status policy
 * stay with the callers.
 */

#ifndef HARNESS_REPORT_DIFF_HH
#define HARNESS_REPORT_DIFF_HH

#include <string>

namespace helios
{

class Options;
struct RunReportFile;

struct ReportDiffOptions
{
    double ipcTolerance = 0.02;      ///< max relative IPC drop
    double coverageTolerance = 0.01; ///< max coverage drop (fraction)
    bool verbose = false;            ///< also print clean "ok" pairs
    size_t topCounterDeltas = 5;     ///< counters listed per regression
};

/**
 * Declare the flags compare_reports and `helios_db diff` share, each
 * writing into @a options: --ipc-tolerance and --coverage-tolerance
 * take percent (IPC drop) and percentage points (coverage drop),
 * --tolerance sets both, and --verbose prints clean pairs too.
 */
void addReportDiffOptions(Options &parser, ReportDiffOptions &options);

struct ReportDiffResult
{
    unsigned matched = 0;     ///< (workload, mode) pairs compared
    unsigned regressions = 0; ///< flagged pairs + missing runs + verdicts

    bool clean() const { return regressions == 0; }
};

/**
 * Diff @a current against @a baseline, appending findings to @a out.
 * Never throws on content (only malformed files do, upstream in
 * RunReportFile parsing); host sections are ignored by design.
 */
ReportDiffResult diffReportFiles(const RunReportFile &baseline,
                                 const RunReportFile &current,
                                 const ReportDiffOptions &options,
                                 std::string &out);

} // namespace helios

#endif // HARNESS_REPORT_DIFF_HH
