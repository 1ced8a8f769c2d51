#include "harness/report_diff.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/options.hh"
#include "harness/run_report.hh"

namespace helios
{

namespace
{

/**
 * Append the most-changed counters between two regressing runs,
 * largest relative move first. Counters present in only one run count
 * as a full move.
 */
void
appendTopCounterDeltas(const RunReport &base, const RunReport &cur,
                       size_t top_n, std::string &out)
{
    struct Delta
    {
        std::string name;
        uint64_t before, after;
        double rel;
    };
    std::vector<Delta> deltas;
    const auto consider = [&](const std::string &name, uint64_t before,
                              uint64_t after) {
        if (before == after)
            return;
        const uint64_t reference = std::max(before, after);
        deltas.push_back(
            {name, before, after,
             before ? (double(after) - double(before)) / double(before)
                    : double(reference)});
    };
    for (const auto &[name, before] : base.stats.dump())
        consider(name, before, cur.stats.get(name));
    for (const auto &[name, after] : cur.stats.dump())
        if (base.stats.get(name) == 0 && after != 0)
            consider(name, 0, after);
    std::sort(deltas.begin(), deltas.end(),
              [](const Delta &a, const Delta &b) {
                  if (std::fabs(a.rel) != std::fabs(b.rel))
                      return std::fabs(a.rel) > std::fabs(b.rel);
                  return std::max(a.before, a.after) >
                         std::max(b.before, b.after);
              });
    if (deltas.size() > top_n)
        deltas.resize(top_n);
    for (const Delta &delta : deltas)
        out += strFormat("         %-32s %12llu -> %-12llu (%+.1f%%)\n",
                         delta.name.c_str(),
                         (unsigned long long)delta.before,
                         (unsigned long long)delta.after,
                         100.0 * delta.rel);
}

/** A site hot enough that its coverage is statistically meaningful. */
constexpr uint64_t kSiteExecutionFloor = 128;

/**
 * Per-site coverage regression check (both runs profiled): flag every
 * hot baseline site whose coverage dropped more than the tolerance.
 * Returns the number of regressing sites.
 */
unsigned
compareSites(const RunReport &base, const RunReport &cur,
             double coverage_tolerance, std::string &out)
{
    unsigned regressions = 0;
    for (const ProfileSite &site : base.profile.sites) {
        if (site.executions < kSiteExecutionFloor)
            continue;
        const ProfileSite *now = cur.profile.find(site.pc);
        const double before = site.coverage();
        const double after = now ? now->coverage() : 0.0;
        if (after < before - coverage_tolerance) {
            out += strFormat("SITE     %s/%s pc 0x%llx coverage "
                             "%.4f -> %.4f (tolerance -%.2f pp)\n",
                             base.workload.c_str(), base.mode.c_str(),
                             (unsigned long long)site.pc, before, after,
                             100.0 * coverage_tolerance);
            ++regressions;
        }
    }
    return regressions;
}

} // namespace

void
addReportDiffOptions(Options &parser, ReportDiffOptions &options)
{
    // Tolerances are given in percent and held as fractions.
    const auto percent = [](const char *name, std::vector<double *> outs) {
        return [name, outs](const std::string &text) {
            for (double *out : outs)
                *out = parseNumber(name, text) / 100.0;
        };
    };
    parser
        .value("--tolerance", "PCT",
               percent("--tolerance", {&options.ipcTolerance,
                                       &options.coverageTolerance}))
        .value("--ipc-tolerance", "PCT",
               percent("--ipc-tolerance", {&options.ipcTolerance}))
        .value("--coverage-tolerance", "PCT",
               percent("--coverage-tolerance",
                       {&options.coverageTolerance}))
        .flag("--verbose", options.verbose);
}

ReportDiffResult
diffReportFiles(const RunReportFile &baseline,
                const RunReportFile &current,
                const ReportDiffOptions &options, std::string &out)
{
    ReportDiffResult result;

    for (const ReportVerdict &verdict : current.verdicts) {
        out += strFormat("VERDICT  %s/%s %s: %s\n",
                         verdict.workload.c_str(), verdict.mode.c_str(),
                         verdict.check.c_str(), verdict.detail.c_str());
        ++result.regressions;
    }

    for (const RunReport &base : baseline.runs) {
        const RunReport *cur = current.find(base.workload, base.mode);
        if (!cur) {
            out += strFormat("MISSING  %s/%s present in baseline only\n",
                             base.workload.c_str(), base.mode.c_str());
            ++result.regressions;
            continue;
        }
        ++result.matched;

        const double ipc_ratio =
            base.ipc > 0 ? cur->ipc / base.ipc : 1.0;
        const double coverage_delta =
            cur->fusionCoverage() - base.fusionCoverage();

        bool bad = false;
        if (ipc_ratio < 1.0 - options.ipcTolerance) {
            out += strFormat("IPC      %s/%s %.4f -> %.4f "
                             "(%.2f%%, tolerance -%.2f%%)\n",
                             base.workload.c_str(), base.mode.c_str(),
                             base.ipc, cur->ipc,
                             100.0 * (ipc_ratio - 1.0),
                             100.0 * options.ipcTolerance);
            bad = true;
        }
        if (coverage_delta < -options.coverageTolerance) {
            out += strFormat("COVERAGE %s/%s %.4f -> %.4f "
                             "(tolerance -%.2f pp)\n",
                             base.workload.c_str(), base.mode.c_str(),
                             base.fusionCoverage(),
                             cur->fusionCoverage(),
                             100.0 * options.coverageTolerance);
            bad = true;
        }
        if (base.maxInsts == cur->maxInsts &&
            base.instructions != cur->instructions) {
            out += strFormat("INSTS    %s/%s committed %llu -> %llu "
                             "under the same budget\n",
                             base.workload.c_str(), base.mode.c_str(),
                             (unsigned long long)base.instructions,
                             (unsigned long long)cur->instructions);
            bad = true;
        }
        if (base.profiled && cur->profiled &&
            compareSites(base, *cur, options.coverageTolerance,
                         out) > 0)
            bad = true;
        if (bad) {
            appendTopCounterDeltas(base, *cur,
                                   options.topCounterDeltas, out);
            ++result.regressions;
        } else if (options.verbose) {
            out += strFormat("ok       %s/%s IPC %.4f -> %.4f "
                             "(%+.2f%%), coverage %.4f -> %.4f\n",
                             base.workload.c_str(), base.mode.c_str(),
                             base.ipc, cur->ipc,
                             100.0 * (ipc_ratio - 1.0),
                             base.fusionCoverage(),
                             cur->fusionCoverage());
        }
    }

    return result;
}

} // namespace helios
