/**
 * @file
 * Query and maintain a run ledger (src/ledger): the content-addressed
 * store `helios_run --ledger` / HELIOS_LEDGER records finished runs
 * into.
 *
 *   $ helios_db <command> <ledger-dir> [args]
 *
 *       ingest DIR report.json
 *           Ingest every run of a RunReport file as a ledger record
 *           (key: program_hash, config_hash, max_insts, build). The
 *           --build override stamps a synthetic build name — that is
 *           how a trend history is seeded from reports produced by
 *           one binary (same key except the build ⇒ a new point).
 *
 *       list DIR
 *           One line per record: seq, workload, config, build, IPC.
 *
 *       show DIR SEQ
 *           Print record SEQ's meta and its full blob (the run's
 *           report JSON).
 *
 *       trend DIR
 *           Every (workload, config) series of the meta field named
 *           by --metric, in append order, flagging the latest point
 *           when it drifted past --tolerance (percent) vs the mean of
 *           the preceding --window points (default: window 5,
 *           tolerance 2%, higher is better unless --lower-is-better).
 *           Exit 1 when any series is flagged.
 *
 *       diff DIR SEQ_BASE SEQ_CUR
 *           Diff two ledger records through the same report-diff core
 *           and flags as bench/compare_reports (harness/report_diff.*).
 *           Exit 1 on regressions.
 *
 *       gc DIR
 *           Delete unreferenced blob files (crash leftovers) and
 *           compact the index.
 *
 * Exit status: 0 clean, 1 regression found (trend/diff), 2 usage or
 * file errors. See OBSERVABILITY.md ("Run ledger & trends").
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/options.hh"
#include "harness/report_diff.hh"
#include "harness/run_report.hh"
#include "ledger/ledger.hh"
#include "ledger/trend.hh"
#include "telemetry/host_metrics.hh"

using namespace helios;

namespace
{

/** The commands and their operands; each one's flags are declared
 *  in main(). */
struct Command
{
    const char *name;
    const char *operands;
    size_t count;
};

const Command kCommands[] = {
    {"ingest", "DIR report.json", 2},
    {"list", "DIR", 1},
    {"show", "DIR SEQ", 2},
    {"trend", "DIR", 1},
    {"diff", "DIR SEQ_BASE SEQ_CUR", 3},
    {"gc", "DIR", 1},
};

const LedgerRecord *
findBySeq(const Ledger &ledger, uint64_t seq)
{
    for (const LedgerRecord &record : ledger.records())
        if (record.seq == seq)
            return &record;
    return nullptr;
}

int
cmdIngest(Ledger &ledger, const std::string &report_path,
          const std::string &build_override)
{
    const RunReportFile file = RunReportFile::load(report_path);
    unsigned recorded = 0, hits = 0;
    for (const RunReport &report : file.runs) {
        LedgerKey key;
        key.programHash = report.programHash;
        key.configHash = report.configHash;
        key.budget = report.maxInsts;
        key.build = build_override.empty() ? buildInfo().gitHash
                                           : build_override;

        JsonValue meta = JsonValue::object();
        meta.set("workload", JsonValue(report.workload));
        meta.set("mode", JsonValue(report.mode));
        meta.set("ipc", JsonValue(report.ipc));
        meta.set("fusion_coverage",
                 JsonValue(report.fusionCoverage()));
        meta.set("instructions", JsonValue(report.instructions));
        meta.set("cycles", JsonValue(report.cycles));
        meta.set("uops", JsonValue(report.uops));

        RunReportFile blob;
        blob.generator = "helios_db ingest";
        blob.runs.push_back(report);
        if (ledger.record(key, std::move(meta), blob.toJsonText()))
            ++recorded;
        else
            ++hits;
    }
    std::printf("ingest: %u run(s) recorded, %u already present "
                "<- %s\n",
                recorded, hits, report_path.c_str());
    return 0;
}

int
cmdList(const Ledger &ledger)
{
    for (const LedgerRecord &record : ledger.records()) {
        const JsonValue &meta = record.meta;
        const auto field = [&](const char *name) -> std::string {
            const JsonValue &value = meta.get(name);
            return value.isString() ? value.asString() : "-";
        };
        const JsonValue &ipc = meta.get("ipc");
        std::printf("%4llu  %-24s %-12s %-12s ipc %-8s %s\n",
                    (unsigned long long)record.seq,
                    field("workload").c_str(), field("mode").c_str(),
                    record.key.build.c_str(),
                    ipc.isNumber()
                        ? strFormat("%.4f", ipc.asDouble()).c_str()
                        : "-",
                    record.key.text().c_str());
    }
    std::printf("helios_db: %zu record(s) in %s\n",
                ledger.records().size(), ledger.dir().c_str());
    return 0;
}

int
cmdShow(const Ledger &ledger, uint64_t seq)
{
    const LedgerRecord *record = findBySeq(ledger, seq);
    if (!record) {
        std::fprintf(stderr, "helios_db: no record with seq %llu\n",
                     (unsigned long long)seq);
        return 2;
    }
    std::printf("key:  %s\n", record->key.text().c_str());
    std::printf("meta: %s\n", record->meta.dump(0).c_str());
    const std::string blob = ledger.loadBlob(*record);
    std::fputs(blob.c_str(), stdout);
    if (!blob.empty() && blob.back() != '\n')
        std::fputc('\n', stdout);
    return 0;
}

int
cmdTrend(const Ledger &ledger, const std::string &metric,
         const TrendOptions &options)
{
    const std::vector<TrendSeries> series =
        collectTrendSeries(ledger, metric);
    if (series.empty()) {
        std::printf("trend: no records carry metric '%s'\n",
                    metric.c_str());
        return 0;
    }

    unsigned flagged = 0;
    for (const TrendSeries &s : series) {
        std::string points;
        for (const TrendPoint &point : s.points)
            points += strFormat(" %.4f", point.value);
        std::printf("%s/%s (budget %llu) %s:%s\n", s.workload.c_str(),
                    s.mode.c_str(), (unsigned long long)s.budget,
                    metric.c_str(), points.c_str());
        for (const TrendFlag &flag : analyzeTrend(s, options)) {
            std::printf("TREND    %s/%s %s %.4f vs window mean %.4f "
                        "(%+.2f%%, tolerance %.2f%%)\n",
                        flag.workload.c_str(), flag.mode.c_str(),
                        flag.metric.c_str(), flag.latest,
                        flag.reference, 100.0 * flag.delta,
                        100.0 * options.tolerance);
            ++flagged;
        }
    }
    std::printf("trend: %zu series, %u regression(s)\n", series.size(),
                flagged);
    return flagged ? 1 : 0;
}

int
cmdDiff(const Ledger &ledger, uint64_t seq_base, uint64_t seq_cur,
        const ReportDiffOptions &options)
{
    const LedgerRecord *base = findBySeq(ledger, seq_base);
    const LedgerRecord *cur = findBySeq(ledger, seq_cur);
    if (!base || !cur) {
        std::fprintf(stderr, "helios_db: no record with seq %llu\n",
                     (unsigned long long)(!base ? seq_base : seq_cur));
        return 2;
    }
    const RunReportFile baseline =
        RunReportFile::fromJsonText(ledger.loadBlob(*base));
    const RunReportFile current =
        RunReportFile::fromJsonText(ledger.loadBlob(*cur));

    std::string findings;
    const ReportDiffResult result =
        diffReportFiles(baseline, current, options, findings);
    std::fputs(findings.c_str(), stdout);
    std::printf("helios_db diff: %u run(s) matched, "
                "%u regression(s)\n",
                result.matched, result.regressions);
    return result.clean() ? 0 : 1;
}

int
cmdGc(Ledger &ledger)
{
    const size_t removed = ledger.gc();
    std::printf("gc: removed %zu unreferenced blob(s), %zu record(s) "
                "kept\n",
                removed, ledger.records().size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "";
    const Command *command = std::find_if(
        std::begin(kCommands), std::end(kCommands),
        [&](const Command &c) { return name == c.name; });
    if (command == std::end(kCommands)) {
        if (!name.empty())
            std::fprintf(stderr, "helios_db: unknown command '%s'\n",
                         name.c_str());
        std::fprintf(stderr,
                     "usage: helios_db <command> <ledger-dir> [args]\n");
        for (const Command &c : kCommands)
            std::fprintf(stderr, "  %-6s %s\n", c.name, c.operands);
        return 2;
    }

    std::string build_override, metric;
    TrendOptions trend;
    bool lower_is_better = false;
    ReportDiffOptions diff;
    Options parser("helios_db " + name, command->operands);
    if (name == "ingest")
        parser.text("--build", "NAME", build_override);
    if (name == "trend")
        parser.text("--metric", "NAME", metric)
            .count("--window", "N", trend.window, 0)
            .value("--tolerance", "PCT",
                   [&](const std::string &text) {
                       trend.tolerance =
                           parseNumber("--tolerance", text) / 100.0;
                   })
            .flag("--lower-is-better", lower_is_better);
    if (name == "diff")
        addReportDiffOptions(parser, diff);
    const std::vector<std::string> args =
        parser.parse(argc, argv, command->count, command->count, 2);
    if (name == "trend" && metric.empty())
        parser.fail("trend needs --metric NAME");
    trend.higherIsBetter = !lower_is_better;
    std::vector<uint64_t> seqs;
    if (name == "show" || name == "diff")
        for (size_t i = 1; i < args.size(); ++i)
            seqs.push_back(parser.check(
                [&] { return parseCount("SEQ", args[i], 0); }));

    try {
        Ledger ledger(args[0]);
        if (name == "ingest")
            return cmdIngest(ledger, args[1], build_override);
        if (name == "list")
            return cmdList(ledger);
        if (name == "show")
            return cmdShow(ledger, seqs[0]);
        if (name == "trend")
            return cmdTrend(ledger, metric, trend);
        if (name == "diff")
            return cmdDiff(ledger, seqs[0], seqs[1], diff);
        return cmdGc(ledger);
    } catch (const FatalError &error) {
        std::fprintf(stderr, "helios_db: %s\n", error.what());
        return 2;
    }
}
