/**
 * @file
 * Every table of the paper's evaluation, in paper order: Figures 2–5,
 * Table III and Figures 8–10.
 *
 * One runMatrix sweep over the suite × the six fusion modes fills one
 * RunReportFile, and the timing tables (Figures 3, 8, 9, 10 and
 * Table III) are rendered from that file alone. One functional pass
 * per workload feeds the three trace analyses behind Figures 2, 4
 * and 5.
 *
 * Set HELIOS_REPORT=<path> to save the report the tables were
 * rendered from (see OBSERVABILITY.md); with no other HELIOS_*
 * variable set, HELIOS_REPORT=bench/baselines/suite.json regenerates
 * the committed suite baseline.
 *
 * Set HELIOS_PROFILE=<window-cycles> to run every cell with the
 * per-PC fusion-site profiler attached (0: profile without windowed
 * time-series samples); the profile sections ride along in the
 * HELIOS_REPORT file.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>

#include "common/logging.hh"
#include "common/options.hh"
#include "common/stats.hh"
#include "harness/analysis.hh"
#include "harness/report.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"

using namespace helios;

namespace
{

constexpr FusionMode kModes[] = {FusionMode::None,
                                 FusionMode::RiscvFusion,
                                 FusionMode::CsfSbr,
                                 FusionMode::RiscvFusionPP,
                                 FusionMode::Helios,
                                 FusionMode::Oracle};

/** The trace analyses of one workload's functional stream. */
struct StreamStats
{
    IdiomStats idioms;
    CsfCategoryStats categories;
    NcsfPotentialStats potential;
};

void
section(const char *title, const char *description)
{
    std::printf("\n%s\n%s\n\n", title, description);
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double value : values)
        sum += value;
    return sum / double(values.size());
}

/** The report's run of @a workload under @a mode. */
const RunReport &
cell(const RunReportFile &file, const Workload &workload,
     FusionMode mode)
{
    const RunReport *found =
        file.find(workload.name, fusionModeName(mode));
    if (!found)
        fatal("figures: the report has no %s run of %s",
              fusionModeName(mode), workload.name.c_str());
    return *found;
}

void
figure2(const std::vector<StreamStats> &streams)
{
    section("Figure 2 — fused pairs by idiom class",
            "Memory (load/store pair) vs Others (Table I non-memory "
            "idioms), % of dynamic µ-ops");
    Table table({"workload", "Memory", "Others", "Total"});
    double mem_sum = 0.0, other_sum = 0.0;
    for (size_t w = 0; w < streams.size(); ++w) {
        const IdiomStats &stats = streams[w].idioms;
        table.addRow({allWorkloads()[w].name,
                      Table::pct(stats.memoryFraction()),
                      Table::pct(stats.othersFraction()),
                      Table::pct(stats.memoryFraction() +
                                 stats.othersFraction())});
        mem_sum += stats.memoryFraction();
        other_sum += stats.othersFraction();
    }
    const double count = double(streams.size());
    table.addRow({"AVERAGE", Table::pct(mem_sum / count),
                  Table::pct(other_sum / count),
                  Table::pct((mem_sum + other_sum) / count)});
    table.print();
    std::printf("\nPaper (amean): Memory 5.6%%, Others 1.1%%\n");
}

void
figure3(const RunReportFile &file)
{
    section("Figure 3 — all idioms vs memory-only fusion (normalized "
            "IPC)",
            "CSF-SBR = memory pairing idioms only; RISCVFusion++ = all "
            "Table I idioms");
    Table table({"workload", "base IPC", "MemoryOnly", "AllIdioms"});
    std::vector<double> memory_ratios, all_ratios;
    for (const Workload &workload : allWorkloads()) {
        const double base = cell(file, workload, FusionMode::None).ipc;
        const double memory =
            cell(file, workload, FusionMode::CsfSbr).ipc / base;
        const double all =
            cell(file, workload, FusionMode::RiscvFusionPP).ipc / base;
        table.addRow({workload.name, Table::num(base, 3),
                      Table::num(memory, 3), Table::num(all, 3)});
        memory_ratios.push_back(memory);
        all_ratios.push_back(all);
    }
    table.addRow({"GEOMEAN", "", Table::num(geomean(memory_ratios), 3),
                  Table::num(geomean(all_ratios), 3)});
    table.print();
    std::printf("\nPaper: ~1 percentage point between the two on "
                "average\n");
}

void
figure4(const std::vector<StreamStats> &streams)
{
    section("Figure 4 — consecutive memory pair categories",
            "% of dynamic µ-ops in each pair category (64 B "
            "granularity)");
    Table table({"workload", "Contiguous", "Overlap", "SameLine",
                 "NextLine"});
    std::vector<double> columns[4];
    for (size_t w = 0; w < streams.size(); ++w) {
        const CsfCategoryStats &stats = streams[w].categories;
        const uint64_t pairs[4] = {stats.contiguous, stats.overlapping,
                                   stats.sameLine, stats.nextLine};
        std::vector<std::string> row = {allWorkloads()[w].name};
        for (int i = 0; i < 4; ++i) {
            columns[i].push_back(stats.fraction(pairs[i]));
            row.push_back(Table::pct(columns[i].back()));
        }
        table.addRow(row);
    }
    std::vector<std::string> last = {"AVERAGE"};
    for (const auto &column : columns)
        last.push_back(Table::pct(mean(column)));
    table.addRow(last);
    table.print();
    std::printf("\nPaper: overlap nearly absent; SameLine+NextLine "
                "adds ~1%% beyond contiguous\n");
}

void
figure5(const std::vector<StreamStats> &streams)
{
    section("Figure 5 — NCSF / DBR fusion potential",
            "% of dynamic µ-ops pairable per category (64-µ-op "
            "window)");
    Table table({"workload", "CSF", "CSF-DBR", "NCSF", "NCSF-DBR",
                 "asym%ofNCSF"});
    std::vector<double> columns[5];
    for (size_t w = 0; w < streams.size(); ++w) {
        const NcsfPotentialStats &stats = streams[w].potential;
        const uint64_t ncsf_pairs = stats.ncsfSbr + stats.ncsfDbr;
        const double values[5] = {
            stats.fraction(stats.csfSbr), stats.fraction(stats.csfDbr),
            stats.fraction(stats.ncsfSbr), stats.fraction(stats.ncsfDbr),
            ncsf_pairs ? double(stats.asymmetric) / double(ncsf_pairs)
                       : 0.0};
        std::vector<std::string> row = {allWorkloads()[w].name};
        for (int i = 0; i < 5; ++i) {
            columns[i].push_back(values[i]);
            row.push_back(Table::pct(values[i]));
        }
        table.addRow(row);
    }
    std::vector<std::string> last = {"AVERAGE"};
    for (const auto &column : columns)
        last.push_back(Table::pct(mean(column)));
    table.addRow(last);
    table.print();
    std::printf("\nPaper: DBR ~1.5%% of dynamic µ-ops; 12.1%% of NCSF "
                "pairs asymmetric\n");
}

void
table3(const RunReportFile &file)
{
    section("Table III — Helios fusion predictor quality",
            "coverage vs oracle, accuracy, fusion MPKI");
    Table table({"workload", "Coverage", "Accuracy", "MPKI"});
    std::vector<double> coverages, accuracies, mpkis;
    for (const Workload &workload : allWorkloads()) {
        const RunReport &helios_run =
            cell(file, workload, FusionMode::Helios);
        const RunReport &oracle_run =
            cell(file, workload, FusionMode::Oracle);

        // Pairs that need prediction (every pair but a consecutive
        // Table I load/store pair) Helios fused, over those the oracle
        // fused; undefined ("-") where the oracle fused none.
        const uint64_t possible =
            oracle_run.stats.get("pairs.need_prediction");
        std::string coverage = "-";
        if (possible > 0) {
            coverages.push_back(
                double(helios_run.stats.get("pairs.need_prediction")) /
                double(possible));
            coverage = Table::pct(coverages.back());
        }

        const double correct =
            double(helios_run.stats.get("fusion.fp_correct"));
        const double wrong =
            double(helios_run.stats.get("fusion.mispredicts"));
        accuracies.push_back(
            (correct + wrong) > 0 ? correct / (correct + wrong) : 1.0);
        mpkis.push_back(1000.0 * wrong /
                        double(helios_run.instructions));

        table.addRow({workload.name, coverage,
                      Table::pct(accuracies.back()),
                      Table::num(mpkis.back(), 4)});
    }
    table.addRow({"AVERAGE",
                  coverages.empty() ? "-" : Table::pct(mean(coverages)),
                  Table::pct(mean(accuracies)),
                  Table::num(mean(mpkis), 4)});
    table.print();
    std::printf("\nPaper (avg): coverage 68.2%%, accuracy 99.7%%, "
                "MPKI 0.1416\n");
}

struct PairNumbers
{
    double csf;
    double ncsf;
    double distance;
};

PairNumbers
pairNumbers(const RunReport &run)
{
    const double mem_insts = double(run.stats.get("commit.loads") +
                                    run.stats.get("commit.stores"));
    const double csf = double(run.stats.get("pairs.csf_mem"));
    const double ncsf = double(run.stats.get("pairs.ncsf"));
    const double dsum = double(run.stats.get("pairs.distance_sum"));
    return {mem_insts ? csf / mem_insts : 0.0,
            mem_insts ? ncsf / mem_insts : 0.0,
            (csf + ncsf) > 0 ? dsum / (csf + ncsf) : 0.0};
}

void
figure8(const RunReportFile &file)
{
    section("Figure 8 — CSF and NCSF pairs, Helios vs OracleFusion",
            "pairs as % of dynamic memory instructions; avg fusion "
            "distance in µ-ops");
    Table table({"workload", "Helios CSF", "Helios NCSF", "Oracle CSF",
                 "Oracle NCSF", "Helios dist"});
    std::vector<double> columns[5];
    for (const Workload &workload : allWorkloads()) {
        const PairNumbers helios_pairs =
            pairNumbers(cell(file, workload, FusionMode::Helios));
        const PairNumbers oracle_pairs =
            pairNumbers(cell(file, workload, FusionMode::Oracle));
        const double values[5] = {helios_pairs.csf, helios_pairs.ncsf,
                                  oracle_pairs.csf, oracle_pairs.ncsf,
                                  helios_pairs.distance};
        for (int i = 0; i < 5; ++i)
            columns[i].push_back(values[i]);
        table.addRow({workload.name, Table::pct(values[0]),
                      Table::pct(values[1]), Table::pct(values[2]),
                      Table::pct(values[3]), Table::num(values[4], 1)});
    }
    table.addRow({"AVERAGE", Table::pct(mean(columns[0])),
                  Table::pct(mean(columns[1])),
                  Table::pct(mean(columns[2])),
                  Table::pct(mean(columns[3])),
                  Table::num(mean(columns[4]), 1)});
    table.print();
    std::printf("\nPaper (amean over memory insts): Helios 6.7%% CSF "
                "+ 5.5%% NCSF; Oracle CSF 6.1%%; distance 10.5\n");
}

/** The paper's stall categories as an ad-hoc CPI stack. */
CpiStack
stallStack(const RunReport &run)
{
    CpiStack stack(run.cycles);
    stack.addCategory("rob", run.stats.get("dispatch.stall.rob"));
    stack.addCategory("iq", run.stats.get("dispatch.stall.iq"));
    stack.addCategory("lq", run.stats.get("dispatch.stall.lq"));
    stack.addCategory("sq", run.stats.get("dispatch.stall.sq"));
    return stack;
}

void
figure9(const RunReportFile &file)
{
    // The stall stack over the historical rename/dispatch counters
    // may overlap (its residual absorbs the rest); "exact top" reads
    // the pipeline's exact per-cycle cpi.* attribution instead.
    section("Figure 9 — rename/dispatch structural stalls (% of "
            "cycles)",
            "baseline (no fusion) vs Helios vs OracleFusion; 'top' = "
            "dominant stalled resource in the baseline, 'exact top' = "
            "dominant category of the exact per-cycle CPI stack");
    Table table({"workload", "baseline", "Helios", "Oracle", "top",
                 "exact top"});
    for (const Workload &workload : allWorkloads()) {
        const RunReport &base = cell(file, workload, FusionMode::None);
        std::vector<std::string> row = {workload.name};
        for (FusionMode mode :
             {FusionMode::None, FusionMode::Helios, FusionMode::Oracle})
            row.push_back(Table::pct(
                stallStack(cell(file, workload, mode))
                    .fractionWithPrefix("")));
        const CpiStack stalls = stallStack(base);
        uint64_t most = 0;
        for (size_t i = 0; i < stalls.size(); ++i)
            most = std::max(most, stalls.cycles(i));
        row.push_back(most ? stalls.dominant() : "-");
        const CpiStack exact = base.cpiStack();
        row.push_back(exact.dominant());
        table.addRow(row);
        if (!exact.exact())
            std::printf("warning: %s baseline CPI stack residual %lld\n",
                        workload.name.c_str(),
                        (long long)exact.residual());
    }
    table.print();
    std::printf("\nPaper: stall-heavy baselines (xz_1 88%% SQ) gain "
                "most from fusion\n");
}

void
figure10(const RunReportFile &file)
{
    section("Figure 10 — IPC by configuration (normalized to NoFusion)",
            "the paper's headline evaluation");
    Table table({"workload", "base IPC", "RVF", "CSF-SBR", "RVF++",
                 "Helios", "Oracle"});
    constexpr int num_fused = std::size(kModes) - 1;
    std::vector<double> ratios[num_fused];
    for (const Workload &workload : allWorkloads()) {
        const double base = cell(file, workload, kModes[0]).ipc;
        std::vector<std::string> row = {workload.name,
                                        Table::num(base, 3)};
        for (int i = 0; i < num_fused; ++i) {
            ratios[i].push_back(
                cell(file, workload, kModes[i + 1]).ipc / base);
            row.push_back(Table::num(ratios[i].back(), 3));
        }
        table.addRow(row);
    }
    std::vector<std::string> last = {"GEOMEAN", ""};
    for (const auto &ratio : ratios)
        last.push_back(Table::num(geomean(ratio), 3));
    table.addRow(last);
    table.print();

    std::printf("\nGeomean uplift over NoFusion:\n");
    const char *names[] = {"RISCVFusion", "CSF-SBR", "RISCVFusion++",
                           "Helios", "OracleFusion"};
    const double paper[] = {0.8, 6.0, 7.0, 14.2, 16.3};
    for (int i = 0; i < num_fused; ++i)
        std::printf("  %-14s measured %+5.1f%%   paper %+5.1f%%\n",
                    names[i], 100.0 * (geomean(ratios[i]) - 1.0),
                    paper[i]);
    std::printf("  Helios over CSF-SBR: measured %+.1f%% (paper "
                "+8.2%%)\n",
                100.0 * (geomean(ratios[3]) / geomean(ratios[1]) - 1.0));
}

} // namespace

int
main()
{
    printBenchHeader(
        "Paper figures — Figures 2–5, Table III and Figures 8–10",
        "one sweep of the suite under all six fusion modes and one "
        "functional pass per workload");
    const uint64_t budget = benchInstructionBudget();
    const unsigned jobs = defaultJobCount();
    const std::optional<uint64_t> window_cycles = benchProfileWindow();
    const std::string report_path = outputFileFromEnv("HELIOS_REPORT");

    Stopwatch stream_timer;
    std::vector<StreamStats> streams;
    for (const Workload &workload : allWorkloads()) {
        IdiomAccumulator idioms;
        CsfCategoryAccumulator categories;
        NcsfPotentialAccumulator potential;
        forEachDynInst(workload, budget, [&](const DynInst &dyn) {
            idioms.add(dyn);
            categories.add(dyn);
            potential.add(dyn);
        });
        streams.push_back(
            {idioms.stats(), categories.stats(), potential.stats()});
    }
    const double stream_seconds = stream_timer.seconds();

    std::vector<MatrixCell> cells;
    for (const Workload &workload : allWorkloads())
        for (FusionMode mode : kModes) {
            CoreParams params = CoreParams::icelake(mode);
            params.profile = window_cycles.has_value();
            params.profileWindowCycles = window_cycles.value_or(0);
            cells.emplace_back(workload, params, budget);
        }
    Stopwatch matrix_timer;
    RunReportFile file;
    file.generator = "figures";
    for (const RunResult &result : runMatrix(cells, jobs))
        file.add(result, budget);
    const double matrix_seconds = matrix_timer.seconds();

    figure2(streams);
    figure3(file);
    figure4(streams);
    figure5(streams);
    table3(file);
    figure8(file);
    figure9(file);
    figure10(file);

    std::printf("\n[stream] %zu workloads analyzed in %.2f s\n",
                streams.size(), stream_seconds);
    printMatrixTiming(cells.size(), jobs, matrix_seconds);

    if (!report_path.empty()) {
        attachHostSection(file);
        file.save(report_path);
        std::printf("report: %zu runs -> %s\n", file.runs.size(),
                    report_path.c_str());
    }
    return 0;
}
