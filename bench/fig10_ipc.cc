/**
 * @file
 * Figure 10 — the headline result: IPC of every configuration,
 * normalized to the no-fusion baseline.
 *
 * Paper reference (geomean IPC uplift over no fusion):
 *   RISCVFusion +0.8%, CSF-SBR +6%, RISCVFusion++ +7%,
 *   Helios +14.2% (8.2% over CSF-SBR), OracleFusion +16.3%.
 *
 * Set HELIOS_REPORT=<path> to additionally write the whole matrix as
 * a RunReport JSON file (see OBSERVABILITY.md) for archival or
 * bench/compare_reports diffing against a previous run.
 *
 * Set HELIOS_PROFILE=<window-cycles> to run every cell with the
 * per-PC fusion-site profiler attached (0: profile without windowed
 * time-series samples); the profile sections ride along in the
 * HELIOS_REPORT file.
 */

#include <cstdio>
#include <optional>

#include "common/options.hh"
#include "harness/report.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"

using namespace helios;

int
main()
{
    printBenchHeader(
        "Figure 10 — IPC by configuration (normalized to NoFusion)",
        "the paper's headline evaluation");
    const uint64_t budget = benchInstructionBudget();
    const unsigned jobs = defaultJobCount();

    const FusionMode modes[] = {FusionMode::None,
                                FusionMode::RiscvFusion,
                                FusionMode::CsfSbr,
                                FusionMode::RiscvFusionPP,
                                FusionMode::Helios, FusionMode::Oracle};
    constexpr int num_modes = 6;

    // One matrix cell per (workload, mode); results come back in
    // input order, so cell w * num_modes + m is workload w, mode m.
    const std::optional<uint64_t> window_cycles = benchProfileWindow();
    const std::string report_path = outputFileFromEnv("HELIOS_REPORT");

    std::vector<MatrixCell> cells;
    for (const Workload &workload : allWorkloads())
        for (FusionMode mode : modes) {
            CoreParams params = CoreParams::icelake(mode);
            params.profile = window_cycles.has_value();
            params.profileWindowCycles = window_cycles.value_or(0);
            cells.emplace_back(workload, params, budget);
        }

    Stopwatch timer;
    const std::vector<RunResult> results = runMatrix(cells, jobs);
    const double elapsed = timer.seconds();

    Table table({"workload", "base IPC", "RVF", "CSF-SBR", "RVF++",
                 "Helios", "Oracle"});
    std::vector<double> ratios[num_modes - 1];
    const auto &workloads = allWorkloads();
    for (size_t w = 0; w < workloads.size(); ++w) {
        const double base = results[w * num_modes].ipc();
        std::vector<std::string> row = {workloads[w].name,
                                        Table::num(base, 3)};
        for (int i = 1; i < num_modes; ++i) {
            const double ipc = results[w * num_modes + i].ipc();
            ratios[i - 1].push_back(ipc / base);
            row.push_back(Table::num(ipc / base, 3));
        }
        table.addRow(row);
    }
    std::vector<std::string> last = {"GEOMEAN", ""};
    for (auto &ratio : ratios)
        last.push_back(Table::num(geomean(ratio), 3));
    table.addRow(last);
    table.print();

    std::printf("\nGeomean uplift over NoFusion:\n");
    const char *names[] = {"RISCVFusion", "CSF-SBR", "RISCVFusion++",
                           "Helios", "OracleFusion"};
    const double paper[] = {0.8, 6.0, 7.0, 14.2, 16.3};
    for (int i = 0; i < num_modes - 1; ++i)
        std::printf("  %-14s measured %+5.1f%%   paper %+5.1f%%\n",
                    names[i], 100.0 * (geomean(ratios[i]) - 1.0),
                    paper[i]);
    std::printf("  Helios over CSF-SBR: measured %+.1f%% (paper "
                "+8.2%%)\n",
                100.0 * (geomean(ratios[3]) / geomean(ratios[1]) - 1.0));
    printMatrixTiming(cells.size(), jobs, elapsed);

    if (!report_path.empty()) {
        RunReportFile file;
        file.generator = "fig10_ipc";
        for (const RunResult &result : results)
            file.add(result, budget);
        attachHostSection(file);
        file.save(report_path);
        std::printf("report: %zu runs -> %s\n", file.runs.size(),
                    report_path.c_str());
    }
    return 0;
}
