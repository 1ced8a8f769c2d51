/**
 * @file
 * Ablations of the Helios design points called out in the paper's
 * text: NCSF nesting depth (Section IV-B: "two nested NCSF'd µ-ops
 * ... sufficient"), the fusion region granularity (Section III-C),
 * the Allocation Queue size (Section V-A: a wide frontend is needed
 * to fill the AQ), and the fetch width itself.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/runner.hh"

using namespace helios;

namespace
{

const char *ablationWorkloads[] = {
    "602.gcc_s_1", "605.mcf_s", "657.xz_s_1", "fft", "dijkstra",
    "qsort", "typeset", "sha",
};

struct Ablation
{
    std::string name;
    std::string value;
    CoreParams params;
};

} // namespace

int
main()
{
    printBenchHeader(
        "Ablations — Helios design points",
        "geomean IPC uplift over no fusion on an 8-workload subset");
    const uint64_t budget = benchInstructionBudget();
    const unsigned jobs = defaultJobCount();

    std::vector<Ablation> ablations;
    for (unsigned depth : {1u, 2u, 4u}) {
        CoreParams params = CoreParams::icelake(FusionMode::Helios);
        params.ncsfNestDepth = depth;
        ablations.push_back(
            {"NCSF nesting depth", std::to_string(depth), params});
    }
    for (unsigned region : {16u, 32u, 64u}) {
        CoreParams params = CoreParams::icelake(FusionMode::Helios);
        params.fusionRegionBytes = region;
        ablations.push_back(
            {"fusion region bytes", std::to_string(region), params});
    }
    for (unsigned aq : {35u, 70u, 140u, 280u}) {
        CoreParams params = CoreParams::icelake(FusionMode::Helios);
        params.aqSize = aq;
        ablations.push_back(
            {"allocation queue size", std::to_string(aq), params});
    }
    for (unsigned width : {5u, 8u}) {
        CoreParams params = CoreParams::icelake(FusionMode::Helios);
        params.fetchWidth = width;
        ablations.push_back(
            {"fetch width", std::to_string(width), params});
    }
    for (bool dbr_stores : {false, true}) {
        CoreParams params = CoreParams::icelake(FusionMode::Helios);
        params.fuseDbrStorePairs = dbr_stores;
        ablations.push_back(
            {"DBR store pairs", dbr_stores ? "on" : "off", params});
    }
    for (FpKind kind : {FpKind::Tournament, FpKind::Tage}) {
        CoreParams params = CoreParams::icelake(FusionMode::Helios);
        params.fpKind = kind;
        ablations.push_back(
            {"fusion predictor",
             kind == FpKind::Tage ? "TAGE" : "tournament", params});
    }

    // Flatten every (ablation, workload) into a fused run and its
    // no-fusion baseline: cell 2*(a*W + w) is the Helios variant,
    // the next cell its baseline.
    std::vector<MatrixCell> cells;
    for (const Ablation &ablation : ablations) {
        for (const char *name : ablationWorkloads) {
            const Workload &workload = findWorkload(name);
            CoreParams base_params = ablation.params;
            base_params.fusion = FusionMode::None;
            cells.emplace_back(workload, ablation.params, budget);
            cells.emplace_back(workload, base_params, budget);
        }
    }

    Stopwatch timer;
    const std::vector<RunResult> results = runMatrix(cells, jobs);
    const double elapsed = timer.seconds();

    Table table({"ablation", "value", "Helios uplift"});
    constexpr size_t num_workloads = std::size(ablationWorkloads);
    for (size_t a = 0; a < ablations.size(); ++a) {
        std::vector<double> ratios;
        for (size_t w = 0; w < num_workloads; ++w) {
            const size_t base_index = 2 * (a * num_workloads + w);
            const double helios_ipc = results[base_index].ipc();
            const double base = results[base_index + 1].ipc();
            ratios.push_back(helios_ipc / base);
        }
        const double uplift = 100.0 * (geomean(ratios) - 1.0);
        table.addRow({ablations[a].name, ablations[a].value,
                      Table::num(uplift, 2) + "%"});
    }
    table.print();
    std::printf("\nPaper: nesting depth 2 achieves most benefits; an "
                "8-wide frontend is needed to fill the AQ\n");
    printMatrixTiming(cells.size(), jobs, elapsed);
    return 0;
}
