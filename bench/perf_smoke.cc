/**
 * @file
 * Wall-clock smoke benchmark for the simulator itself.
 *
 * Every other binary under bench/ measures the *modeled* machine;
 * this one measures the *model*: how many µ-ops per host second the
 * cycle-level core simulates. It exists so the hot-path work (µ-op
 * slab recycler, ring-buffer queues, event-driven wakeup, the
 * LQ/SQ counting filter — see DESIGN.md, "Performance engineering")
 * stays fast: CI runs it against a committed baseline and fails when
 * simulation throughput regresses.
 *
 *   $ perf_smoke [options]
 *
 * The flags are declared, with their meaning, in main()'s option
 * table.
 *
 * Besides the cycle-model matrix, a functional section measures raw
 * architectural instructions per host second on the same three
 * workloads along both functional paths: a Hart::step() loop through
 * forEachDynInst (the per-instruction path the pipeline feed and the
 * trace analyses run) and Hart::runFast() (threaded dispatch with one
 * budget check per basic block), reporting per-cell rates, per-path
 * geomeans and the fast/step speedup.
 *
 * The matrix is three workloads of deliberately different character
 * (605.mcf_s: pointer chasing and flushes; qsort: branchy integer
 * code; fft: dense float arithmetic) under three fusion configs
 * (None: baseline decode path, Helios: the predictive front end,
 * Oracle: Helios's path with an address oracle as its predictor), so
 * a regression in any major subsystem moves at least one cell. Cells
 * run sequentially on one thread — this is a wall-clock benchmark,
 * co-scheduling cells would just measure contention. Each cell
 * reports its best-of-N µ-ops per host second; the headline number is
 * the geomean across cells.
 *
 * Exit status: 0 clean, 1 regression against the baseline, 2 usage /
 * file errors.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"

using namespace helios;

namespace
{

struct Cell
{
    const char *workload;
    FusionMode mode;
    double uopsPerSec = 0.0; ///< best of N runs
    uint64_t uops = 0;
    uint64_t cycles = 0;
};

std::string
cellKey(const Cell &cell)
{
    return std::string(cell.workload) + "/" +
           fusionModeName(cell.mode);
}

struct FunctionalCell
{
    const char *workload;
    bool fastPath;
    double instsPerSec = 0.0; ///< best of N runs
    uint64_t instructions = 0;
};

const char *
engineName(bool fast_path)
{
    return fast_path ? "fast" : "step";
}

std::string
functionalKey(const FunctionalCell &cell)
{
    return std::string(cell.workload) + "/" +
           engineName(cell.fastPath);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    std::string baseline_path;
    double tolerance = 25.0;
    double functional_tolerance = 30.0;
    double min_functional_speedup = 0.0;
    uint64_t runs = 3;
    uint64_t max_insts = 300000;
    uint64_t functional_insts = 2'000'000;
    Options parser("perf_smoke", "");
    // --out writes the results as JSON; --baseline compares against an
    // earlier --out file, failing a cell that drops more than
    // --tolerance percent (25: shared CI runners are noisy, so the
    // gate catches step-function regressions, not single-digit
    // drift) or a functional cell that drops more than
    // --functional-tolerance. Each cell is the best of --runs timings
    // over --max-insts instructions; the functional cells run
    // --functional-insts, as those paths are orders of magnitude
    // faster. --min-functional-speedup X fails the run unless
    // runFast's geomean is at least X times the step() loop's in this
    // very run (0 turns the check off; the ratio of two same-host
    // measurements is far less noisy than either rate).
    parser.outputFile("--out", out_path)
        .text("--baseline", "FILE", baseline_path)
        .number("--tolerance", "PCT", tolerance)
        .count("--runs", "N", runs)
        .count("--max-insts", "N", max_insts)
        .count("--functional-insts", "N", functional_insts)
        .number("--functional-tolerance", "PCT", functional_tolerance)
        .number("--min-functional-speedup", "X", min_functional_speedup);
    parser.parse(argc, argv, 0, 0);

    printBenchHeader("perf_smoke — simulator wall-clock throughput",
                     "µ-ops simulated per host second, best of " +
                         std::to_string(runs) + " run(s)");

    std::vector<Cell> cells = {
        {"605.mcf_s", FusionMode::None},
        {"605.mcf_s", FusionMode::Helios},
        {"605.mcf_s", FusionMode::Oracle},
        {"qsort", FusionMode::None},
        {"qsort", FusionMode::Helios},
        {"qsort", FusionMode::Oracle},
        {"fft", FusionMode::None},
        {"fft", FusionMode::Helios},
        {"fft", FusionMode::Oracle},
    };

    Table table({"workload", "mode", "uops", "cycles", "Muops/s"});
    std::vector<double> rates;
    for (Cell &cell : cells) {
        const Workload &workload = findWorkload(cell.workload);
        for (uint64_t attempt = 0; attempt < runs; ++attempt) {
            Stopwatch timer;
            const RunResult result =
                runOne(workload, cell.mode, max_insts);
            const double seconds = timer.seconds();
            const double rate =
                seconds > 0 ? double(result.uops) / seconds : 0;
            if (rate > cell.uopsPerSec) {
                cell.uopsPerSec = rate;
                cell.uops = result.uops;
                cell.cycles = result.cycles;
            }
        }
        rates.push_back(cell.uopsPerSec);
        table.addRow({cell.workload, fusionModeName(cell.mode),
                      std::to_string(cell.uops),
                      std::to_string(cell.cycles),
                      Table::num(cell.uopsPerSec / 1e6, 2)});
    }
    table.print();
    const double headline = geomean(rates);
    std::printf("\ngeomean: %.2f Muops/s\n", headline / 1e6);

    // Functional section: raw architectural instructions per host
    // second, step() loop vs runFast().
    std::printf("\nfunctional paths — instructions per host second "
                "(budget %llu)\n",
                (unsigned long long)functional_insts);

    std::vector<FunctionalCell> functional_cells = {
        {"605.mcf_s", false}, {"605.mcf_s", true},
        {"qsort", false},     {"qsort", true},
        {"fft", false},       {"fft", true},
    };

    Table functional_table({"workload", "engine", "insts", "Minst/s"});
    std::vector<double> step_rates, fast_rates;
    for (FunctionalCell &cell : functional_cells) {
        const Workload &workload = findWorkload(cell.workload);
        for (uint64_t attempt = 0; attempt < runs; ++attempt) {
            Stopwatch timer;
            const uint64_t instructions =
                cell.fastPath
                    ? runFunctional(workload, functional_insts)
                          .instructions
                    : forEachDynInst(workload, functional_insts,
                                     [](const DynInst &) {});
            const double seconds = timer.seconds();
            const double rate =
                seconds > 0 ? double(instructions) / seconds : 0;
            if (rate > cell.instsPerSec) {
                cell.instsPerSec = rate;
                cell.instructions = instructions;
            }
        }
        (cell.fastPath ? fast_rates : step_rates)
            .push_back(cell.instsPerSec);
        functional_table.addRow(
            {cell.workload, engineName(cell.fastPath),
             std::to_string(cell.instructions),
             Table::num(cell.instsPerSec / 1e6, 2)});
    }
    functional_table.print();
    const double step_geomean = geomean(step_rates);
    const double fast_geomean = geomean(fast_rates);
    const double speedup =
        step_geomean > 0 ? fast_geomean / step_geomean : 0.0;
    std::printf("\nfunctional geomean: step %.2f Minst/s, "
                "fast %.2f Minst/s, speedup %.1fx\n",
                step_geomean / 1e6, fast_geomean / 1e6, speedup);

    if (!out_path.empty()) {
        JsonValue root = JsonValue::object();
        root.set("generator", "perf_smoke");
        root.set("max_insts", max_insts);
        root.set("runs", runs);
        root.set("geomean_uops_per_sec", headline);
        JsonValue cell_array = JsonValue::array();
        for (const Cell &cell : cells) {
            JsonValue entry = JsonValue::object();
            entry.set("workload", cell.workload);
            entry.set("mode", fusionModeName(cell.mode));
            entry.set("uops", cell.uops);
            entry.set("cycles", cell.cycles);
            entry.set("uops_per_sec", cell.uopsPerSec);
            cell_array.push(std::move(entry));
        }
        root.set("cells", std::move(cell_array));
        JsonValue functional = JsonValue::object();
        functional.set("max_insts", functional_insts);
        functional.set("geomean_step_insts_per_sec", step_geomean);
        functional.set("geomean_fast_insts_per_sec", fast_geomean);
        functional.set("speedup", speedup);
        JsonValue functional_array = JsonValue::array();
        for (const FunctionalCell &cell : functional_cells) {
            JsonValue entry = JsonValue::object();
            entry.set("workload", cell.workload);
            entry.set("engine", engineName(cell.fastPath));
            entry.set("instructions", cell.instructions);
            entry.set("insts_per_sec", cell.instsPerSec);
            functional_array.push(std::move(entry));
        }
        functional.set("cells", std::move(functional_array));
        root.set("functional", std::move(functional));
        std::ofstream file(out_path);
        if (!file) {
            warn("perf_smoke: cannot write %s", out_path.c_str());
            return 2;
        }
        file << root.dump(2) << '\n';
        std::printf("wrote %s\n", out_path.c_str());
    }

    int failures = 0;
    if (min_functional_speedup > 0 &&
        speedup < min_functional_speedup) {
        std::printf("\nfunctional runFast speedup %.1fx is below "
                    "the required %.1fx\n",
                    speedup, min_functional_speedup);
        ++failures;
    }

    if (baseline_path.empty())
        return failures > 0 ? 1 : 0;

    std::ifstream file(baseline_path);
    if (!file) {
        warn("perf_smoke: cannot read %s", baseline_path.c_str());
        return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    const JsonValue base = JsonValue::parse(buffer.str());

    // Per-cell comparison: an aggregate geomean can hide one config
    // regressing while another (noisier) one speeds up.
    int regressions = 0;
    const JsonValue &base_cells = base.at("cells");
    for (const Cell &cell : cells) {
        const JsonValue *match = nullptr;
        for (size_t i = 0; i < base_cells.size(); ++i) {
            const JsonValue &entry = base_cells.at(i);
            if (entry.at("workload").asString() == cell.workload &&
                entry.at("mode").asString() ==
                    fusionModeName(cell.mode)) {
                match = &entry;
                break;
            }
        }
        if (!match) {
            std::printf("  [new cell]  %s\n", cellKey(cell).c_str());
            continue;
        }
        const double before = match->at("uops_per_sec").asDouble();
        if (before <= 0)
            continue;
        const double change =
            (cell.uopsPerSec - before) / before * 100.0;
        const bool bad = change < -tolerance;
        if (bad)
            ++regressions;
        std::printf("  %-24s %8.2f -> %8.2f Muops/s  (%+.1f%%)%s\n",
                    cellKey(cell).c_str(), before / 1e6,
                    cell.uopsPerSec / 1e6, change,
                    bad ? "  REGRESSION" : "");
    }
    const double base_geomean =
        base.at("geomean_uops_per_sec").asDouble();
    if (base_geomean > 0) {
        const double change =
            (headline - base_geomean) / base_geomean * 100.0;
        std::printf("  %-24s %8.2f -> %8.2f Muops/s  (%+.1f%%)\n",
                    "geomean", base_geomean / 1e6, headline / 1e6,
                    change);
    }

    // Functional cells get their own tolerance: the functional paths
    // are so much faster than the cycle model that the same absolute
    // noise is a different relative wobble.
    int functional_regressions = 0;
    if (base.has("functional")) {
        const JsonValue &base_functional_cells =
            base.at("functional").at("cells");
        for (const FunctionalCell &cell : functional_cells) {
            const JsonValue *match = nullptr;
            for (size_t i = 0; i < base_functional_cells.size();
                 ++i) {
                const JsonValue &entry = base_functional_cells.at(i);
                if (entry.at("workload").asString() ==
                        cell.workload &&
                    entry.at("engine").asString() ==
                        engineName(cell.fastPath)) {
                    match = &entry;
                    break;
                }
            }
            if (!match) {
                std::printf("  [new cell]  %s\n",
                            functionalKey(cell).c_str());
                continue;
            }
            const double before =
                match->at("insts_per_sec").asDouble();
            if (before <= 0)
                continue;
            const double change =
                (cell.instsPerSec - before) / before * 100.0;
            const bool bad = change < -functional_tolerance;
            if (bad)
                ++functional_regressions;
            std::printf("  %-24s %8.2f -> %8.2f Minst/s (%+.1f%%)%s\n",
                        functionalKey(cell).c_str(), before / 1e6,
                        cell.instsPerSec / 1e6, change,
                        bad ? "  REGRESSION" : "");
        }
    } else {
        std::printf("  [new section]  functional\n");
    }

    if (regressions > 0) {
        std::printf("\n%d cell(s) regressed more than %.0f%%\n",
                    regressions, tolerance);
        ++failures;
    }
    if (functional_regressions > 0) {
        std::printf("\n%d functional cell(s) regressed more than "
                    "%.0f%%\n",
                    functional_regressions, functional_tolerance);
        ++failures;
    }
    if (failures > 0)
        return 1;
    std::printf("\nwithin %.0f%% of baseline (functional: %.0f%%)\n",
                tolerance, functional_tolerance);
    return 0;
}
