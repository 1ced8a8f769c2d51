/**
 * @file
 * Annotated disassembly from a profiled run report.
 *
 *   $ helios_annotate <report.json> <program.s> [options]
 *
 * The flags are declared in main()'s option table.
 *
 * Joins the per-PC fusion-site profile of a schema-v2 run report
 * (`helios_run --profile`, or fig10 with HELIOS_PROFILE set) with the
 * disassembly of the program it measured: every text line gets its
 * execution count, fusion coverage, per-class fused pairs,
 * missed-opportunity reasons and dominant stall category; the hottest
 * sites by attributed stall cycles lead the output. See
 * OBSERVABILITY.md ("Profiling & annotation").
 *
 * Exit status: 0 on success, 1 on malformed inputs (fatal errors),
 * 2 on usage errors or an unwritable --out path.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "common/options.hh"
#include "harness/run_report.hh"
#include "telemetry/annotate.hh"

using namespace helios;

namespace
{

/** The run to annotate: filtered by name/mode, profiled runs only. */
const RunReport *
selectRun(const RunReportFile &file, const std::string &run_name,
          const std::string &mode_name)
{
    for (const RunReport &run : file.runs) {
        if (!run.profiled)
            continue;
        if (!run_name.empty() && run.workload != run_name)
            continue;
        if (!mode_name.empty() && run.mode != mode_name)
            continue;
        return &run;
    }
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path, run_name, mode_name;
    size_t top_n = 10;
    bool json = false;
    Options parser("helios_annotate", "<report.json> <program.s>");
    // The run is the first profiled one matching --run (a workload
    // name) and --mode. --top sets the hottest-site list's length;
    // --json and --out pick the format and a file for stdout.
    parser.text("--run", "NAME", run_name)
        .text("--mode", "NAME", mode_name)
        .count("--top", "N", top_n, 0)
        .flag("--json", json)
        .outputFile("--out", out_path);
    const std::vector<std::string> paths = parser.parse(argc, argv, 2, 2);
    const std::string &report_path = paths[0];
    const std::string &program_path = paths[1];

    try {
        const RunReportFile file = RunReportFile::load(report_path);
        const RunReport *run = selectRun(file, run_name, mode_name);
        if (!run)
            fatal("no profiled run%s%s in '%s' (re-run with "
                  "--profile / HELIOS_PROFILE)",
                  run_name.empty() ? "" : " matching ",
                  run_name.empty() ? "" : run_name.c_str(),
                  report_path.c_str());

        std::ifstream source_file(program_path);
        if (!source_file) {
            std::fprintf(stderr,
                         "helios_annotate: cannot open '%s'\n",
                         program_path.c_str());
            return 2;
        }
        std::ostringstream source;
        source << source_file.rdbuf();
        const Program program = assemble(source.str());

        std::string rendered;
        if (json) {
            rendered =
                annotateJson(run->profile, program, top_n).dump(2) +
                "\n";
        } else {
            rendered = strFormat("%s %s (%s)\n", run->workload.c_str(),
                                 run->mode.c_str(),
                                 report_path.c_str()) +
                       annotateText(run->profile, program, top_n);
        }

        if (out_path.empty()) {
            std::fputs(rendered.c_str(), stdout);
        } else {
            std::ofstream out(out_path);
            if (!out || !(out << rendered)) {
                std::fprintf(
                    stderr,
                    "helios_annotate: cannot write '%s'\n",
                    out_path.c_str());
                return 2;
            }
        }
        return 0;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "helios_annotate: %s\n", error.what());
        return 1;
    }
}
