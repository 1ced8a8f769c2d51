/**
 * @file
 * Fusion explorer: run any workload of the suite under every fusion
 * configuration and print a side-by-side comparison of IPC, fused
 * pairs and the Helios repair events.
 *
 *   $ ./examples/fusion_explorer 657.xz_s_1 [max_insts]
 *   $ ./examples/fusion_explorer --list
 *   $ ./examples/fusion_explorer --trace 605.mcf_s > mcf.kanata
 *
 * --trace prints the µ-op lifecycle trace of a short Helios run
 * (default 300 instructions) as a Kanata pipeline view; open the file
 * in the Konata viewer. An unknown workload or a malformed budget
 * exits 2 with the usage line.
 */

#include <cstdio>
#include <iostream>

#include "common/options.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "sim/hart.hh"
#include "telemetry/lifecycle.hh"
#include "uarch/pipeline.hh"

using namespace helios;

namespace
{

/// Print the µ-op lifecycles of a short Helios run as Kanata text.
void
traceRun(const Workload &workload, uint64_t budget)
{
    Memory memory;
    Hart hart(memory);
    hart.reset(workload.program());
    HartFeed feed(hart, budget);
    Pipeline pipeline(CoreParams::icelake(FusionMode::Helios), feed);
    LifecycleTracer tracer;
    pipeline.attach(&tracer);
    pipeline.run();
    tracer.writeKonata(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    bool list = false, trace = false;
    Options parser("fusion_explorer", "[workload [max_insts]]");
    parser.flag("--list", list).flag("--trace", trace);
    const std::vector<std::string> args = parser.parse(argc, argv, 0, 2);
    if (list) {
        for (const Workload &workload : allWorkloads())
            std::printf("%-20s %s\n", workload.name.c_str(),
                        workload.description.c_str());
        return 0;
    }

    const std::string name = !args.empty() ? args[0]
                             : trace       ? "605.mcf_s"
                                           : "602.gcc_s_1";
    const Workload &workload = parser.check(
        [&]() -> const Workload & { return findWorkload(name); });
    const uint64_t budget =
        args.size() > 1
            ? parser.check([&] { return parseCount("max_insts", args[1]); })
        : trace ? 300
                : 200'000;
    if (trace) {
        traceRun(workload, budget);
        return 0;
    }

    std::printf("workload: %s — %s\n", workload.name.c_str(),
                workload.description.c_str());

    Table table({"config", "IPC", "vs base", "CSF mem", "CSF other",
                 "NCSF", "mispredicts", "unfused"});
    double base_ipc = 0.0;
    for (FusionMode mode :
         {FusionMode::None, FusionMode::RiscvFusion, FusionMode::CsfSbr,
          FusionMode::RiscvFusionPP, FusionMode::Helios,
          FusionMode::Oracle}) {
        const RunResult result = runOne(workload, mode, budget);
        if (mode == FusionMode::None)
            base_ipc = result.ipc();
        table.addRow(
            {fusionModeName(mode), Table::num(result.ipc(), 3),
             Table::pct(result.ipc() / base_ipc - 1.0),
             std::to_string(result.stat("pairs.csf_mem")),
             std::to_string(result.stat("pairs.csf_other")),
             std::to_string(result.stat("pairs.ncsf")),
             std::to_string(result.stat("fusion.mispredicts")),
             std::to_string(result.stat("fusion.unfused"))});
    }
    table.print();

    // Helios internals.
    const RunResult helios_run =
        runOne(workload, FusionMode::Helios, budget);
    std::printf("\nHelios machinery for this run:\n");
    for (const char *stat :
         {"uch.matches", "fusion.fp_attempts", "fusion.fp_applied",
          "fusion.validated", "fusion.unfuse_deadlock",
          "fusion.unfuse_store_catalyst", "fusion.unfuse_serializing",
          "fusion.mispredict_region", "pairs.dbr",
          "pairs.distance_sum"}) {
        std::printf("  %-30s %llu\n", stat,
                    (unsigned long long)helios_run.stat(stat));
    }
    return 0;
}
