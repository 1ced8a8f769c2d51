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
 * --trace prints the µ-op lifecycle trace of a short Helios run as a
 * Kanata pipeline view; open the file in the Konata viewer.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <iostream>

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
    if (argc > 1 && std::strcmp(argv[1], "--trace") == 0) {
        const std::string name = argc > 2 ? argv[2] : "605.mcf_s";
        traceRun(findWorkload(name),
                 argc > 3 ? std::strtoull(argv[3], nullptr, 0) : 300);
        return 0;
    }
    if (argc > 1 && std::strcmp(argv[1], "--list") == 0) {
        for (const Workload &workload : allWorkloads())
            std::printf("%-20s %s\n", workload.name.c_str(),
                        workload.description.c_str());
        return 0;
    }

    const std::string name = argc > 1 ? argv[1] : "602.gcc_s_1";
    const uint64_t budget =
        argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 200'000;
    const Workload &workload = findWorkload(name);

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
