/**
 * @file
 * Test helper: a runOne() whose pipeline has observers attached.
 *
 * The harness attaches only what CoreParams asks for (the auditor and
 * the profiler). A test that watches a run through the
 * PipelineObserver interface builds its own pipeline with this.
 */

#ifndef TESTS_OBSERVED_RUN_HH
#define TESTS_OBSERVED_RUN_HH

#include <initializer_list>

#include "harness/runner.hh"
#include "sim/hart.hh"
#include "uarch/pipeline.hh"

namespace helios
{

/** runOne(@a workload, @a params, @a max_insts) with @a observers
 *  attached; the audit and profile fields stay empty. */
inline RunResult
observedRun(const Workload &workload, const CoreParams &params,
            uint64_t max_insts,
            std::initializer_list<PipelineObserver *> observers)
{
    Memory mem;
    Hart hart(mem);
    const Program prog = workload.program();
    hart.reset(prog);
    HartFeed feed(hart, max_insts);
    Pipeline pipeline(params, feed);
    for (PipelineObserver *observer : observers)
        pipeline.attach(observer);
    const PipelineResult pres = pipeline.run();

    RunResult result;
    result.workload = workload.name;
    result.mode = params.fusion;
    result.cycles = pres.cycles;
    result.instructions = pres.instructions;
    result.uops = pres.uops;
    result.stats = pipeline.stats();
    result.archChecksum = hart.archChecksum();
    result.memChecksum = mem.checksum();
    result.hartInstructions = hart.instsExecuted();
    result.exited = hart.exited();
    result.exitCode = hart.exitCode();
    result.programHash = prog.sourceHash;
    result.configHash = configHash(params);
    return result;
}

} // namespace helios

#endif // TESTS_OBSERVED_RUN_HH
