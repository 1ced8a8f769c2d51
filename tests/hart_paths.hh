/**
 * @file
 * Test helper: run a hart along one of its three execution paths.
 *
 * Production code runs Hart::step() (the pipeline feed) and
 * Hart::runFast(); both execute sim/fast_ops.inc over the decoder
 * cache. Hart::referenceStep() is the oracle they are compared
 * against: the execute() switch, decoding every instruction from
 * memory.
 */

#ifndef TESTS_HART_PATHS_HH
#define TESTS_HART_PATHS_HH

#include <cstdint>

#include "sim/hart.hh"

namespace helios
{

enum class HartPath
{
    Oracle,  ///< a Hart::referenceStep() loop
    Step,    ///< a Hart::step() loop
    RunFast, ///< Hart::runFast()
};

constexpr HartPath allHartPaths[] = {HartPath::Oracle, HartPath::Step,
                                     HartPath::RunFast};

inline const char *
hartPathName(HartPath path)
{
    switch (path) {
      case HartPath::Oracle: return "oracle";
      case HartPath::Step: return "step";
      case HartPath::RunFast: return "runFast";
    }
    return "?";
}

/** Run @a hart along @a path until it exits or @a max_insts have
 *  run; returns the number executed. */
inline uint64_t
runAlong(HartPath path, Hart &hart, uint64_t max_insts = UINT64_MAX)
{
    if (path == HartPath::RunFast)
        return hart.runFast(max_insts);
    DynInst rec;
    uint64_t executed = 0;
    while (executed < max_insts &&
           (path == HartPath::Step ? hart.step(rec)
                                   : hart.referenceStep(rec)))
        ++executed;
    return executed;
}

} // namespace helios

#endif // TESTS_HART_PATHS_HH
