/**
 * @file
 * Dynamic-instruction records, the stream the functional simulator
 * hands the timing model.
 */

#ifndef SIM_TRACE_HH
#define SIM_TRACE_HH

#include <cstdint>

#include "isa/instruction.hh"

namespace helios
{

/**
 * One retired architectural instruction with its runtime facts.
 *
 * The timing model treats each record as one µ-op (footnote 2 of the
 * paper: every RISC-V instruction here cracks into exactly one µ-op);
 * fusion then merges µ-ops into fused µ-ops inside the pipeline.
 */
struct DynInst
{
    uint64_t seq = 0;       ///< program-order sequence number, from 0
    uint64_t pc = 0;
    Instruction inst;
    uint64_t nextPc = 0;    ///< actual next PC (after any control flow)
    uint64_t effAddr = 0;   ///< effective address of a memory access
    bool taken = false;     ///< conditional branch outcome

    bool isLoad() const { return inst.isLoad(); }
    bool isStore() const { return inst.isStore(); }
    bool isMem() const { return inst.isMem(); }
    uint8_t memSize() const { return inst.memSize(); }

    /** Cache-line address of the access (64 B lines). */
    uint64_t lineAddr() const { return effAddr >> 6; }
};

} // namespace helios

#endif // SIM_TRACE_HH
