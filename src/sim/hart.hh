/**
 * @file
 * The functional RV64IM hart: architectural state plus execution
 * through the flat decoder cache (sim/decoder_cache.hh). Plays the
 * role Spike plays in the paper's infrastructure.
 */

#ifndef SIM_HART_HH
#define SIM_HART_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "sim/decoder_cache.hh"
#include "sim/memory.hh"
#include "sim/syscalls.hh"
#include "sim/trace.hh"

namespace helios
{

struct Checkpoint;

/**
 * Architectural state and functional execution.
 *
 * System interaction goes through the Linux user-mode ecall shim
 * (sim/syscalls.hh): exit/exit_group end the run, write/writev
 * append to the collected output string, read serves the program's
 * stdin buffer, brk grows the heap inside the low arena, and the
 * remaining stubs are deterministic. For a Program with linuxAbi set
 * (ELF images), reset() additionally builds the standard process
 * start stack — argc, argv pointers, NULL envp, minimal auxv, with
 * the strings copied below the stack top — and mirrors argc/argv
 * into a0/a1 for bare-metal style entry points.
 */
class Hart
{
  public:
    explicit Hart(Memory &memory);

    /** Reset state and load a program (sp points at the stack top). */
    void reset(const Program &prog);

    /**
     * Execute a single instruction through the decoder cache. This is
     * the pipeline feed's path; for throughput use runFast().
     * @param out record of the executed instruction
     * @return false once the program has exited (out is untouched)
     */
    bool step(DynInst &out);

    /**
     * Run to completion or until @a max_insts executed, through the
     * decoder cache with threaded dispatch (one handler per
     * instruction) and one budget check per basic block
     * (src/sim/decoder_cache.{hh,cc}). Stops on the exact
     * instruction, with the same registers, memory, pc, seq, exit
     * state and output as as many step() calls. The one
     * documented difference is fatal() paths (invalid/ebreak/
     * unsupported ecall): the fault fires with an identical message
     * and pc, but instsExecuted() is block-aligned rather than
     * instruction-exact when the throw unwinds.
     */
    uint64_t runFast(uint64_t max_insts = UINT64_MAX);

    /**
     * The test oracle: execute a single instruction through the
     * execute() switch, decoding it from memory at the pc. It shares
     * no decoded state with the decoder cache, so a stale cache entry
     * shows up as a divergence. Only the engine differential and the
     * tests call it.
     */
    bool referenceStep(DynInst &out);

    /** Static instruction slots in the decoder cache (builds it if
     *  needed). */
    size_t fastCacheEntries();

    bool exited() const { return hasExited; }
    uint64_t exitCode() const { return theExitCode; }
    uint64_t pc() const { return thePc; }
    uint64_t instsExecuted() const { return seq; }
    const std::string &output() const { return theOutput; }

    uint64_t reg(unsigned index) const { return regs[index]; }
    void setReg(unsigned index, uint64_t value);

    /**
     * Checksum of the architectural register file, pc, exit status
     * and collected output. Combined with Memory::checksum() this
     * fingerprints the full architectural state, so the differential
     * harness can assert that every fusion configuration consumed an
     * identical functional execution.
     */
    uint64_t archChecksum() const;

    /**
     * Snapshot the full architectural state — registers, pc, seq,
     * exit status, collected output, syscall-shim state and every
     * resident memory page — into a Checkpoint cut at the current
     * dynamic instruction index. runFast(n) stops at an exact
     * instruction count, so a checkpoint can be cut anywhere in a
     * run: mid-basic-block, after self-modifying stores or mid-way
     * through the stdin buffer. Purely architectural (no
     * decoder-cache or timing state), so one checkpoint serves every
     * configuration.
     *
     * @param program_hash Program::sourceHash, stamped into the
     *        checkpoint so restore sites can verify provenance
     */
    Checkpoint makeCheckpoint(uint64_t program_hash = 0) const;

    /**
     * Reinstate a checkpoint into this hart and its (freshly
     * constructed) Memory — the counterpart of reset(const Program&)
     * for a mid-run cut. Execution then continues bit-identically to
     * the run the checkpoint was cut from. The decoder cache is
     * rebuilt from the restored memory image (never serialized),
     * which is what makes post-SMC cuts safe. fatal() when the Memory
     * already holds resident pages.
     */
    void restoreCheckpoint(const Checkpoint &ckpt);

  private:
    /**
     * Re-decode cached words touched by a store (or a syscall that
     * wrote guest memory) into [addr, addr+size), and recompute the
     * block lengths of the straight-line region around them.
     */
    void invalidateText(uint64_t addr, uint64_t size);

    /** Lazily build the decoder cache. */
    void ensureFastCache();

    void execute(const Instruction &inst, DynInst &rec);
    void doEcall();

    /** Build the Linux process start stack (linuxAbi programs). */
    void setupStartStack(const Program &prog);

    Memory &mem;
    uint64_t regs[numArchRegs] = {};
    uint64_t thePc = 0;
    uint64_t seq = 0;
    bool hasExited = false;
    uint64_t theExitCode = 0;
    std::string theOutput;
    SyscallEmulator sys;

    // The text segment [textBase, textLimit). Stores into it
    // re-decode the overwritten words (self-modifying code).
    uint64_t textBase = 0;
    uint64_t textLimit = 0;

    // The decoder cache: built lazily on the first runFast()/step()
    // call, dropped at reset(), kept coherent with memory by
    // invalidateText().
    DecoderCache fastCache;

    // runFast()'s dispatch table: the decoder cache translated to
    // resolved handler pointers + packed operands. Tagged with the
    // cache version it was translated from; runFast() re-translates
    // whenever the version moves (rebuild or SMC invalidation).
    std::vector<RunEntry> runEntries;
    uint64_t runEntriesVersion = UINT64_MAX;
};

/** The pipeline's feed: a hart stepped under an instruction budget. */
class HartFeed
{
  public:
    HartFeed(Hart &hart, uint64_t max_insts = UINT64_MAX)
        : hart(hart), remaining(max_insts)
    {}

    /**
     * Execute the next instruction into @a out.
     * @return false once the program has exited or the budget is
     *         spent (out is untouched).
     */
    bool
    next(DynInst &out)
    {
        if (remaining == 0)
            return false;
        --remaining;
        return hart.step(out);
    }

    /** The seq of the record next() fills: the hart's instruction
     *  count, which a restored checkpoint starts past zero. */
    uint64_t nextSeq() const { return hart.instsExecuted(); }

  private:
    Hart &hart;
    uint64_t remaining;
};

} // namespace helios

#endif // SIM_HART_HH
