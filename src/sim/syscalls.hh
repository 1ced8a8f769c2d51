/**
 * @file
 * Linux user-mode ecall shim.
 *
 * Emulates the subset of the RISC-V Linux syscall ABI that
 * statically-linked newlib/musl-style RV64IM binaries need to reach
 * main(), do formatted I/O and exit: exit/exit_group, write/writev
 * to a captured output stream, read from a caller-provided stdin
 * buffer, brk, and deterministic fstat/clock/identity stubs. Every
 * result is a pure function of the call sequence — the clock is a
 * counter, not the host's — so two engines (or two fusion
 * configurations) replaying the same instruction stream observe
 * bit-identical syscall results, which the differential harnesses
 * rely on.
 *
 * Unsupported calls are a fatal() with the call number and pc, never
 * a silent -ENOSYS: a workload wandering off the supported surface
 * should fail loudly, not compute garbage.
 */

#ifndef SIM_SYSCALLS_HH
#define SIM_SYSCALLS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "isa/riscv.hh"

namespace helios
{

class Memory;

/**
 * Immutable bytes held by handle: a copy shares the buffer instead of
 * copying the bytes, so every checkpoint cut from one run and every
 * hart restored from them read the one stdin buffer the run was given.
 * Equality compares contents.
 */
class SharedBytes
{
  public:
    SharedBytes() = default;
    explicit SharedBytes(std::string bytes)
        : bytes(bytes.empty() ? nullptr
                              : std::make_shared<const std::string>(
                                    std::move(bytes)))
    {}

    size_t size() const { return bytes ? bytes->size() : 0; }
    const char *data() const { return bytes ? bytes->data() : ""; }
    std::string_view view() const { return {data(), size()}; }

    bool
    operator==(const SharedBytes &other) const
    {
        return bytes == other.bytes || view() == other.view();
    }

  private:
    std::shared_ptr<const std::string> bytes; ///< null when empty
};

/**
 * The shim's complete mutable state, as dumb data. Checkpoints
 * (sim/checkpoint.hh) carry one of these so a restored hart replays
 * the exact syscall sequence the original would have: same brk, same
 * remaining stdin bytes, same deterministic clock phase.
 */
struct SyscallState
{
    uint64_t brk = 0;
    uint64_t brkBase = 0;
    uint64_t brkLimit = 0;
    SharedBytes stdinData; ///< the whole input, read or not
    uint64_t stdinPos = 0;
    uint64_t clockTicks = 0;

    bool operator==(const SyscallState &other) const = default;
};

/** What one ecall did, beyond mutating a0: the hart uses this to
 *  latch exit state and keep decoder caches coherent with guest
 *  memory the shim wrote (read(2) can overwrite text). */
struct SyscallResult
{
    bool exited = false;     ///< exit/exit_group fired
    uint64_t exitCode = 0;   ///< a0 at exit
    uint64_t writeAddr = 0;  ///< guest range the shim wrote...
    uint64_t writeLen = 0;   ///< ...(0: nothing written)
};

/**
 * State + logic of the ecall shim. One emulator per hart; reset()
 * returns it to program-start state so runs stay independent.
 */
class SyscallEmulator
{
  public:
    /**
     * Reset to program-start state.
     * @param brk_base initial program break (heap floor)
     * @param brk_limit exclusive ceiling brk may grow to; growing
     *        past it is a fatal() diagnostic, not a high-page fallback
     */
    void reset(uint64_t brk_base, uint64_t brk_limit);

    /** Bytes read(2) serves from fd 0; EOF once drained. */
    void setStdin(std::string data);

    /**
     * Handle one ecall: a7 selects the call, a0..a5 carry arguments,
     * the return value lands in a0. Output written to fds 1/2 is
     * appended to @a output. fatal() on unsupported call numbers.
     * @param pc the pc of the ecall instruction (diagnostics)
     */
    SyscallResult handle(uint64_t (&regs)[numArchRegs], Memory &mem,
                         uint64_t pc, std::string &output);

    uint64_t currentBrk() const { return brk; }

    /** Snapshot the full shim state (checkpointing); the snapshot
     *  shares the stdin buffer. */
    SyscallState state() const;

    /** Reinstate a snapshot taken by state(), sharing its stdin
     *  buffer. */
    void restoreState(const SyscallState &state);

  private:
    uint64_t brk = 0;
    uint64_t brkBase = 0;
    uint64_t brkLimit = 0;
    SharedBytes stdinData;
    uint64_t stdinPos = 0;
    uint64_t clockTicks = 0;
};

} // namespace helios

#endif // SIM_SYSCALLS_HH
