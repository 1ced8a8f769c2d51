/**
 * @file
 * Architectural checkpoints: the full functional state of a hart and
 * its memory at an exact dynamic instruction index, as dumb data.
 *
 * A checkpoint is what sampled simulation (harness/sampling.hh) cuts
 * after a functional fast-forward: restore it into a fresh Hart +
 * Memory and execution continues bit-identically to a run that never
 * stopped — same registers, pc, seq, syscall-shim state (brk, pending
 * stdin bytes, deterministic clock phase), collected output and every
 * resident memory page. Checkpoints are configuration-independent
 * (purely architectural), so one checkpoint set serves a whole
 * configuration sweep. The stdin bytes are a shared handle
 * (SharedBytes): every checkpoint cut from one run, and every hart
 * restored from one, holds the one buffer the run was given.
 *
 * On-disk form: an 8-byte magic, a length-prefixed JSON header with
 * every scalar field (human-inspectable with `head`), then a binary
 * payload of [page index, 4 KiB page] records in ascending index
 * order followed by the length-prefixed output and stdin blobs.
 * serialize() → deserialize() and save() → load() round-trip to an
 * operator==-equal value (tier-1 checked).
 */

#ifndef SIM_CHECKPOINT_HH
#define SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/riscv.hh"
#include "sim/memory.hh"
#include "sim/syscalls.hh"

namespace helios
{

/** Full architectural state at one dynamic instruction index. */
struct Checkpoint
{
    /** Bumped on any change to the serialized layout. */
    static constexpr uint32_t kVersion = 1;

    // Identity.
    uint64_t programHash = 0; ///< Program::sourceHash of the run
    uint64_t instIndex = 0;   ///< dynamic instructions executed at the cut

    // Hart scalars.
    uint64_t regs[numArchRegs] = {};
    uint64_t pc = 0;
    bool exited = false;
    uint64_t exitCode = 0;
    std::string output;       ///< bytes written to fds 1/2 so far

    // Text segment bounds, so restore can rebuild the decoder cache
    // from restored memory (covers self-modifying code: the cache is
    // re-derived, never serialized).
    uint64_t textBase = 0;
    uint64_t textLimit = 0;

    // Linux ecall shim state.
    SyscallState sys;

    /** One resident 4 KiB page. */
    struct PageRecord
    {
        uint64_t index = 0;         ///< page index (addr >> pageBits)
        std::vector<uint8_t> bytes; ///< exactly Memory::pageSize bytes

        bool operator==(const PageRecord &other) const = default;
    };

    /** Resident pages in ascending index order. */
    std::vector<PageRecord> pages;

    /** Compact binary form (magic + JSON header + page payload). */
    std::string serialize() const;

    /** Parse serialize() output; fatal() on malformed input. */
    static Checkpoint deserialize(const std::string &bytes);

    /** Write the serialized form to @a path (fatal() on I/O error). */
    void save(const std::string &path) const;

    /** Load from @a path (fatal() on I/O error or malformed data). */
    static Checkpoint load(const std::string &path);

    bool operator==(const Checkpoint &other) const;
};

} // namespace helios

#endif // SIM_CHECKPOINT_HH
