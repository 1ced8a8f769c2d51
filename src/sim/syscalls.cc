#include "sim/syscalls.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "sim/memory.hh"

namespace helios
{

namespace
{

// Linux RISC-V (asm-generic) syscall numbers.
enum : uint64_t
{
    SysIoctl = 29,
    SysClose = 57,
    SysLseek = 62,
    SysRead = 63,
    SysWrite = 64,
    SysWritev = 66,
    SysFstat = 80,
    SysExit = 93,
    SysExitGroup = 94,
    SysSetTidAddress = 96,
    SysSetRobustList = 99,
    SysClockGettime = 113,
    SysGettimeofday = 169,
    SysGetpid = 172,
    SysGetuid = 174,
    SysGeteuid = 175,
    SysGetgid = 176,
    SysGetegid = 177,
    SysGettid = 178,
    SysBrk = 214,
};

// Errno values returned as -errno in a0 (Linux convention).
constexpr uint64_t errBadf = uint64_t(-9);
constexpr uint64_t errInval = uint64_t(-22);
constexpr uint64_t errNotty = uint64_t(-25);
constexpr uint64_t errSpipe = uint64_t(-29);

/** A single write/writev is capped so a garbage length register
 *  cannot balloon the captured output string. */
constexpr uint64_t maxWriteBytes = 16ULL << 20;

/** Byte size of the riscv64 struct stat the fstat stub fills. */
constexpr uint64_t statSize = 128;

/** Append @a len guest bytes at @a addr to @a output. */
void
appendGuestBytes(Memory &mem, uint64_t addr, uint64_t len,
                 std::string &output, uint64_t pc)
{
    if (len > maxWriteBytes)
        fatal("write of %llu bytes at pc 0x%llx exceeds the syscall "
              "shim's %llu MiB cap",
              (unsigned long long)len, (unsigned long long)pc,
              (unsigned long long)(maxWriteBytes >> 20));
    output.reserve(output.size() + len);
    for (uint64_t i = 0; i < len; ++i)
        output += static_cast<char>(mem.readByte(addr + i));
}

} // namespace

void
SyscallEmulator::reset(uint64_t brk_base, uint64_t brk_limit)
{
    brk = brk_base;
    brkBase = brk_base;
    brkLimit = brk_limit;
    stdinData = {};
    stdinPos = 0;
    clockTicks = 0;
}

void
SyscallEmulator::setStdin(std::string data)
{
    stdinData = SharedBytes(std::move(data));
    stdinPos = 0;
}

SyscallState
SyscallEmulator::state() const
{
    SyscallState snap;
    snap.brk = brk;
    snap.brkBase = brkBase;
    snap.brkLimit = brkLimit;
    snap.stdinData = stdinData;
    snap.stdinPos = stdinPos;
    snap.clockTicks = clockTicks;
    return snap;
}

void
SyscallEmulator::restoreState(const SyscallState &state)
{
    brk = state.brk;
    brkBase = state.brkBase;
    brkLimit = state.brkLimit;
    stdinData = state.stdinData;
    stdinPos = state.stdinPos;
    clockTicks = state.clockTicks;
}

SyscallResult
SyscallEmulator::handle(uint64_t (&regs)[numArchRegs], Memory &mem,
                        uint64_t pc, std::string &output)
{
    SyscallResult res;
    const uint64_t call = regs[RegA7];
    const uint64_t a0 = regs[RegA0];
    const uint64_t a1 = regs[RegA1];
    const uint64_t a2 = regs[RegA2];

    switch (call) {
      case SysExit:
      case SysExitGroup:
        res.exited = true;
        res.exitCode = a0;
        break;

      case SysWrite: // write(fd, buf, len)
        if (a0 == 1 || a0 == 2) {
            appendGuestBytes(mem, a1, a2, output, pc);
            regs[RegA0] = a2;
        } else {
            regs[RegA0] = errBadf;
        }
        break;

      case SysWritev: { // writev(fd, iov, iovcnt)
        if (a0 != 1 && a0 != 2) {
            regs[RegA0] = errBadf;
            break;
        }
        if (a2 > 1024) {
            regs[RegA0] = errInval;
            break;
        }
        uint64_t total = 0;
        for (uint64_t i = 0; i < a2; ++i) {
            const uint64_t base = mem.read(a1 + 16 * i, 8);
            const uint64_t len = mem.read(a1 + 16 * i + 8, 8);
            appendGuestBytes(mem, base, len, output, pc);
            total += len;
        }
        regs[RegA0] = total;
        break;
      }

      case SysRead: { // read(fd, buf, len)
        if (a0 != 0) {
            regs[RegA0] = errBadf;
            break;
        }
        const uint64_t remaining = stdinData.size() - stdinPos;
        const uint64_t count = std::min(a2, remaining);
        if (count > 0) {
            mem.writeBlock(a1, stdinData.data() + stdinPos, count);
            stdinPos += count;
            res.writeAddr = a1;
            res.writeLen = count;
        }
        regs[RegA0] = count;
        break;
      }

      case SysBrk: { // brk(addr)
        if (a0 == 0 || a0 < brkBase) {
            // Query, or an attempt to shrink below the heap floor:
            // report the current break unchanged (Linux semantics).
            regs[RegA0] = brk;
            break;
        }
        if (a0 > brkLimit)
            fatal("brk(0x%llx) at pc 0x%llx reaches beyond the guest "
                  "heap limit 0x%llx: the simulator backs guest "
                  "memory with a 128 MiB low arena whose top is "
                  "reserved for the stack, and refuses to spill the "
                  "heap into the sparse high-page map",
                  (unsigned long long)a0, (unsigned long long)pc,
                  (unsigned long long)brkLimit);
        brk = a0;
        regs[RegA0] = brk;
        break;
      }

      case SysFstat: { // fstat(fd, statbuf)
        if (a0 > 2) {
            regs[RegA0] = errBadf;
            break;
        }
        // A minimal riscv64 struct stat describing a character
        // device (what a tty looks like): st_mode = S_IFCHR | 0620,
        // st_nlink = 1, st_blksize = 4096, everything else zero.
        uint8_t stat[statSize] = {};
        const uint32_t mode = 0x2000 | 0620;
        std::memcpy(stat + 16, &mode, 4);
        const uint32_t nlink = 1;
        std::memcpy(stat + 20, &nlink, 4);
        const uint32_t blksize = 4096;
        std::memcpy(stat + 56, &blksize, 4);
        mem.writeBlock(a1, stat, statSize);
        res.writeAddr = a1;
        res.writeLen = statSize;
        regs[RegA0] = 0;
        break;
      }

      case SysClockGettime: { // clock_gettime(clockid, ts)
        // Deterministic clock: 1 ms per query, never the host's.
        ++clockTicks;
        const uint64_t ns = clockTicks * 1'000'000;
        mem.write(a1, ns / 1'000'000'000, 8);
        mem.write(a1 + 8, ns % 1'000'000'000, 8);
        res.writeAddr = a1;
        res.writeLen = 16;
        regs[RegA0] = 0;
        break;
      }

      case SysGettimeofday: { // gettimeofday(tv, tz)
        ++clockTicks;
        const uint64_t us = clockTicks * 1'000;
        mem.write(a0, us / 1'000'000, 8);
        mem.write(a0 + 8, us % 1'000'000, 8);
        res.writeAddr = a0;
        res.writeLen = 16;
        regs[RegA0] = 0;
        break;
      }

      case SysIoctl:
        regs[RegA0] = errNotty;
        break;
      case SysLseek:
        regs[RegA0] = errSpipe;
        break;
      case SysClose:
        regs[RegA0] = 0;
        break;
      case SysSetRobustList:
        regs[RegA0] = 0;
        break;
      case SysSetTidAddress:
      case SysGetpid:
      case SysGettid:
        regs[RegA0] = 1;
        break;
      case SysGetuid:
      case SysGeteuid:
      case SysGetgid:
      case SysGetegid:
        regs[RegA0] = 0;
        break;

      default:
        fatal("unsupported ecall %llu at pc 0x%llx",
              (unsigned long long)call, (unsigned long long)pc);
    }
    return res;
}

} // namespace helios
