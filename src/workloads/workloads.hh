/**
 * @file
 * The workload suite.
 *
 * The paper evaluates SPEC CPU 2017 and MiBench binaries; this repo
 * substitutes self-checking RISC-V assembly kernels, one per paper
 * application, that reproduce each application's dominant instruction-
 * level patterns (see DESIGN.md §1). Every kernel ends with
 * `li a7, 93; ecall` returning a checksum in a0, and carries a C++
 * reference implementation of the same algorithm so the test suite can
 * verify that the assembler + functional simulator compute the right
 * architectural result.
 */

#ifndef WORKLOADS_WORKLOADS_HH
#define WORKLOADS_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "asm/program.hh"

namespace helios
{

/** Benchmark suite a workload belongs to (matches the paper's split). */
enum class Suite
{
    Spec,
    MiBench,
};

/** One benchmark kernel. */
struct Workload
{
    std::string name;         ///< paper application name, e.g. "605.mcf_s"
    Suite suite;
    std::string description;  ///< which pattern of the original it mimics
    std::string source;       ///< RISC-V assembly text

    /** C++ reference computing the expected exit checksum. */
    std::function<uint64_t()> reference;

    /**
     * Alternative program factory: when set, program() calls this
     * instead of assembling `source`. ELF-loaded workloads
     * (harness/elf_image.hh: makeElfWorkload) use it to ride every
     * harness — runOne, runMatrix, the differential sweeps — without
     * the harness knowing where the program came from. Last member,
     * with a default, so the suite's positional aggregate initializers
     * stay valid and complete.
     */
    std::function<Program()> makeProgram = {};

    /** Assemble the kernel (or run makeProgram when set). */
    Program program() const;
};

/** The full suite, in the paper's listing order. */
const std::vector<Workload> &allWorkloads();

/** Look up one workload by name; fatal() if unknown. */
const Workload &findWorkload(const std::string &name);

/** Names of all workloads (for harness/bench iteration). */
std::vector<std::string> workloadNames();

namespace workload_detail
{

/** The LCG all kernels use for deterministic data generation. */
constexpr uint64_t lcgMul = 6364136223846793005ULL;
constexpr uint64_t lcgAdd = 1442695040888963407ULL;

inline uint64_t
lcgNext(uint64_t &state)
{
    state = state * lcgMul + lcgAdd;
    return state;
}

/** Replace every occurrence of `{KEY}` in @a text. */
std::string substitute(std::string text, const std::string &key,
                       uint64_t value);

/** Registered by each workloads_*.cc translation unit. */
std::vector<Workload> specWorkloads();
std::vector<Workload> mibenchWorkloads();
std::vector<Workload> mibenchWorkloads2();

} // namespace workload_detail

} // namespace helios

#endif // WORKLOADS_WORKLOADS_HH
