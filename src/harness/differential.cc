#include "harness/differential.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "asm/assembler.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "harness/elf_image.hh"
#include "sim/hart.hh"
#include "sim/memory.hh"
#include "uarch/auditor.hh"

namespace helios
{

std::string
DiffViolation::toJson() const
{
    std::ostringstream out;
    out << "{\"workload\":\"" << jsonEscape(workload) << "\""
        << ",\"mode\":\"" << fusionModeName(mode) << "\""
        << ",\"check\":\"" << jsonEscape(check) << "\""
        << ",\"seq\":" << seq << ",\"cycle\":" << cycle
        << ",\"detail\":\"" << jsonEscape(detail) << "\"}";
    return out.str();
}

std::string
DiffReport::toJson() const
{
    std::ostringstream out;
    out << "{\"ok\":" << (ok() ? "true" : "false")
        << ",\"audited\":" << (audited ? "true" : "false")
        << ",\"workloads\":" << workloads.size()
        << ",\"modes\":[";
    for (size_t m = 0; m < modes.size(); ++m)
        out << (m ? "," : "") << "\"" << fusionModeName(modes[m]) << "\"";
    out << "],\"violations\":[";
    for (size_t v = 0; v < violations.size(); ++v)
        out << (v ? "," : "") << violations[v].toJson();
    out << "],\"results\":[";
    for (size_t r = 0; r < results.size(); ++r) {
        const RunResult &res = results[r];
        out << (r ? "," : "")
            << "{\"workload\":\"" << jsonEscape(res.workload) << "\""
            << ",\"mode\":\"" << fusionModeName(res.mode) << "\""
            << ",\"cycles\":" << res.cycles
            << ",\"instructions\":" << res.instructions
            << ",\"uops\":" << res.uops
            << ",\"ipc\":" << res.ipc() << "}";
    }
    out << "]}";
    return out.str();
}

DiffReport
runDifferential(const std::vector<const Workload *> &workloads,
                const DiffOptions &opts)
{
    if (opts.modes.size() < 2)
        fatal("differential run needs at least two fusion modes "
              "(got %zu)", opts.modes.size());

    const size_t num_modes = opts.modes.size();

    std::vector<MatrixCell> cells;
    cells.reserve(workloads.size() * num_modes);
    for (const Workload *workload : workloads) {
        helios_assert(workload, "differential cell without a workload");
        for (FusionMode mode : opts.modes) {
            CoreParams params = CoreParams::icelake(mode);
            params.audit = opts.audit;
            cells.emplace_back(*workload, params, opts.maxInsts);
        }
    }

    DiffReport report;
    report.modes = opts.modes;
    report.audited = opts.audit;
    for (const Workload *workload : workloads)
        report.workloads.push_back(workload->name);
    report.results = runMatrix(cells, opts.jobs);

    auto add = [&report](const RunResult &res, std::string check,
                         std::string detail, uint64_t seq = 0,
                         uint64_t cycle = 0) {
        DiffViolation violation;
        violation.workload = res.workload;
        violation.mode = res.mode;
        violation.check = std::move(check);
        violation.detail = std::move(detail);
        violation.seq = seq;
        violation.cycle = cycle;
        report.violations.push_back(std::move(violation));
    };

    for (size_t w = 0; w < workloads.size(); ++w) {
        const RunResult &base = report.result(w, 0);
        for (size_t m = 0; m < num_modes; ++m) {
            const RunResult &res = report.result(w, m);
            std::ostringstream detail;

            // (a) identical final architectural state.
            if (res.archChecksum != base.archChecksum ||
                res.exited != base.exited ||
                res.exitCode != base.exitCode) {
                detail << "arch checksum 0x" << std::hex
                       << res.archChecksum << " != baseline 0x"
                       << base.archChecksum << std::dec << " (exited "
                       << res.exited << "/" << base.exited << ")";
                add(res, "arch_state", detail.str());
            } else if (res.memChecksum != base.memChecksum) {
                detail << "memory checksum 0x" << std::hex
                       << res.memChecksum << " != baseline 0x"
                       << base.memChecksum << std::dec;
                add(res, "mem_state", detail.str());
            }

            // (b) committed counts: the pipeline must commit exactly
            // the architectural instructions the hart executed, and
            // every mode must agree.
            if (res.instructions != res.hartInstructions) {
                detail.str("");
                detail << "committed " << res.instructions
                       << " instructions, hart executed "
                       << res.hartInstructions;
                add(res, "commit_count", detail.str());
            } else if (res.instructions != base.instructions) {
                detail.str("");
                detail << "committed " << res.instructions
                       << " instructions, baseline committed "
                       << base.instructions;
                add(res, "commit_count", detail.str());
            }

            // (c) fused configurations must not run slower than the
            // unfused baseline beyond the tolerance.
            if (m > 0 &&
                res.ipc() < base.ipc() * (1.0 - opts.ipcTolerance)) {
                detail.str("");
                detail << "ipc " << res.ipc() << " below baseline "
                       << base.ipc() << " - " << opts.ipcTolerance * 100
                       << "%";
                add(res, "ipc_regression", detail.str());
            }

            // (d) per-run invariant audit.
            for (const AuditViolation &av : res.auditViolations)
                add(res, "audit." + av.invariant, av.detail, av.seq,
                    av.cycle);
        }
    }

    return report;
}

DiffReport
runDifferentialAll(const DiffOptions &opts)
{
    std::vector<const Workload *> workloads;
    for (const Workload &workload : allWorkloads())
        workloads.push_back(&workload);
    return runDifferential(workloads, opts);
}

std::string
EngineDiffViolation::toJson() const
{
    std::ostringstream out;
    out << "{\"workload\":\"" << jsonEscape(workload) << "\""
        << ",\"check\":\"" << jsonEscape(check) << "\""
        << ",\"seq\":" << seq
        << ",\"detail\":\"" << jsonEscape(detail) << "\"}";
    return out.str();
}

std::string
EngineDiffReport::toJson() const
{
    std::ostringstream out;
    out << "{\"ok\":" << (ok() ? "true" : "false")
        << ",\"workloads\":" << workloads.size()
        << ",\"traced_instructions\":" << tracedInstructions
        << ",\"untraced_instructions\":" << untracedInstructions
        << ",\"untraced_stops\":" << untracedStops
        << ",\"violations\":[";
    for (size_t v = 0; v < violations.size(); ++v)
        out << (v ? "," : "") << violations[v].toJson();
    out << "]}";
    return out.str();
}

const Workload &
smcPatchWorkload()
{
    static const Workload workload = [] {
        Workload w;
        w.name = "smc_patch";
        w.suite = Suite::MiBench;
        w.description =
            "self-modifying loop: rewrites its addi immediate in text "
            "every iteration (decoder-cache invalidation stress)";
        // Each iteration executes `addi t1, zero, <imm>`, folds t1
        // into the checksum, then stores a freshly encoded word over
        // that very addi, setting <imm> to the loop counter:
        // (imm << 20) | (rd=t1 << 7) | 0x13.
        w.source = R"(
            li s0, 0
            li s1, 64
            la t0, patch
        loop:
        patch:
            addi t1, zero, 0
            add s0, s0, t1
            slli t2, s1, 20
            li t3, 0x313
            or t2, t2, t3
            sw t2, 0(t0)
            addi s1, s1, -1
            bnez s1, loop
            mv a0, s0
            li a7, 93
            ecall
        )";
        w.reference = [] {
            uint64_t sum = 0;
            uint64_t imm = 0;
            for (int i = 64; i >= 1; --i) {
                sum += imm;
                imm = uint64_t(i);
            }
            return sum;
        };
        return w;
    }();
    return workload;
}

EngineDiffReport
runEngineDifferential(const std::vector<const Workload *> &workloads,
                      uint64_t max_insts, uint64_t traced_insts)
{
    // Largest runFast() budget between two compared stops.
    constexpr int64_t max_chunk = 64;

    EngineDiffReport report;
    for (const Workload *workload : workloads) {
        report.workloads.push_back(workload->name);
        const auto add = [&](const std::string &check,
                             const std::string &detail,
                             uint64_t seq = 0) {
            report.violations.push_back(
                {workload->name, check, detail, seq});
        };
        std::ostringstream detail;
        const Program prog = workload->program();

        // 1. Traced lockstep: step() must emit byte-identical DynInst
        // records to the oracle's, in program order.
        {
            Memory ref_mem, step_mem;
            Hart ref(ref_mem), stepper(step_mem);
            ref.reset(prog);
            stepper.reset(prog);
            DynInst a, b;
            for (uint64_t n = 0; n < traced_insts; ++n) {
                const bool more_ref = ref.referenceStep(a);
                const bool more_step = stepper.step(b);
                if (more_ref != more_step) {
                    detail.str("");
                    detail << "after " << n << " records "
                           << (more_ref ? "step()" : "the oracle")
                           << " exited first";
                    add("trace_length", detail.str(), n);
                    break;
                }
                if (!more_ref)
                    break;
                ++report.tracedInstructions;
                if (a.seq != b.seq || a.pc != b.pc ||
                    a.nextPc != b.nextPc || a.effAddr != b.effAddr ||
                    a.taken != b.taken || a.inst.op != b.inst.op ||
                    a.inst.rd != b.inst.rd ||
                    a.inst.rs1 != b.inst.rs1 ||
                    a.inst.rs2 != b.inst.rs2 ||
                    a.inst.imm != b.inst.imm ||
                    a.inst.raw != b.inst.raw) {
                    detail.str("");
                    detail << "DynInst diverges at seq " << a.seq
                           << ": oracle pc 0x" << std::hex << a.pc
                           << " raw 0x" << a.inst.raw << ", step pc 0x"
                           << b.pc << " raw 0x" << b.inst.raw;
                    add("dyninst_stream", detail.str(), a.seq);
                    break;
                }
            }
        }

        // 2. Chunked untraced run: runFast() stops after a seeded
        // random number of instructions, and the oracle must agree at
        // every stop.
        Memory ref_mem, fast_mem;
        Hart ref(ref_mem), fast(fast_mem);
        ref.reset(prog);
        fast.reset(prog);
        Rng rng(prog.sourceHash);
        DynInst rec;
        uint64_t executed = 0;
        while (executed < max_insts && !ref.exited()) {
            const uint64_t chunk = std::min<uint64_t>(
                uint64_t(rng.range(1, max_chunk)), max_insts - executed);
            const uint64_t fast_n = fast.runFast(chunk);
            uint64_t ref_n = 0;
            while (ref_n < chunk && ref.referenceStep(rec))
                ++ref_n;
            executed += ref_n;
            ++report.untracedStops;
            const uint64_t seq = ref.instsExecuted();
            if (fast_n != ref_n ||
                fast.instsExecuted() != ref.instsExecuted()) {
                detail.str("");
                detail << "runFast(" << chunk << ") executed " << fast_n
                       << " to seq " << fast.instsExecuted()
                       << ", the oracle " << ref_n << " to seq " << seq;
                add("inst_count", detail.str(), seq);
                break;
            }
            // archChecksum() covers the registers, pc, exit state and
            // output; the pc and exit state are named for the message.
            if (fast.archChecksum() != ref.archChecksum()) {
                detail.str("");
                detail << "oracle pc 0x" << std::hex << ref.pc()
                       << " exit (" << ref.exited() << ", "
                       << ref.exitCode() << ") checksum 0x"
                       << ref.archChecksum() << ", runFast pc 0x"
                       << fast.pc() << " exit (" << fast.exited() << ", "
                       << fast.exitCode() << ") checksum 0x"
                       << fast.archChecksum();
                add("arch_state", detail.str(), seq);
                break;
            }
        }
        report.untracedInstructions += executed;
        if (ref_mem.checksum() != fast_mem.checksum()) {
            detail.str("");
            detail << "memory checksum 0x" << std::hex
                   << ref_mem.checksum() << " vs 0x"
                   << fast_mem.checksum();
            add("mem_state", detail.str());
        }
    }
    return report;
}

const Workload &
elfChecksumWorkload()
{
    static const Workload workload = [] {
        // The kernel is assembled in-process, packed into a static
        // ELF64 image and re-loaded through the real ELF frontend, so
        // the differential sweeps cover the loader + Linux-ABI start
        // stack + ecall shim exactly the way `helios_run --elf` does.
        // It exercises write(2) to the captured stdout, brk(2) heap
        // growth with stores/loads through the new break, and a
        // checksum loop whose result is the exit code.
        const Program prog = assemble(R"(
            la a1, msg
            li a7, 64
            li a0, 1
            li a2, 4
            ecall            # write "elf\n" -> 4

            li a7, 214
            li a0, 0
            ecall            # query the current program break
            mv s2, a0
            addi a0, a0, 1024
            li a7, 214
            ecall            # grow the heap by 1 KiB

            li s0, 0
            li s1, 32
            mv t1, s2
        loop:
            slli t2, s1, 3
            add t3, t2, s1   # value = 9 * i
            sd t3, 0(t1)
            ld t4, 0(t1)
            add s0, s0, t4
            addi t1, t1, 8
            addi s1, s1, -1
            bnez s1, loop
            mv a0, s0
            li a7, 93
            ecall
            .data
        msg:
            .asciz "elf\n"
        )");
        Workload w = makeElfWorkload(
            "elf_checksum",
            "ELF-loaded kernel: write + brk ecalls feeding a heap "
            "checksum loop (loader/shim differential coverage)",
            buildElfImage(prog));
        w.reference = [] {
            uint64_t sum = 0;
            for (uint64_t i = 1; i <= 32; ++i)
                sum += 9 * i;
            return sum;
        };
        return w;
    }();
    return workload;
}

EngineDiffReport
runEngineDifferentialAll(uint64_t max_insts, uint64_t traced_insts)
{
    std::vector<const Workload *> workloads;
    for (const Workload &workload : allWorkloads())
        workloads.push_back(&workload);
    workloads.push_back(&smcPatchWorkload());
    workloads.push_back(&elfChecksumWorkload());
    return runEngineDifferential(workloads, max_insts, traced_insts);
}

} // namespace helios
