/**
 * @file
 * Core configuration (Table II equivalent) and fusion modes.
 */

#ifndef UARCH_PARAMS_HH
#define UARCH_PARAMS_HH

#include <cstdint>
#include <string>

namespace helios
{

/**
 * The five evaluated configurations (Section V-A) plus the baseline.
 */
enum class FusionMode : uint8_t
{
    None,          ///< no fusion at all (normalization baseline)
    RiscvFusion,   ///< non-memory Table I idioms, consecutive only
    CsfSbr,        ///< consecutive contiguous same-base memory pairs
    RiscvFusionPP, ///< all Table I idioms, consecutive only
    Helios,        ///< RiscvFusionPP + predictive NCSF/NCTF/DBR
    Oracle,        ///< Helios with an address oracle as its predictor
};

const char *fusionModeName(FusionMode mode);
FusionMode fusionModeFromName(const std::string &name);

/** Fusion predictor organization (Section IV-A2 offers alternatives). */
enum class FpKind : uint8_t
{
    Tournament, ///< the paper's local+global+selector design
    Tage,       ///< TAGE-organized alternative the paper points at
};

/**
 * Machine parameters, modeled after an Intel Icelake-class core with a
 * widened 8-wide front end so that the Allocation Queue fills
 * (Section V-A).
 */
struct CoreParams
{
    // Widths.
    unsigned fetchWidth = 8;
    unsigned renameWidth = 5;
    unsigned dispatchWidth = 5;
    unsigned commitWidth = 8;

    // Structure sizes (bit-count accounting in Section IV matches
    // AQ=140, IQ=160, LQ=128, ROB=352).
    unsigned aqSize = 140;
    unsigned robSize = 352;
    unsigned iqSize = 160;
    unsigned lqSize = 128;
    unsigned sqSize = 72;
    /** Effectively unconstrained, as in the paper's model: the window
     *  is bounded by ROB/IQ/LQ/SQ, which is what fusion relieves. */
    unsigned numPhysRegs = 1024;

    // Front end.
    unsigned frontendDepth = 4;       ///< decode pipe stages
    unsigned mispredictPenalty = 14;  ///< redirect-to-decode bubbles

    // Issue ports.
    unsigned aluPorts = 4;
    unsigned mulPorts = 1;
    unsigned divPorts = 1;
    unsigned loadPorts = 2;
    unsigned storePorts = 2;
    unsigned branchPorts = 2;

    // Latencies (cycles).
    unsigned aluLatency = 1;
    unsigned mulLatency = 3;
    unsigned divLatency = 20;
    unsigned l1Latency = 5;
    unsigned l2Latency = 14;
    unsigned l3Latency = 40;
    unsigned memLatency = 200;
    unsigned forwardLatency = 6;      ///< store-to-load forwarding
    unsigned lineCrossPenalty = 1;    ///< Section II-B

    // Caches.
    unsigned l1iBytes = 32 * 1024, l1iWays = 8;
    unsigned l1dBytes = 48 * 1024, l1dWays = 12;
    unsigned l2Bytes = 512 * 1024, l2Ways = 8;
    unsigned l3Bytes = 2 * 1024 * 1024, l3Ways = 16;
    unsigned lineBytes = 64;

    // Fusion.
    FusionMode fusion = FusionMode::None;
    unsigned fusionRegionBytes = 64;  ///< cache access granularity
    unsigned maxFusionDistance = 64;  ///< µ-ops (UCH window)
    unsigned ncsfNestDepth = 2;       ///< concurrent pending NCSF'd µ-ops
    FpKind fpKind = FpKind::Tournament;

    /** The paper omits different-base-register store pairs (they are
     *  0.54% of fused stores and would need a 4th source register);
     *  this knob enables them so the ablation can test that claim. */
    bool fuseDbrStorePairs = false;

    // Run control.
    uint64_t maxCycles = UINT64_MAX;

    /** Attach a PipelineAuditor to harness-level runs (runOne and the
     *  differential harness honor this). Other observers, such as the
     *  µ-op lifecycle tracer, attach to a Pipeline directly. */
    bool audit = false;

    /** Sample telemetry histograms into stats(): per-cycle ROB/IQ/
     *  LQ/SQ occupancy, fusion-pair distance at commit, and predictor
     *  component agreement at fuse decisions. Off by default so
     *  figure-scale sweeps pay nothing. */
    bool sampleHistograms = false;

    /** Attach a FusionProfiler (src/telemetry/profiler.*): per-static-
     *  PC fusion-site counters, missed-opportunity attribution via a
     *  commit-time oracle pair-finder, and windowed time-series
     *  samples. Off by default; a profiled run is bit-identical to an
     *  unprofiled one (tier-1 checked). */
    bool profile = false;

    /** Time-series sampling interval in cycles for the profiler
     *  (0: no windowed samples, per-site aggregates only). */
    uint64_t profileWindowCycles = 0;

    /** Recycle µ-op pool slots (the production fast path). The false
     *  setting is a debug fallback that gives every fetched µ-op a
     *  pristine, never-reused slot, for bisecting suspected recycling
     *  bugs: both settings must produce bit-identical runs
     *  (tests/test_perf_structures.cc). */
    bool poolRecycling = true;

    /** The paper's configuration with a given fusion mode. */
    static CoreParams
    icelake(FusionMode mode)
    {
        CoreParams params;
        params.fusion = mode;
        return params;
    }
};

/**
 * Canonical FNV-1a digest of a configuration: every field that can
 * move a simulated number — widths, structure sizes, ports,
 * latencies, cache geometry, and the whole fusion design point —
 * folded over a stable `name=value;` text form, so the digest is
 * independent of struct layout, padding and compiler.
 *
 * Deliberately excluded: pure observers (audit, histogram sampling,
 * profiling, pool-recycling debug mode), which are
 * tier-1-guaranteed not to change any result, and the run-control
 * budget (maxCycles), which the run ledger keys separately. Two runs
 * with equal (program hash, config hash, budget) are bit-identical
 * replays of each other.
 */
uint64_t configHash(const CoreParams &params);

} // namespace helios

#endif // UARCH_PARAMS_HH
