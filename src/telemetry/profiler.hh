/**
 * @file
 * Per-static-PC fusion-site profiling.
 *
 * The FusionProfiler aggregates, from the pipeline's commit/squash
 * hooks, everything the whole-run counters collapse: which static
 * sites carry the fusion coverage, where the cycles go (reusing the
 * exact per-cycle CPI attribution, keyed to the blocked ROB-head
 * µ-op's PC), and — through an oracle pair-finder running alongside
 * the predictor at commit — *why* each oracle-visible pair the
 * machine did not fuse was missed. Each missed pair is tagged with
 * exactly one MissReason, so the reasons partition the
 * oracle-minus-predictor coverage gap per site (the paper's
 * 12.2%-vs-13.6% story, decomposed).
 *
 * Like the LifecycleTracer, the profiler is a passive PipelineObserver
 * (uarch/observer.hh): the pipeline builds and attaches one only when
 * CoreParams::profile is set, and the profiler writes no counters into
 * the pipeline's StatGroup — a profiled run is bit-identical to an
 * unprofiled one (tier-1 checked).
 */

#ifndef TELEMETRY_PROFILER_HH
#define TELEMETRY_PROFILER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "uarch/observer.hh"
#include "uarch/params.hh"

namespace helios
{

/**
 * Committed fused-pair classes, the profiler's refinement of the
 * aggregate pairs.* counters. The five classes partition every
 * committed pair:
 *
 *  - Csf:  non-memory Table I idiom (aggregate pairs.csf_other);
 *  - Sbr:  decode-time consecutive same-base memory pair
 *          (FusionKind::CsfMem);
 *  - Nctf: AQ-time memory pair that turned out runtime-consecutive
 *          (distance 1) — the temporal machinery finding pairs static
 *          decode missed;
 *  - Ncsf: AQ-time same-base memory pair at distance > 1;
 *  - Dbr:  AQ-time different-base-register pair at distance > 1.
 *
 * Sbr + Nctf is the aggregate pairs.csf_mem; Ncsf + Dbr is the
 * aggregate pairs.ncsf (tier-1 asserts both identities per site sum).
 */
enum class PairClass : uint8_t
{
    Csf,
    Sbr,
    Ncsf,
    Nctf,
    Dbr,
};

constexpr size_t kNumPairClasses = 5;

const char *pairClassName(PairClass cls);

/**
 * Why an oracle-visible pair was not fused. Assigned by a strict
 * priority chain over the committing (unfused) tail µ-op, so every
 * missed pair lands in exactly one class and the per-reason counts
 * sum to the total number of missed pairs:
 *
 *  1. QueueCapacity: the pair was predicted and fused, but broken
 *     because every NCSF nest level was busy (fp_nest_limited);
 *  2. CatalystInterference: predicted and fused, but broken by the
 *     catalyst window (deadlock, store-in-catalyst, serializing, or
 *     a late RaW through a catalyst load);
 *  3. DistanceOverLimit: the oracle partner sits further away than
 *     the predictor's distance field can express;
 *  4. ColdSite: the predictor produced no confident prediction at
 *     this site (covers every non-Helios mode wholesale);
 *  5. PredictorDisagreement: a confident prediction existed but the
 *     pair still failed to materialize (wrong distance, head already
 *     fused, statically dependent, DBR store, ...).
 */
enum class MissReason : uint8_t
{
    QueueCapacity,
    CatalystInterference,
    DistanceOverLimit,
    ColdSite,
    PredictorDisagreement,
};

constexpr size_t kNumMissReasons = 5;

const char *missReasonName(MissReason reason);

/** Everything the profiler knows about one static PC. */
struct ProfileSite
{
    uint64_t pc = 0;

    /** Committed architectural instructions at this PC (a fused pair
     *  contributes one execution at the head PC and one at the tail
     *  PC). */
    uint64_t executions = 0;
    uint64_t squashes = 0;

    /** Committed fused pairs headed at this PC, by class. */
    std::array<uint64_t, kNumPairClasses> fused{};
    /** Committed fused pairs whose *tail* nucleus lives here. */
    uint64_t fusedTail = 0;

    /** Predictor activity keyed to the tail (prediction) site. */
    uint64_t attempts = 0;
    uint64_t mispredicts = 0;
    std::map<std::string, uint64_t> breaks; ///< unfuse reason -> count

    /** Oracle-only pairs whose tail committed here, by reason. */
    std::array<uint64_t, kNumMissReasons> missed{};

    /** Cycles the exact CPI attribution charged to a blocked ROB head
     *  at this PC, by cpi.* category. */
    std::map<std::string, uint64_t> stalls;

    uint64_t fusedPairs() const;
    uint64_t missedPairs() const;
    uint64_t stallCycles() const;

    /** Fraction of this line's executions that committed inside a
     *  fused pair (head or tail). */
    double coverage() const;

    /** cpi.* category with the most attributed cycles ("" if none). */
    std::string dominantStall() const;

    JsonValue toJson() const;
    static ProfileSite fromJson(const JsonValue &value);

    bool operator==(const ProfileSite &other) const = default;
};

/** One windowed time-series sample. */
struct ProfileWindow
{
    uint64_t startCycle = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t uops = 0;
    uint64_t fusedPairs = 0;
    std::map<std::string, uint64_t> cpi; ///< per-window cycle accounting

    double
    ipc() const
    {
        return cycles ? double(instructions) / double(cycles) : 0.0;
    }

    double
    coverage() const
    {
        return instructions
                   ? 2.0 * double(fusedPairs) / double(instructions)
                   : 0.0;
    }

    JsonValue toJson() const;
    static ProfileWindow fromJson(const JsonValue &value);

    bool operator==(const ProfileWindow &other) const = default;
};

/**
 * The profiler's serializable result: per-site aggregates, windowed
 * time-series, and the run-level totals the invariants are checked
 * against. Round-trips losslessly through the RunReport v2 JSON
 * schema (save -> parse -> operator== holds).
 */
struct ProfileData
{
    uint64_t windowCycles = 0; ///< sampling interval (0: no windows)
    uint64_t totalCycles = 0;

    std::array<uint64_t, kNumPairClasses> fusedTotals{};
    std::array<uint64_t, kNumMissReasons> missedTotals{};

    std::vector<ProfileSite> sites;     ///< sorted by pc
    std::vector<ProfileWindow> windows; ///< in time order

    const ProfileSite *find(uint64_t pc) const;
    uint64_t fusedPairs() const;
    uint64_t missedPairs() const;

    JsonValue toJson() const;
    static ProfileData fromJson(const JsonValue &value);

    bool operator==(const ProfileData &other) const = default;
};

/**
 * Collects ProfileData from the pipeline's events; onFinish() closes
 * the last window and freezes the data.
 */
class FusionProfiler final : public PipelineObserver
{
  public:
    explicit FusionProfiler(const CoreParams &params);

    // ---- PipelineObserver events (see observer.hh) ----
    /** Charges the cycle's cpi.* category to the window, and to the
     *  blocked ROB head's site. */
    void onCycleEnd(const CycleView &view) override;
    /** Also runs the oracle pair-finder. */
    void onCommit(const Uop &uop, uint64_t cycle) override;
    void onSquash(const Uop &uop, uint64_t cycle,
                  const char *reason) override;
    void onPredictorAttempt(uint64_t tail_pc) override;
    void onPredictorMispredict(uint64_t tail_pc) override;
    void onPredictorBreak(uint64_t tail_pc, ProfBreak reason) override;
    /** Flushes the last window and sorts the sites. */
    void onFinish(bool drained, uint64_t cycle) override;

    /** Valid after onFinish(). */
    const ProfileData &data() const { return result; }

  private:
    /** One committed memory nucleus in the oracle finder's window. */
    struct Nucleus
    {
        uint64_t seq = 0;
        bool isStore = false;
        uint64_t begin = 0;
        uint64_t end = 0;
        uint8_t baseReg = 0;
        uint8_t rd = 0;
        bool writesRd = false;
        bool fused = false;   ///< committed as part of a fused pair
        bool claimed = false; ///< already the head of an oracle pair
    };

    ProfileSite &site(uint64_t pc);
    void closeWindow();
    void oracleScan(const Uop &uop);
    MissReason classifyMiss(const Uop &uop, uint64_t distance) const;
    void pushNucleus(const DynInst &dyn, bool fused);

    // Configuration mirrored from CoreParams at attach time.
    uint64_t oracleDistance;    ///< eligibility window (UCH reach)
    uint64_t predictorDistance; ///< what the predictor can express
    uint64_t regionBytes;
    bool fuseDbrStores;
    uint64_t windowCycles;

    std::unordered_map<uint64_t, ProfileSite> siteMap;
    std::deque<Nucleus> window;

    ProfileWindow current;
    uint64_t cyclesSeen = 0;
    bool finalized = false;

    ProfileData result;
};

} // namespace helios

#endif // TELEMETRY_PROFILER_HH
