/**
 * @file
 * The cycle-level out-of-order core.
 *
 * A seven-stage model (Fetch, Decode, Allocation Queue, Rename,
 * Dispatch, Issue/Execute, Commit) in the style of González et al.,
 * configured as an Icelake-class machine (Table II). The pipeline is
 * trace-driven: it consumes the committed dynamic instruction stream
 * from the functional simulator and models speculation as front-end
 * bubbles plus squash/replay of in-flight work (DESIGN.md §6).
 *
 * All fusion flavours live here: consecutive fusion at Decode, the
 * Helios predictive NCSF/NCTF/DBR machinery across AQ / Rename /
 * Dispatch / Execute / Commit, and the address oracle that drives the
 * same machinery in OracleFusion mode.
 */

#ifndef UARCH_PIPELINE_HH
#define UARCH_PIPELINE_HH

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/ring.hh"
#include "common/stats.hh"
#include "fusion/fusion_predictor.hh"
#include "fusion/uch.hh"
#include "sim/trace.hh"
#include "uarch/branch_pred.hh"
#include "uarch/cache.hh"
#include "uarch/mem_filter.hh"
#include "uarch/observer.hh"
#include "uarch/params.hh"
#include "uarch/storeset.hh"
#include "uarch/uop.hh"
#include "uarch/uop_pool.hh"

namespace helios
{

class FusionProfiler;
class HartFeed;
class Histogram;
class PipelineAuditor;

/** Slots in the pipeline's seq-indexed rings (see pipeline.cc); the
 *  auditor sizes its record ring from it. */
uint64_t inflightRingSize(const CoreParams &params);

/** Result summary of a pipeline run. */
struct PipelineResult
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t uops = 0;

    double
    ipc() const
    {
        return cycles ? double(instructions) / double(cycles) : 0.0;
    }
};

class Pipeline
{
  public:
    Pipeline(const CoreParams &params, HartFeed &feed);
    ~Pipeline();

    /** Run until the feed is exhausted and the pipeline drains. A
     *  cycle in which no stage moves anything repeats until the next
     *  due event, so run() counts those cycles without running the
     *  stages; every stat and observer still sees each one. */
    PipelineResult run();

    /** Statistics collected during run(). */
    const StatGroup &stats() const { return statGroup; }
    StatGroup &stats() { return statGroup; }

    /** Send every event of run() to @a observer as well (non-owning;
     *  must outlive run()). */
    void attach(PipelineObserver *observer)
    {
        observers.push_back(observer);
    }

    /** attach() under its older name, which perfbench/workloads.cc
     *  still calls. Defined in auditor.cc, so this header and
     *  pipeline.cc need not know the auditor. */
    void attachAuditor(PipelineAuditor *auditor);

    /** Per-PC fusion-site profile, when CoreParams::profile asked for
     *  one (nullptr otherwise). Finalized when run() returns. */
    const FusionProfiler *fusionProfiler() const
    {
        return profiler.get();
    }

    /**
     * Warmup/measurement split for sampled simulation: a snapshot of
     * the headline counters latched the first cycle the committed
     * instruction count reaches a target. The measured window of an
     * interval cell is then (final totals − snapshot), so warmup
     * cycles never pollute the timed sample. Commit is up to
     * commitWidth wide, so `instructions` records the exact count at
     * the latch (≥ the armed target by at most commitWidth−1);
     * consumers subtract using it, not the target. Pure observer —
     * arming a watch cannot change any simulated number.
     */
    struct CommitWatch
    {
        uint64_t atInsts = 0; ///< armed target (0: disarmed)
        bool taken = false;   ///< snapshot latched
        uint64_t cycles = 0;
        uint64_t instructions = 0;
        uint64_t uops = 0;
        uint64_t fusedPairs = 0; ///< csf_mem + csf_other + ncsf
    };

    /** Arm the commit watch; call before run(). 0 disarms. */
    void armCommitWatch(uint64_t at_insts) { watch.atInsts = at_insts; }

    /** The (possibly latched) watch; valid after run() returns. */
    const CommitWatch &commitWatch() const { return watch; }

  private:
    // ---- per-cycle stages (called in reverse pipeline order) ----
    // Each returns whether it moved anything this cycle (see run()).
    bool commitStage();
    void commitStageImpl();
    bool drainStores();
    bool completeExecution();
    bool issueStage();
    bool dispatchStage();
    /** Room in the ROB, IQ, LQ (for a load) and SQ (for a store) for
     *  one more µ-op; counts the dispatch.stall.* it hits. */
    bool backendHasRoom(bool load, bool store);
    /** Enter the renamed-queue head into the ROB and the IQ/LQ/SQ. */
    void enterBackend(Uop *uop);
    bool renameStage();
    bool aqInsertStage();
    bool fetchStage();

    // ---- quiet cycles ----
    /** Count one cycle of a per-cycle stall (a stage's stall counter,
     *  a commit.blocked.* reason or the cycle's cpi.* charge) and
     *  remember @a stat, so a skipped quiet run charges it too. */
    void stall(Stat &stat);
    /** After a cycle that moved nothing, account each cycle up to the
     *  next one that can differ from it (at most @a limit) as a repeat
     *  of it, and move `cycle` there. */
    void skipQuietCycles(uint64_t limit);
    /** Sample the occupancy histograms @a weight times. */
    void sampleOccupancy(uint64_t weight);
    /** Hand the observers the view of the cycle that just ended. */
    void notifyCycleEnd();
    /** Set one of a µ-op's stage stamps to this cycle. Only observers
     *  read them, so an unobserved run skips the write. */
    void
    stamp(uint64_t &field)
    {
        if (!observers.empty())
            field = cycle;
    }

    // ---- fusion ----
    void applyConsecutiveFusion(std::vector<Uop *> &group);
    bool tryPredictedFusion(Uop *tail);
    FpPrediction oracleLookup(const Uop *tail) const;
    /** Break the predicted pair of tail @a marker before issue: count
     *  @a counter and, if the pair stood until now, stamp @a reason on
     *  the marker and tell the observers (first reason wins). */
    void breakPair(Uop *marker, const char *counter, ProfBreak reason);
    /** The predicted pair fused at @a head resolved wrong: train the
     *  predictor, count fusion.mispredicts and @a counter (when not
     *  null), and tell the observers. */
    void mispredictPair(const Uop *head, const char *counter);
    /** Revert @a head to an unfused µ-op (before it issues), stamping
     *  @a reason as its first break reason. */
    void unfuseInPlace(Uop *head, ProfBreak reason);
    void countFusedPair(const Uop *head);

    /** What a pending pair's catalyst holds at the marker's rename (see
     *  catalystTaint). */
    struct CatalystTaint
    {
        bool deadlock = false; ///< a tail source depends on the head
        bool lateRaw = false;  ///< a tail source hangs off a catalyst load
        bool store = false;       ///< a catalyst µ-op stores
        bool serializing = false; ///< a catalyst µ-op serializes
        bool any() const { return deadlock || lateRaw; }
    };
    CatalystTaint catalystTaint(const Uop *head, const Uop *tail) const;

    // ---- rename helpers ----
    void renameNormal(Uop *uop);
    void renameMarker(Uop *uop);
    bool attachDependency(Uop *consumer, uint64_t producer_seq,
                          int reg);
    void addSourceDependency(Uop *uop, unsigned reg);
    void addStoreSetDependency(Uop *uop);

    // ---- execute helpers ----
    /** Byte range and program position of one store nucleus. */
    struct StoreNucleus
    {
        uint64_t seq = 0;
        uint64_t begin = 0;
        uint64_t end = 0;
    };
    /** Expand a store µ-op into its store nuclei (one, or two when a
     *  store pair fused); returns how many. */
    static int storeNuclei(const Uop &uop, StoreNucleus out[2]);
    unsigned executeStore(Uop *uop);
    bool validateFusedAddresses(Uop *uop);
    /** Issue @a uop: its head half completes after @a head_latency,
     *  its tail half after @a tail_latency. */
    void scheduleSplitCompletion(Uop *uop, unsigned head_latency,
                                 unsigned tail_latency);
    unsigned loadHalfLatency(uint64_t load_seq, uint64_t begin,
                             uint64_t end);
    void maybeReady(Uop *uop);

    // ---- wakeup edges ----
    /** Make @a consumer wait on the half whose chain is @a chain. */
    void addWakeEdge(uint32_t &chain, Uop *consumer);
    /** Wake every µ-op on @a chain and empty it. */
    void wakeDependents(uint32_t &chain);
    /** Unlink the µ-ops at or after @a seq_min from @a chain. */
    void dropWakeEdges(uint32_t &chain, uint64_t seq_min);

    // ---- recovery ----
    /** Ask issueStage to flush from @a seq on (the oldest request of
     *  the cycle wins). */
    void requestFlush(uint64_t seq, const char *reason);
    void squashFrom(uint64_t seq_min, const char *reason);
    void resumeFetchAfter(uint64_t delay);
    /** Point fetch at @a seq, past the replayed seqs whose fused pair
     *  already committed. */
    void fetchFrom(uint64_t seq);

    // ---- bookkeeping ----
    /**
     * O(1) in-flight lookup: seq & inflightMask picks the slot of a
     * direct-mapped ring sized to at least twice the maximum number
     * of in-flight sequence numbers, and the stored µ-op's own seq
     * disambiguates — absent or long-retired seqs (e.g. a committed
     * producer queried by attachDependency) miss on the compare.
     */
    Uop *
    findInflight(uint64_t seq) const
    {
        Uop *uop = inflightSlots[seq & inflightMask];
        return uop && uop->seq == seq ? uop : nullptr;
    }

    void inflightInsert(Uop *uop);
    Uop *inflightErase(uint64_t seq);

    // ---- issue ready list (ascending seq, intrusive links) ----
    void readyInsert(Uop *uop);
    void readyRemove(Uop *uop);

    /**
     * Hot-path counter access for call sites that pass *string
     * literals*: a memo keyed on the literal's address skips the
     * string hash entirely (one pointer compare on the hot path).
     * Safe only because a literal's address is stable for the whole
     * program; never call this with heap or stack storage. A literal
     * seen for the first time looks its name up in the StatGroup by
     * content, so two literals with one name share one Stat, and
     * takes the next free slot from its home slot on. Entries are
     * never evicted: where literals share a home slot, which depends
     * on where the linker puts them, each costs one more compare
     * instead of a string lookup per call. Stat references are
     * stable: StatGroup stores counters in a deque. The per-µop
     * hottest counters skip even this memo via the HotStats
     * references bound at construction.
     */
    Stat &
    literalCounter(const char *name)
    {
        constexpr size_t mask = std::tuple_size_v<LiteralStats> - 1;
        size_t slot = (reinterpret_cast<uintptr_t>(name) >> 3) & mask;
        for (size_t probe = 0; probe <= mask; ++probe) {
            auto &[key, stat] = literalStats[slot];
            if (key == name)
                return *stat;
            if (!key) {
                key = name;
                stat = &statGroup.counter(name);
                return *stat;
            }
            slot = (slot + 1) & mask;
        }
        return statGroup.counter(name);
    }

    const CoreParams params;
    HartFeed &feed;

    /** Send one event to every attached observer. */
    template <typename... Params, typename... Args>
    void
    notify(void (PipelineObserver::*event)(Params...), const Args &...args)
    {
        for (PipelineObserver *observer : observers)
            (observer->*event)(args...);
    }

    std::vector<PipelineObserver *> observers; ///< non-owning
    /** Owned and attached; non-null only when CoreParams::profile is
     *  set. The profiler keeps all data private (no statGroup
     *  counters), so a profiled run's stat dump matches an unprofiled
     *  one. */
    std::unique_ptr<FusionProfiler> profiler;

    StatGroup statGroup;
    /** literalCounter()'s address-keyed memo: a power of two, about
     *  twice the number of literals pipeline.cc counts through it. */
    using LiteralStats = std::array<std::pair<const char *, Stat *>, 128>;
    LiteralStats literalStats{};

    /** Per-µop / per-event counters hot enough to bypass even the
     *  content-hashed cache: bound once in the constructor. */
    struct HotStats
    {
        Stat &fetchUops;
        Stat &fetchBlocked;
        Stat &fetchMispredictStall;
        Stat &renameUops;
        Stat &renameAqEmpty;
        Stat &renameBacklog;
        Stat &dispatchUops;
        Stat &issueUops;
        Stat &execLoads;
        Stat &execStores;
        Stat &stlfForwards;
        Stat &stlfPartial;
        Stat &lineCrossers;
        Stat &commitInsts;
        Stat &commitUops;
        Stat &commitLoads;
        Stat &commitStores;
        Stat &cpiRetiring;
    };
    static HotStats bindHotStats(StatGroup &group);
    HotStats hot;

    // Telemetry histograms (live inside statGroup; non-null only when
    // CoreParams::sampleHistograms asked for per-cycle sampling).
    Histogram *histRob = nullptr;
    Histogram *histIq = nullptr;
    Histogram *histLq = nullptr;
    Histogram *histSq = nullptr;
    Histogram *histPairDistance = nullptr;
    Histogram *histFpAgreement = nullptr;

    // Per-cycle CPI attribution (see commitStage): the blocked-head
    // category of the current cycle, cleared each cycle, and the
    // charge it led to (reported in the cycle's CycleView).
    const char *cpiBlockReason = nullptr;
    const char *cpiCategory = nullptr;
    bool headBlocked = false;
    uint64_t blockedPc = 0;
    unsigned commitsThisCycle = 0;
    uint64_t lastCpiCycle = ~0ULL; ///< double-attribution guard
    CacheHierarchy caches;
    BranchPredictor bpred;
    StoreSets storeSets;
    UnfusedCommittedHistory uch;
    std::optional<FusionPredictor> fusionPred;

    uint64_t cycle = 0;
    bool feedExhausted = false;

    // Master index plus storage of in-flight µ-ops: records live in
    // the slab pool, the seq-indexed ring gives O(1) lookup (see
    // findInflight).
    UopPool uopPool;
    std::vector<Uop *> inflightSlots;
    uint64_t inflightMask = 0;
    size_t inflightCount = 0;

    /**
     * Every fetched instruction, once: the feed fills slot
     * seq & inflightMask in place, and each µ-op's dyn and tailDyn
     * point there. The slot outlives its µ-ops by the ring's slack
     * over the in-flight span (see inflightRingSize); committed stores
     * that wait to drain keep what they need by value. A squash
     * rewinds fetchSeq to the flush point and fetch re-reads the
     * ring (Section IV-C, solution ii), skipping each seq marked in
     * tailCommitted: an NCSF pair commits at its head's ROB slot, so
     * its tail can retire before a flush inside its catalyst.
     */
    std::vector<DynInst> fetchRing;
    std::vector<uint8_t> tailCommitted; ///< bytes: no bit arithmetic per fetch
    uint64_t feedSeq = 0;  ///< seq of the next record from the feed
    uint64_t fetchSeq = 0; ///< next seq to fetch; below feedSeq: replay

    // Front end. Groups recycle in place (emplace_back hands back the
    // slot, keeping the uops vector's capacity); `consumed` marks the
    // prefix already moved into the AQ, `fused` that consecutive
    // fusion already ran (it must run exactly once per group — a
    // rerun on an AQ-stalled remainder could re-fuse an already-fused
    // head and silently drop its absorbed tail).
    struct DecodeGroup
    {
        std::vector<Uop *> uops;
        size_t consumed = 0;
        uint64_t readyCycle = 0;
        bool fused = false;
    };
    RingBuffer<DecodeGroup> decodePipe;
    std::vector<Uop *> fuseScratch; ///< applyConsecutiveFusion output
    uint64_t fetchBlockedUntil = 0;
    uint64_t fetchStallSeq = ~0ULL; ///< mispredicted branch in flight
    uint64_t lastFetchLine = ~0ULL;

    // Allocation Queue, rename output, ROB: fixed-capacity rings (the
    // structural limits are hard caps, so they never reallocate).
    RingBuffer<Uop *> aq;
    RingBuffer<Uop *> renamedQueue;
    RingBuffer<Uop *> rob;

    // Load/store queues (program order; drainQueue holds committed
    // stores until they retire into the cache).
    RingBuffer<Uop *> lqList;
    RingBuffer<Uop *> sqList;

    // Conservative byte-range filters over executed-but-not-retired
    // memory µ-ops: loadFilter mirrors addrKnown LQ entries,
    // storeFilter mirrors addrKnown SQ entries plus the drain queue.
    // A miss proves no overlap, so the LQ snoop in executeStore and
    // the SQ/drain forwarding scans in loadHalfLatency skip their
    // linear walks in the common no-alias case.
    MemRangeFilter loadFilter;
    MemRangeFilter storeFilter;

    // Memory µ-ops whose effective address is still unknown, indexed
    // by seq on the same ring geometry as inflightSlots (0: resolved
    // or not a memory op; 1: load pending; 2: store pending). A fused
    // pair commits at the head's ROB slot, hoisting its tail past the
    // catalyst window — it must wait for every catalyst memory access
    // of the opposite kind to resolve first, or an alias could slip
    // past the LQ/SQ snoops (which only cover pre-commit µ-ops).
    std::vector<uint8_t> unresolvedKind;

    // Issue bookkeeping: ready µ-ops chain through their intrusive
    // readyPrev/readyNext links in ascending seq order; readyCount
    // counts them per port class, so issue stops walking once no
    // µ-op further down could take a free port.
    Uop *readyHead = nullptr;
    Uop *readyTail = nullptr;
    std::array<unsigned, numPortClasses> readyCount{};

    /**
     * Completion events on a timing wheel: slot `c & wheelMask` chains
     * every event due at cycle c. The constructor sizes the wheel above
     * the longest latency CoreParams allows and pushEvent() asserts
     * that horizon, so a slot never mixes two cycles. The chains are
     * index-linked through one flat node pool (released nodes form a
     * free list), so the wheel allocates nothing in steady state.
     */
    struct Event
    {
        Uop *uop;      ///< stale once uop->uid moves on or uop->done
        uint32_t uid;
        uint32_t next; ///< next node in this slot or in the free list
        uint8_t kind;  ///< 0: head-half, 1: tail-half, 2: final
    };
    static constexpr uint32_t noEvent = ~0u;
    void pushEvent(uint64_t due, Uop *uop, uint8_t kind);
    std::vector<Event> eventPool;
    std::vector<uint32_t> wheel; ///< per-slot chain head (or noEvent)
    uint64_t wheelMask = 0;
    uint32_t freeEvents = noEvent;

    /**
     * Wakeup edges: a µ-op that others wait on heads two chains of
     * them, one per result half (Uop::wakeHead, Uop::wakeTail), linked
     * newest first through one flat pool whose released edges form a
     * free list. Like the wheel, the pool allocates nothing in steady
     * state, and the µ-op record holds two indices instead of two
     * vectors. A waiting µ-op cannot issue, and so cannot commit,
     * before every edge to it has woken it, and a squash unlinks the
     * edges to the µ-ops it removes, so an edge always names a live
     * µ-op. Wakeup order cannot move a number (see completeExecution).
     */
    struct WakeEdge
    {
        Uop *uop;      ///< the waiting µ-op
        uint64_t seq;  ///< its seq, which a squash filters on
        uint32_t next; ///< next edge of this chain or of the free list
    };
    std::vector<WakeEdge> wakeEdges;
    uint32_t freeWakeEdges = noWakeEdge;

    /** The Stats stall() bumped this cycle; at most one per stage
     *  plus the cpi.* charge. */
    std::array<Stat *, 8> cycleStalls{};
    unsigned numCycleStalls = 0;

    unsigned iqCount = 0;
    CommitWatch watch;
    uint64_t divBusyUntil = 0;
    uint32_t nextUid = 1;

    // Deferred flush request raised during issue (at most one/cycle).
    uint64_t flushRequestSeq = ~0ULL;
    const char *flushReason = nullptr;

    /** A committed store until it retires into the cache: its nuclei,
     *  which loads still forward from, and its combined byte range. */
    struct DrainEntry
    {
        StoreNucleus nuclei[2];
        int count = 0;
        uint64_t begin = 0;
        uint64_t end = 0;
    };
    RingBuffer<DrainEntry> drainQueue;
    uint64_t drainBusyUntil = 0;

    // Rename-side Helios state.
    struct RatEntry
    {
        uint64_t producerSeq = 0; ///< 0: architecturally ready
    };
    std::vector<RatEntry> rat;

    unsigned activeNcsHeads = 0; ///< renamed, marker not yet
};

} // namespace helios

#endif // UARCH_PIPELINE_HH
