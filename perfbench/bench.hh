/**
 * @file
 * Shared declarations of the helios benchmark (see README.md).
 *
 * The benchmark drives the simulator only through its public
 * functions. A harness pass calls the composite entry points users
 * call (runMatrix, runFunctional, buildCheckpoints, runSampled, ...),
 * through the harness's own worker pool where it has one. A layered
 * pass makes the same calls one layer down (Workload::program,
 * Hart::reset/runFast, Pipeline, ...) with a span around each, so a
 * traced window attributes host time to layers. Every pass must
 * produce the same sim digest.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workloads/workloads.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** The fig10 per-cell instruction budget (benchInstructionBudget's
 *  default; the benchmark does not read HELIOS_MAX_INSTS). */
constexpr uint64_t kSuiteBudget = 200'000;

/** Linear-interpolated quantile (q in [0, 1]); 0 for an empty list. */
double quantile(std::vector<double> values, double q);

/** A seeded permutation of 0..n-1 (Fisher-Yates over helios::Rng). */
std::vector<size_t> seededOrder(size_t n, uint64_t seed);

/** Incremental FNV-1a hash behind the canonical sim digest. */
class Digest
{
  public:
    void add(uint64_t value);
    void add(const std::string &text);
    uint64_t value() const { return hash; }

  private:
    uint64_t hash = 1469598103934665603ULL; ///< helios::fnv1a default basis
};

// ---- spans (spans.cc) ------------------------------------------------

/**
 * Arm span recording for the traced windows. @a window names the
 * workload the following spans belong to (the Chrome trace shows one
 * process per window); an empty name disarms recording.
 */
void setSpanWindow(const std::string &window);

/** Worker index of the calling thread (its track in the trace). */
void setSpanWorker(unsigned worker);

/**
 * A timed call into a layer. The span is a child of the calling
 * thread's innermost open span and shares its operation id; a span
 * constructed with @a new_op starts a new operation. @a tag refines
 * the name for aggregation (per fusion mode). Both strings must have
 * static storage duration (literals, fusionModeName()): the trace is
 * written after the workloads are gone. Costs one branch while
 * recording is disarmed.
 */
class Span
{
  public:
    explicit Span(const char *name, bool new_op = false,
                  const char *tag = nullptr);
    ~Span();

    /** Units of work the span covered (instructions, records, ...). */
    void setCount(uint64_t count);

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    long slot = -1;
};

/** Every span of one name (and one name.tag) in one window. */
struct LayerTotals
{
    uint64_t count = 0;    ///< sum of setCount() values
    double selfNs = 0.0;   ///< duration minus child-span coverage
    std::vector<double> durationsNs;

    double medianMs() const { return quantile(durationsNs, 0.5) / 1e6; }
};

using LayerMap = std::map<std::string, LayerTotals>;

/** The id the next span will get. Ids grow with creation time, so two
 *  marks bracket the spans opened between them (one pass, say). */
uint64_t spanMark();

/** Aggregate the spans recorded in @a window by name and name.tag;
 *  only spans with ids in [@a first_id, @a end_id) count. */
LayerMap aggregateSpans(const std::string &window, uint64_t first_id = 0,
                        uint64_t end_id = UINT64_MAX);

/** Write every recorded span as Chrome trace_event JSON. */
void writeChromeTrace(const std::string &path);

// ---- worker pool (pool.cc) -------------------------------------------

/** Timing of one pass over a list of operations. */
struct PassTiming
{
    double wallS = 0.0;
    double busyS = 0.0;          ///< sum of operation latencies
    std::vector<double> opMs;    ///< latency per operation, by index
    std::vector<char> ran;       ///< operation was dispatched
    std::vector<std::string> errors; ///< by index; non-empty: threw
};

/**
 * Run op(0..n-1) on @a workers threads, each claiming the next index
 * (a closed loop: a worker submits its next operation when the last
 * returns). No operation is claimed after @a deadline, which is how
 * the untimed warm-up stops early. An exception fails only its own
 * operation.
 */
PassTiming runPass(size_t n, unsigned workers,
                   const std::function<void(size_t)> &op,
                   Clock::time_point deadline = Clock::time_point::max());

/**
 * Time one call into the harness's own worker pool: @a call runs
 * runMatrix once (directly, or through runSampled) over @a cells
 * cells. Each cell's latency is the `cell` span runMatrix records for
 * it on the host tracer, indexed by the cell's position in that
 * runMatrix call. If @a call throws, every one of its cells fails.
 */
PassTiming timeHarnessCells(size_t cells, const std::function<void()> &call);

// ---- seeded long-frame program (longframe.cc) ------------------------

/** The long-frame program's fixed shape. */
struct LongFrameShape
{
    static constexpr uint64_t records = 16384; ///< 64-byte records
    static constexpr uint64_t slice = 8192;    ///< records per round
    static constexpr uint64_t chaseSteps = 8192; ///< per round
    static constexpr uint64_t calls = 4096;    ///< per round
    static constexpr uint64_t rounds = 148;
};

/** Seeded stdin image: records × 64 bytes. */
std::string makeLongFrameInput(uint64_t seed);

/** The fixed assembly text of the long-frame program. */
std::string longFrameSource();

/** C++ reference of the program's exit checksum over @a input. */
uint64_t longFrameReference(const std::string &input);

// ---- workloads (workloads.cc) ----------------------------------------

/** Outcome of one pass. */
struct PassOutcome
{
    PassTiming timing;
    uint64_t guestInsts = 0;  ///< instructions the pass accounts for
    uint64_t attempted = 0;   ///< operations timed
    uint64_t failed = 0;      ///< operations whose outputs were wrong
    std::vector<std::string> failures; ///< first few, for stderr
    uint64_t digest = 0;      ///< canonical sim digest of the outputs
};

/** Deterministic numbers a workload's last pass produced, by name. */
using Facts = std::map<std::string, double>;

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Work before the timed phase: build the inputs, the programs
     *  and the reference outputs. Repeatable; the last call wins. */
    virtual void setup(uint64_t seed) = 0;

    /** One pass over the workload's operations. A layered pass makes
     *  the same calls as a harness pass one layer down, under spans
     *  (recorded only while a span window is armed). Only a layered
     *  pass stops claiming operations at @a deadline (the warm-up). */
    virtual PassOutcome pass(bool layered, Clock::time_point deadline) = 0;

    /** Deterministic facts (simulated counts, ratios) of the last
     *  complete pass. */
    virtual Facts facts() const = 0;
};

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** nullptr for an unknown name. */
std::unique_ptr<BenchWorkload> makeWorkload(const std::string &name,
                                            unsigned workers,
                                            const std::string &work_dir);

// ---- standalone layer probes (probes.cc) -----------------------------

/**
 * Drain a HartFeed at the fig10 budget for every suite kernel, one
 * span per kernel (sim.feed_drain, count = instructions).
 */
void probeFeed(const std::vector<helios::Workload> &suite, uint64_t budget);

/**
 * Record each suite kernel's DynInst stream at @a budget and replay it
 * through the branch predictor, the cache hierarchy and the idiom
 * matcher, one aggregated span per kernel and component. Returns the
 * components' own counters (lookups, mispredicts, accesses, misses).
 */
Facts probeReplay(const std::vector<helios::Workload> &suite,
                  uint64_t budget);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
