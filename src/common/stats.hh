/**
 * @file
 * Named-statistics registry and first-class stat types.
 *
 * Every pipeline structure owns counters registered into a StatGroup so
 * that harness code can enumerate, print and diff statistics without
 * each experiment hard-wiring member accesses. Beyond flat counters the
 * group also carries Histogram distributions (queue occupancy,
 * fusion-pair distance, ...) and the telemetry layer builds CpiStack
 * cycle accounting on top of the `cpi.*` counters.
 */

#ifndef COMMON_STATS_HH
#define COMMON_STATS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace helios
{

/** A single named 64-bit counter. */
class Stat
{
  public:
    Stat() = default;

    void operator++() { ++count; }
    void operator++(int) { ++count; }
    void operator+=(uint64_t n) { count += n; }
    void reset() { count = 0; }

    uint64_t value() const { return count; }

  private:
    uint64_t count = 0;
};

/**
 * A bucketed distribution of 64-bit samples.
 *
 * Buckets are defined by a sorted list of inclusive upper bounds; a
 * sample lands in the first bucket whose bound is >= the sample, and
 * anything above the last bound lands in an implicit overflow bucket.
 * The default layout is exponential (1, 2, 4, ..., 2^31), which suits
 * distances and occupancies alike; pass explicit bounds (e.g. linear)
 * when the resolution matters.
 */
class Histogram
{
  public:
    /** Exponential buckets: upper bounds 1, 2, 4, ..., 2^31. */
    Histogram();

    /** Custom bucket layout; @a upper_bounds must be strictly
     *  increasing and non-empty. */
    explicit Histogram(std::vector<uint64_t> upper_bounds);

    /** Evenly spaced buckets of width @a step covering [0, max]. */
    static Histogram linear(uint64_t max, uint64_t step);

    void addSample(uint64_t value, uint64_t weight = 1);

    /** Fold @a other into this histogram (bucket layouts must match). */
    void merge(const Histogram &other);

    uint64_t samples() const { return total; }
    uint64_t sum() const { return weightedSum; }
    uint64_t minValue() const { return total ? lo : 0; }
    uint64_t maxValue() const { return total ? hi : 0; }
    double mean() const;

    /**
     * Value below which @a fraction (0..1) of the samples fall: the
     * upper bound of the bucket containing that quantile (the exact
     * sample values inside a bucket are not retained). An empty
     * histogram reports 0.
     */
    uint64_t percentile(double fraction) const;

    size_t numBuckets() const { return bounds.size() + 1; }

    /** Inclusive upper bound of bucket @a i (UINT64_MAX: overflow). */
    uint64_t bucketBound(size_t i) const;
    uint64_t bucketCount(size_t i) const { return buckets[i]; }
    const std::vector<uint64_t> &bucketBounds() const { return bounds; }

    void reset();

    /**
     * Reinstate a serialized distribution: bucket counts plus the
     * scalar moments (sample count, weighted sum, observed min/max)
     * that bucketing alone cannot recover. @a bucket_counts must have
     * numBuckets() entries and sum to @a total_samples; used by the
     * RunReport JSON loader so save → load → operator== holds.
     */
    void restore(const std::vector<uint64_t> &bucket_counts,
                 uint64_t total_samples, uint64_t weighted_sum,
                 uint64_t min_value, uint64_t max_value);

    /** One-line summary: n, mean, p50/p90/p99, max. */
    std::string summary() const;

    bool operator==(const Histogram &other) const;

  private:
    std::vector<uint64_t> bounds;  ///< inclusive upper bounds, sorted
    std::vector<uint64_t> buckets; ///< bounds.size() + 1 (overflow last)
    /** Bucket width when bounds are step, 2 step, 3 step, ... (0: not
     *  evenly spaced); addSample() then divides instead of searching. */
    uint64_t step = 0;
    uint64_t total = 0;
    uint64_t weightedSum = 0;
    uint64_t lo = 0;
    uint64_t hi = 0;
};

inline void
Histogram::addSample(uint64_t value, uint64_t weight)
{
    if (weight == 0)
        return;
    // First bucket whose inclusive upper bound covers the value;
    // everything above the last bound lands in the overflow bucket.
    // Bucket i of an evenly spaced layout covers (i step, (i+1) step].
    size_t index;
    if (step)
        index = value ? std::min<uint64_t>((value - 1) / step,
                                           bounds.size())
                      : 0;
    else
        index = std::lower_bound(bounds.begin(), bounds.end(), value) -
                bounds.begin();
    buckets[index] += weight;
    if (total == 0) {
        lo = hi = value;
    } else {
        lo = std::min(lo, value);
        hi = std::max(hi, value);
    }
    total += weight;
    weightedSum += value * weight;
}

/**
 * Top-down cycle accounting: a list of named categories whose cycle
 * counts partition a run's total cycles (the paper's Fig. 9 stall
 * attribution, generalized).
 *
 * Two construction paths:
 *  - StatGroup::cpiStack() collects the pipeline's per-cycle `cpi.*`
 *    attribution counters, which are incremented exactly once per
 *    cycle, so the stack is exact: residual() == 0.
 *  - addCategory() builds an ad-hoc stack from arbitrary counters
 *    (e.g. the historical rename/dispatch stall counters); these may
 *    overlap or undercount, and the residual absorbs the difference.
 */
class CpiStack
{
  public:
    explicit CpiStack(uint64_t total_cycles = 0) : total(total_cycles) {}

    void addCategory(const std::string &name, uint64_t cycles);

    /** Cycles not claimed by any category (0 for an exact stack). */
    int64_t residual() const;

    uint64_t totalCycles() const { return total; }
    size_t size() const { return entries.size(); }
    const std::string &name(size_t i) const { return entries[i].first; }
    uint64_t cycles(size_t i) const { return entries[i].second; }
    uint64_t cycles(const std::string &name) const;

    /** Fraction of total cycles in @a name (0 when total is 0). */
    double fraction(const std::string &name) const;

    /** Sum of fractions over categories whose name starts with
     *  @a prefix. */
    double fractionWithPrefix(const std::string &prefix) const;

    /** Category with the most cycles ("" when empty). */
    std::string dominant() const;

    /** True when every cycle is accounted for exactly once. */
    bool exact() const { return residual() == 0; }

    /** Aligned "category cycles percent" table, largest first. */
    std::string toString() const;

    bool operator==(const CpiStack &other) const;

  private:
    uint64_t total;
    std::vector<std::pair<std::string, uint64_t>> entries;
};

/**
 * A flat registry of counters and histograms keyed by dotted names
 * (e.g. "dispatch.stall.sq_full").
 *
 * Backing store is a stable deque indexed by an unordered (hashed)
 * name map: counter() is O(1) amortized and returned references stay
 * valid for the life of the group, while dump() sorts on demand so
 * reports remain alphabetical.
 */
class StatGroup
{
  public:
    /** Get or create the counter with the given name; finding an
     *  existing one allocates nothing. */
    Stat &counter(std::string_view name);

    /** Read a counter; zero if it was never created. */
    uint64_t get(const std::string &name) const;

    /** Get or create a histogram (default exponential buckets). */
    Histogram &histogram(const std::string &name);

    /** Get or create a histogram, creating with the given layout. */
    Histogram &histogram(const std::string &name, Histogram layout);

    /** Read-only lookup; nullptr if it was never created. */
    const Histogram *findHistogram(const std::string &name) const;

    /** All (name, value) pairs, sorted by name. */
    std::vector<std::pair<std::string, uint64_t>> dump() const;

    /** All (name, histogram) pairs, sorted by name. */
    std::vector<std::pair<std::string, const Histogram *>>
    dumpHistograms() const;

    /**
     * Build the exact CPI stack from the `cpi.*` per-cycle attribution
     * counters (total taken from the "cycles" counter unless given).
     */
    CpiStack cpiStack(uint64_t total_cycles = 0) const;

    /** Reset every counter and histogram to zero. */
    void resetAll();

    /** Render as an aligned "name value" table (histograms appended
     *  as one summary line each). */
    std::string toString() const;

  private:
    // Deques keep references stable across growth; the maps give O(1)
    // amortized name lookup.
    std::deque<Stat> counterSlots;
    /** Looks names up by std::string_view without a std::string. */
    struct NameHash : std::hash<std::string_view>
    {
        using is_transparent = void;
    };
    std::unordered_map<std::string, size_t, NameHash, std::equal_to<>>
        counterIndex;
    std::deque<Histogram> histogramSlots;
    std::unordered_map<std::string, size_t> histogramIndex;
};

} // namespace helios

#endif // COMMON_STATS_HH
