/**
 * @file
 * Dynamic-stream characterization for the paper's motivation figures
 * (Figures 2, 4 and 5): idiom frequency, consecutive memory pair
 * categories and non-consecutive fusion potential. These analyses run
 * over the functional instruction stream, independent of the timing
 * model, exactly as a trace study would.
 *
 * Each analysis is a streaming accumulator — feed it one DynInst at a
 * time (e.g. from forEachDynInst()) and read the stats at the end —
 * so characterizing a 500M-instruction region never materializes the
 * dynamic stream.
 */

#ifndef HARNESS_ANALYSIS_HH
#define HARNESS_ANALYSIS_HH

#include <cstdint>
#include <deque>

#include "sim/trace.hh"

namespace helios
{

/** Figure 2: fused µ-ops by idiom class, relative to dynamic µ-ops. */
struct IdiomStats
{
    uint64_t totalUops = 0;
    uint64_t memoryPairUops = 0; ///< µ-ops in load/store pair idioms
    uint64_t otherPairUops = 0;  ///< µ-ops in the non-memory idioms

    double memoryFraction() const;
    double othersFraction() const;
};

/** Streaming Figure 2 analysis: greedy non-overlapping idiom pairing. */
class IdiomAccumulator
{
  public:
    void add(const DynInst &dyn);
    const IdiomStats &stats() const { return theStats; }

  private:
    IdiomStats theStats;
    DynInst pending;
    bool havePending = false;
};

/** Figure 4: consecutive memory pairs by address relationship. */
struct CsfCategoryStats
{
    uint64_t totalUops = 0;
    uint64_t contiguous = 0;  ///< exactly adjacent bytes
    uint64_t overlapping = 0; ///< overlapping bytes
    uint64_t sameLine = 0;    ///< same 64 B line, gap between accesses
    uint64_t nextLine = 0;    ///< two contiguous cache lines

    double fraction(uint64_t pairs) const;
};

/** Streaming Figure 4 analysis. */
class CsfCategoryAccumulator
{
  public:
    explicit CsfCategoryAccumulator(unsigned line_bytes = 64)
        : lineBytes(line_bytes)
    {}

    void add(const DynInst &dyn);
    const CsfCategoryStats &stats() const { return theStats; }

  private:
    CsfCategoryStats theStats;
    unsigned lineBytes;
    DynInst pending;
    bool havePending = false;
};

/** Figure 5: additional potential of NCSF and DBR fusion. */
struct NcsfPotentialStats
{
    uint64_t totalUops = 0;
    uint64_t csfSbr = 0;     ///< consecutive, same base register
    uint64_t csfDbr = 0;     ///< consecutive, different base register
    uint64_t ncsfSbr = 0;    ///< non-consecutive, same base
    uint64_t ncsfDbr = 0;    ///< non-consecutive, different base
    uint64_t asymmetric = 0; ///< NCSF pairs with different widths

    uint64_t pairs() const { return csfSbr + csfDbr + ncsfSbr + ncsfDbr; }
    double fraction(uint64_t pairs) const;
};

/**
 * Streaming Figure 5 analysis: each memory µ-op pairs with the nearest
 * older unpaired one that the NCSF rules (fusion/ncsf_rules.hh) accept.
 * Keeps only the sliding window of memory µ-ops (bounded by @a window),
 * not the trace.
 */
class NcsfPotentialAccumulator
{
  public:
    explicit NcsfPotentialAccumulator(unsigned window = 64,
                                      unsigned region_bytes = 64)
        : window(window), regionBytes(region_bytes)
    {}

    void add(const DynInst &dyn);
    const NcsfPotentialStats &stats() const { return theStats; }

  private:
    struct Candidate
    {
        DynInst dyn;
        uint64_t index;
        bool paired;
    };

    NcsfPotentialStats theStats;
    unsigned window;
    unsigned regionBytes;
    uint64_t nextIndex = 0;
    std::deque<Candidate> recent; ///< the window's memory µ-ops, newest last
};

} // namespace helios

#endif // HARNESS_ANALYSIS_HH
