/**
 * @file
 * The Helios Fusion Predictor (Section IV-A2).
 *
 * A tournament predictor that, given a potential tail nucleus' PC,
 * predicts the distance (in µ-ops) to the head nucleus it should fuse
 * with. Two 512-set/4-way components — a "local" PC-indexed table and
 * a "global" gshare-like table indexed by PC ⊕ branch history — are
 * arbitrated by a 2048-entry direct-mapped selector of 2-bit counters.
 *
 * Each component entry holds an 8-bit tag, a 6-bit distance, a 2-bit
 * confidence counter and a pseudo-LRU bit (17 bits; 34 Kbit per
 * component, 72 Kbit total with the selector).
 */

#ifndef FUSION_FUSION_PREDICTOR_HH
#define FUSION_FUSION_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/counters.hh"

namespace helios
{

/**
 * Prediction record flowing down the pipeline with the µ-op, mirroring
 * the paper's dedicated update queue (29 bits per entry; unlimited in
 * the evaluation, as in the paper).
 */
struct FpPrediction
{
    bool valid = false;       ///< a confident distance was produced
    unsigned distance = 0;    ///< µ-op distance to the head nucleus

    // Update-time bookkeeping.
    bool usedGlobal = false;
    bool localValid = false;
    bool globalValid = false;
    unsigned localDistance = 0;
    unsigned globalDistance = 0;
    uint32_t pc = 0;
    uint16_t history = 0;
};

/** The paper's tournament fusion predictor (Section IV-A2). */
class FusionPredictor
{
  public:
    static constexpr unsigned numSets = 512;
    static constexpr unsigned numWays = 4;
    static constexpr unsigned selectorEntries = 2048;
    static constexpr unsigned maxDistance = 63; ///< 6-bit field

    FusionPredictor();

    /**
     * Look up both components at Decode.
     * The returned prediction is valid only when the selected
     * component hits with a saturated confidence counter.
     */
    FpPrediction lookup(uint64_t pc, uint16_t history);

    /**
     * UCH-driven training at Commit: a (tail PC, distance) pair was
     * observed. Allocates/updates both components, like the update
     * policy of tournament branch predictors.
     */
    void train(uint64_t pc, uint16_t history, unsigned distance);

    /**
     * Resolution of a predicted fusion at Execute.
     * @param correct whether the fused pair fit the fusion region
     *
     * On a misprediction the used entry's confidence is reset to 0
     * (Section IV-A2). The selector is steered toward whichever
     * component was right when the components disagreed.
     */
    void resolve(const FpPrediction &pred, bool correct);

    uint64_t lookups = 0;
    uint64_t confidentPredictions = 0;

  private:
    struct Entry
    {
        bool valid = false;
        uint8_t tag = 0;
        uint8_t distance = 0;
        SatCounter<2> confidence;
        bool plru = false;
    };

    struct Component
    {
        std::vector<Entry> entries; // numSets * numWays

        Entry *find(unsigned set, uint8_t tag);
        const Entry *find(unsigned set, uint8_t tag) const;
        Entry *allocate(unsigned set, uint8_t tag);
        void touch(unsigned set, Entry *entry);
    };

    static unsigned localSet(uint64_t pc);
    static unsigned globalSet(uint64_t pc, uint16_t history);
    static uint8_t tagOf(uint64_t pc);
    static unsigned selectorIndex(uint64_t pc);

    void trainComponent(Component &component, unsigned set, uint8_t tag,
                        unsigned distance);

    Component local;
    Component global;
    std::vector<SatCounter<2>> selector;

    /** Per-PC misprediction strikes: serially mispredicting tails are
     *  suppressed entirely — the accuracy-for-coverage trade the
     *  paper suggests implementing with probabilistic counters. */
    static constexpr unsigned strikeEntries = 256;
    static constexpr unsigned strikeLimit = 6;
    std::vector<SatCounter<3>> strikes;
};

} // namespace helios

#endif // FUSION_FUSION_PREDICTOR_HH
