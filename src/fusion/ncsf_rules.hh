/**
 * @file
 * Eligibility of a memory fusion pair whose nuclei need not be
 * consecutive (NCSF): the paper's rules of Sections II-B and IV,
 * written once.
 *
 * Helios's decode-time checks, OracleFusion's address oracle, the
 * fusion-site profiler's missed-pair finder and the Figure 5 potential
 * analysis all ask these rules; the pipeline auditor keeps an
 * independent check of its own.
 */

#ifndef FUSION_NCSF_RULES_HH
#define FUSION_NCSF_RULES_HH

#include <cstdint>

#include "sim/trace.hh"

namespace helios
{

/** The first rule a pair breaks, in the order NcsfRules checks them. */
enum class NcsfBreak : uint8_t
{
    None,           ///< the pair obeys every rule
    MixedKinds,     ///< not two loads or two stores
    HeadWritesBase, ///< the head writes the tail's base register
    DbrStorePair,   ///< a store pair with different base registers
    RegionSpan,     ///< the pair's bytes do not fit in regionBytes
};

struct NcsfRules
{
    unsigned regionBytes = 64;  ///< one cache access covers the pair
    bool dbrStorePairs = false; ///< store pairs may differ in base reg

    /**
     * The rules that need only the pair itself. The first three need
     * no address, so Helios applies them at decode and leaves the
     * region to its issue-time check:
     *  - both halves are the same kind of access;
     *  - the head does not write the tail's base register;
     *  - store pairs share a base register unless dbrStorePairs (a
     *    different-base store pair needs a fourth source register);
     *  - the pair's bytes fit in regionBytes.
     */
    NcsfBreak broken(const DynInst &head, const DynInst &tail) const;

    bool
    pairable(const DynInst &head, const DynInst &tail) const
    {
        return broken(head, tail) == NcsfBreak::None;
    }

    /**
     * The catalyst rule, for one memory access @a catalyst that lies
     * between the head and @a tail in program order: fusion hoists a
     * tail load to the head, so no catalyst store may write its bytes.
     * A pair is eligible when it is pairable() and no catalyst access
     * blocks the hoist.
     */
    static bool
    blocksHoist(const DynInst &catalyst, const DynInst &tail)
    {
        return catalyst.isStore() && tail.isLoad() &&
               catalyst.effAddr < tail.effAddr + tail.memSize() &&
               tail.effAddr < catalyst.effAddr + catalyst.memSize();
    }
};

} // namespace helios

#endif // FUSION_NCSF_RULES_HH
