#include "harness/analysis.hh"

#include "fusion/idiom.hh"
#include "fusion/ncsf_rules.hh"

namespace helios
{

double
IdiomStats::memoryFraction() const
{
    return totalUops ? double(memoryPairUops) / double(totalUops) : 0.0;
}

double
IdiomStats::othersFraction() const
{
    return totalUops ? double(otherPairUops) / double(totalUops) : 0.0;
}

void
IdiomAccumulator::add(const DynInst &dyn)
{
    ++theStats.totalUops;
    if (!havePending) {
        pending = dyn;
        havePending = true;
        return;
    }
    const Idiom idiom = matchIdiom(pending.inst, dyn.inst);
    if (idiom == Idiom::None) {
        pending = dyn; // head advances by one
        return;
    }
    if (isMemoryIdiom(idiom))
        theStats.memoryPairUops += 2;
    else
        theStats.otherPairUops += 2;
    havePending = false; // greedy non-overlapping pairing
}

double
CsfCategoryStats::fraction(uint64_t pairs) const
{
    return totalUops ? 2.0 * double(pairs) / double(totalUops) : 0.0;
}

void
CsfCategoryAccumulator::add(const DynInst &dyn)
{
    ++theStats.totalUops;
    if (!havePending) {
        pending = dyn;
        havePending = true;
        return;
    }
    const DynInst &a = pending;
    const DynInst &b = dyn;
    const bool same_kind = (a.isLoad() && b.isLoad()) ||
                           (a.isStore() && b.isStore());
    // Dependent loads cannot pair (Section II-B).
    const bool dependent = a.isLoad() && a.inst.writesReg() &&
                           a.inst.rd == b.inst.baseReg();
    bool paired = false;
    if (same_kind && !dependent) {
        const uint64_t a_begin = a.effAddr;
        const uint64_t a_end = a_begin + a.memSize();
        const uint64_t b_begin = b.effAddr;
        const uint64_t b_end = b_begin + b.memSize();
        const uint64_t line_a = a_begin / lineBytes;
        const uint64_t line_b = b_begin / lineBytes;

        paired = true;
        if (a_end == b_begin || b_end == a_begin) {
            ++theStats.contiguous;
        } else if (a_begin < b_end && b_begin < a_end) {
            ++theStats.overlapping;
        } else if (line_a == line_b) {
            ++theStats.sameLine;
        } else if (line_a + 1 == line_b || line_b + 1 == line_a) {
            ++theStats.nextLine;
        } else {
            paired = false;
        }
    }
    if (paired)
        havePending = false;
    else
        pending = dyn;
}

double
NcsfPotentialStats::fraction(uint64_t pair_count) const
{
    return totalUops ? 2.0 * double(pair_count) / double(totalUops)
                     : 0.0;
}

void
NcsfPotentialAccumulator::add(const DynInst &dyn)
{
    const uint64_t i = nextIndex++;
    ++theStats.totalUops;

    while (!recent.empty() && i - recent.front().index > window)
        recent.pop_front();

    if (!dyn.isMem())
        return;

    // Figure 5 counts different-base (DBR) potential, so store pairs
    // may differ in base register here.
    const NcsfRules rules{regionBytes, /*dbrStorePairs=*/true};
    bool matched = false;
    // recent holds the window's memory µ-ops in program order, so each
    // candidate's catalyst is what this walk has already passed.
    for (auto it = recent.rbegin(); it != recent.rend(); ++it) {
        const DynInst &head = it->dyn;
        if (!it->paired && rules.pairable(head, dyn)) {
            const bool consecutive = it->index + 1 == i;
            const bool same_base =
                head.inst.baseReg() == dyn.inst.baseReg();
            if (consecutive) {
                ++(same_base ? theStats.csfSbr : theStats.csfDbr);
            } else {
                ++(same_base ? theStats.ncsfSbr : theStats.ncsfDbr);
            }
            if (!consecutive && head.memSize() != dyn.memSize())
                ++theStats.asymmetric;
            it->paired = true;
            matched = true;
            break;
        }
        if (NcsfRules::blocksHoist(head, dyn))
            break;
    }
    recent.push_back({dyn, i, matched});
}

} // namespace helios
