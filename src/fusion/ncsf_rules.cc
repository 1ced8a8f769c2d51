#include "fusion/ncsf_rules.hh"

#include <algorithm>

namespace helios
{

NcsfBreak
NcsfRules::broken(const DynInst &head, const DynInst &tail) const
{
    const bool both_loads = head.isLoad() && tail.isLoad();
    const bool both_stores = head.isStore() && tail.isStore();
    if (!both_loads && !both_stores)
        return NcsfBreak::MixedKinds;
    // Statically dependent pairs never fuse (Section II-B).
    if (head.inst.writesReg() && head.inst.rd == tail.inst.baseReg())
        return NcsfBreak::HeadWritesBase;
    if (both_stores && !dbrStorePairs &&
        head.inst.baseReg() != tail.inst.baseReg())
        return NcsfBreak::DbrStorePair;
    const uint64_t begin = std::min(head.effAddr, tail.effAddr);
    const uint64_t end = std::max(head.effAddr + head.memSize(),
                                  tail.effAddr + tail.memSize());
    if (end - begin > regionBytes)
        return NcsfBreak::RegionSpan;
    return NcsfBreak::None;
}

} // namespace helios
