#include "telemetry/profiler.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "fusion/fusion_predictor.hh"

namespace helios
{

// ---------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------

const char *
pairClassName(PairClass cls)
{
    switch (cls) {
      case PairClass::Csf: return "csf";
      case PairClass::Sbr: return "sbr";
      case PairClass::Ncsf: return "ncsf";
      case PairClass::Nctf: return "nctf";
      case PairClass::Dbr: return "dbr";
    }
    return "?";
}

const char *
missReasonName(MissReason reason)
{
    switch (reason) {
      case MissReason::QueueCapacity: return "queue_capacity";
      case MissReason::CatalystInterference:
        return "catalyst_interference";
      case MissReason::DistanceOverLimit: return "distance_over_limit";
      case MissReason::ColdSite: return "cold_site";
      case MissReason::PredictorDisagreement:
        return "predictor_disagreement";
    }
    return "?";
}

namespace
{

bool
rangesOverlap(uint64_t a_begin, uint64_t a_end, uint64_t b_begin,
              uint64_t b_end)
{
    return a_begin < b_end && b_begin < a_end;
}

JsonValue
countMapToJson(const std::map<std::string, uint64_t> &counts)
{
    JsonValue value = JsonValue::object();
    for (const auto &[name, count] : counts)
        value.set(name, JsonValue(count));
    return value;
}

std::map<std::string, uint64_t>
countMapFromJson(const JsonValue &value)
{
    std::map<std::string, uint64_t> counts;
    for (const auto &[name, count] : value.members())
        counts.emplace(name, count.asUint());
    return counts;
}

template <size_t N, typename NameFn>
JsonValue
namedArrayToJson(const std::array<uint64_t, N> &counts, NameFn name)
{
    JsonValue value = JsonValue::object();
    for (size_t i = 0; i < N; ++i)
        value.set(name(i), JsonValue(counts[i]));
    return value;
}

template <size_t N, typename NameFn>
std::array<uint64_t, N>
namedArrayFromJson(const JsonValue &value, NameFn name,
                   const char *what)
{
    std::array<uint64_t, N> counts{};
    for (size_t i = 0; i < N; ++i)
        counts[i] = value.at(name(i)).asUint();
    if (value.members().size() != N)
        fatal("profile: unexpected extra %s entries", what);
    return counts;
}

const char *
pairClassNameAt(size_t i)
{
    return pairClassName(static_cast<PairClass>(i));
}

const char *
missReasonNameAt(size_t i)
{
    return missReasonName(static_cast<MissReason>(i));
}

} // namespace

// ---------------------------------------------------------------------
// ProfileSite
// ---------------------------------------------------------------------

uint64_t
ProfileSite::fusedPairs() const
{
    uint64_t sum = 0;
    for (uint64_t count : fused)
        sum += count;
    return sum;
}

uint64_t
ProfileSite::missedPairs() const
{
    uint64_t sum = 0;
    for (uint64_t count : missed)
        sum += count;
    return sum;
}

uint64_t
ProfileSite::stallCycles() const
{
    uint64_t sum = 0;
    for (const auto &[name, cycles] : stalls)
        sum += cycles;
    return sum;
}

double
ProfileSite::coverage() const
{
    if (!executions)
        return 0.0;
    return double(fusedPairs() + fusedTail) / double(executions);
}

std::string
ProfileSite::dominantStall() const
{
    std::string best;
    uint64_t best_cycles = 0;
    for (const auto &[name, cycles] : stalls) {
        if (cycles > best_cycles) {
            best = name;
            best_cycles = cycles;
        }
    }
    return best;
}

JsonValue
ProfileSite::toJson() const
{
    JsonValue value = JsonValue::object();
    value.set("pc", JsonValue(pc));
    value.set("executions", JsonValue(executions));
    value.set("squashes", JsonValue(squashes));
    value.set("fused", namedArrayToJson(fused, pairClassNameAt));
    value.set("fused_tail", JsonValue(fusedTail));
    value.set("attempts", JsonValue(attempts));
    value.set("mispredicts", JsonValue(mispredicts));
    value.set("breaks", countMapToJson(breaks));
    value.set("missed", namedArrayToJson(missed, missReasonNameAt));
    value.set("stalls", countMapToJson(stalls));
    return value;
}

ProfileSite
ProfileSite::fromJson(const JsonValue &value)
{
    ProfileSite site;
    site.pc = value.at("pc").asUint();
    site.executions = value.at("executions").asUint();
    site.squashes = value.at("squashes").asUint();
    site.fused = namedArrayFromJson<kNumPairClasses>(
        value.at("fused"), pairClassNameAt, "pair-class");
    site.fusedTail = value.at("fused_tail").asUint();
    site.attempts = value.at("attempts").asUint();
    site.mispredicts = value.at("mispredicts").asUint();
    site.breaks = countMapFromJson(value.at("breaks"));
    site.missed = namedArrayFromJson<kNumMissReasons>(
        value.at("missed"), missReasonNameAt, "miss-reason");
    site.stalls = countMapFromJson(value.at("stalls"));
    return site;
}

// ---------------------------------------------------------------------
// ProfileWindow
// ---------------------------------------------------------------------

JsonValue
ProfileWindow::toJson() const
{
    JsonValue value = JsonValue::object();
    value.set("start_cycle", JsonValue(startCycle));
    value.set("cycles", JsonValue(cycles));
    value.set("instructions", JsonValue(instructions));
    value.set("uops", JsonValue(uops));
    value.set("fused_pairs", JsonValue(fusedPairs));
    value.set("cpi", countMapToJson(cpi));
    return value;
}

ProfileWindow
ProfileWindow::fromJson(const JsonValue &value)
{
    ProfileWindow window;
    window.startCycle = value.at("start_cycle").asUint();
    window.cycles = value.at("cycles").asUint();
    window.instructions = value.at("instructions").asUint();
    window.uops = value.at("uops").asUint();
    window.fusedPairs = value.at("fused_pairs").asUint();
    window.cpi = countMapFromJson(value.at("cpi"));
    return window;
}

// ---------------------------------------------------------------------
// ProfileData
// ---------------------------------------------------------------------

const ProfileSite *
ProfileData::find(uint64_t pc) const
{
    // Sites are sorted by pc (onFinish()).
    auto it = std::lower_bound(
        sites.begin(), sites.end(), pc,
        [](const ProfileSite &site, uint64_t key) {
            return site.pc < key;
        });
    return it != sites.end() && it->pc == pc ? &*it : nullptr;
}

uint64_t
ProfileData::fusedPairs() const
{
    uint64_t sum = 0;
    for (uint64_t count : fusedTotals)
        sum += count;
    return sum;
}

uint64_t
ProfileData::missedPairs() const
{
    uint64_t sum = 0;
    for (uint64_t count : missedTotals)
        sum += count;
    return sum;
}

JsonValue
ProfileData::toJson() const
{
    JsonValue value = JsonValue::object();
    value.set("window_cycles", JsonValue(windowCycles));
    value.set("total_cycles", JsonValue(totalCycles));
    value.set("fused", namedArrayToJson(fusedTotals, pairClassNameAt));
    value.set("missed",
              namedArrayToJson(missedTotals, missReasonNameAt));

    JsonValue site_array = JsonValue::array();
    for (const ProfileSite &site : sites)
        site_array.push(site.toJson());
    value.set("sites", std::move(site_array));

    JsonValue window_array = JsonValue::array();
    for (const ProfileWindow &window : windows)
        window_array.push(window.toJson());
    value.set("windows", std::move(window_array));
    return value;
}

ProfileData
ProfileData::fromJson(const JsonValue &value)
{
    ProfileData data;
    data.windowCycles = value.at("window_cycles").asUint();
    data.totalCycles = value.at("total_cycles").asUint();
    data.fusedTotals = namedArrayFromJson<kNumPairClasses>(
        value.at("fused"), pairClassNameAt, "pair-class");
    data.missedTotals = namedArrayFromJson<kNumMissReasons>(
        value.at("missed"), missReasonNameAt, "miss-reason");

    const JsonValue &site_array = value.at("sites");
    for (size_t i = 0; i < site_array.size(); ++i)
        data.sites.push_back(ProfileSite::fromJson(site_array.at(i)));

    const JsonValue &window_array = value.at("windows");
    for (size_t i = 0; i < window_array.size(); ++i)
        data.windows.push_back(
            ProfileWindow::fromJson(window_array.at(i)));
    return data;
}

// ---------------------------------------------------------------------
// FusionProfiler
// ---------------------------------------------------------------------

FusionProfiler::FusionProfiler(const CoreParams &params)
    : oracleDistance(params.maxFusionDistance),
      predictorDistance(FusionPredictor::maxDistance),
      regionBytes(params.fusionRegionBytes),
      fuseDbrStores(params.fuseDbrStorePairs),
      windowCycles(params.profileWindowCycles)
{
}

ProfileSite &
FusionProfiler::site(uint64_t pc)
{
    ProfileSite &entry = siteMap[pc];
    entry.pc = pc;
    return entry;
}

void
FusionProfiler::closeWindow()
{
    if (current.cycles == 0)
        return;
    result.windows.push_back(std::move(current));
    current = ProfileWindow();
    current.startCycle = cyclesSeen;
}

void
FusionProfiler::onCycleEnd(const CycleView &view)
{
    ++current.cycles;
    ++current.cpi[view.cpiCategory];
    ++cyclesSeen;
    if (view.headBlocked)
        ++site(view.blockedPc).stalls[view.cpiCategory];
    if (windowCycles && current.cycles >= windowCycles)
        closeWindow();
}

void
FusionProfiler::pushNucleus(const DynInst &dyn, bool fused)
{
    Nucleus nucleus;
    nucleus.seq = dyn.seq;
    nucleus.isStore = dyn.isStore();
    nucleus.begin = dyn.effAddr;
    nucleus.end = dyn.effAddr + dyn.memSize();
    nucleus.baseReg = dyn.inst.baseReg();
    nucleus.rd = dyn.inst.rd;
    nucleus.writesRd = dyn.inst.writesReg();
    nucleus.fused = fused;
    window.push_back(nucleus);
    while (!window.empty() &&
           dyn.seq - window.front().seq > oracleDistance)
        window.pop_front();
}

MissReason
FusionProfiler::classifyMiss(const Uop &uop, uint64_t distance) const
{
    // Priority chain; see the MissReason documentation. The pipeline
    // stamps Uop::profBreak when Helios machinery fused the pair and
    // then had to break it.
    if (uop.profBreak != ProfBreak::None) {
        if (uop.profBreak == ProfBreak::NestLimit)
            return MissReason::QueueCapacity;
        return MissReason::CatalystInterference;
    }
    if (distance > predictorDistance)
        return MissReason::DistanceOverLimit;
    if (!uop.fpPred.valid)
        return MissReason::ColdSite;
    return MissReason::PredictorDisagreement;
}

void
FusionProfiler::oracleScan(const Uop &uop)
{
    const DynInst &tail = uop.dyn;
    const bool tail_store = tail.isStore();
    const uint64_t t_begin = tail.effAddr;
    const uint64_t t_end = t_begin + tail.memSize();

    Nucleus *found = nullptr;
    uint64_t span_begin = 0, span_end = 0;
    for (auto it = window.rbegin(); it != window.rend(); ++it) {
        Nucleus &head = *it;
        if (tail.seq - head.seq > oracleDistance)
            break;
        if (head.isStore != tail_store)
            continue;

        bool ok = !head.fused && !head.claimed;
        const uint64_t begin = std::min(head.begin, t_begin);
        const uint64_t end = std::max(head.end, t_end);
        if (ok)
            ok = end - begin <= regionBytes;
        // Different-base store pairs need a fourth source register;
        // only fusable when the DBR ablation knob is on.
        if (ok && tail_store && !fuseDbrStores &&
            head.baseReg != tail.inst.baseReg())
            ok = false;
        // Statically-dependent loads never fuse (Section II-B).
        if (ok && !tail_store && head.writesRd &&
            head.rd == tail.inst.baseReg())
            ok = false;
        // Never hoist a tail load over a catalyst store writing bytes
        // the pair reads (mirrors the pipeline's oracle).
        if (ok && !tail_store) {
            for (const Nucleus &mid : window) {
                if (mid.seq <= head.seq || mid.seq >= tail.seq ||
                    !mid.isStore)
                    continue;
                if (rangesOverlap(mid.begin, mid.end, begin, end)) {
                    ok = false;
                    break;
                }
            }
        }
        if (ok) {
            found = &head;
            span_begin = begin;
            span_end = end;
            break;
        }
        // Stores may only pair with the nearest older store.
        if (tail_store)
            break;
    }
    (void)span_begin;
    (void)span_end;

    if (!found)
        return;
    found->claimed = true;
    const MissReason reason =
        classifyMiss(uop, tail.seq - found->seq);
    ++site(tail.pc).missed[size_t(reason)];
    ++result.missedTotals[size_t(reason)];
}

void
FusionProfiler::onCommit(const Uop &uop, uint64_t)
{
    ++site(uop.dyn.pc).executions;
    current.instructions += uop.archInsts();
    ++current.uops;

    if (uop.hasTail) {
        ++site(uop.tailDyn.pc).executions;

        PairClass cls;
        switch (uop.fusion) {
          case FusionKind::CsfOther:
            cls = PairClass::Csf;
            break;
          case FusionKind::CsfMem:
            cls = PairClass::Sbr;
            break;
          case FusionKind::NcsfMem:
          default: {
            const uint64_t distance = uop.tailDyn.seq - uop.dyn.seq;
            if (distance == 1)
                cls = PairClass::Nctf;
            else if (uop.dyn.inst.baseReg() !=
                     uop.tailDyn.inst.baseReg())
                cls = PairClass::Dbr;
            else
                cls = PairClass::Ncsf;
            break;
          }
        }
        ++site(uop.dyn.pc).fused[size_t(cls)];
        ++site(uop.tailDyn.pc).fusedTail;
        ++result.fusedTotals[size_t(cls)];
        ++current.fusedPairs;

        // Fused nuclei enter the oracle window claimed: the machine
        // already paired them, so they are not part of the gap.
        if (uop.dyn.inst.isMem())
            pushNucleus(uop.dyn, /*fused=*/true);
        if (uop.tailDyn.inst.isMem())
            pushNucleus(uop.tailDyn, /*fused=*/true);
        return;
    }

    if (uop.dyn.inst.isMem()) {
        // Unfused committed memory µ-op: the oracle finder looks for
        // the partner the machine did not take.
        oracleScan(uop);
        pushNucleus(uop.dyn, /*fused=*/false);
    }
}

void
FusionProfiler::onSquash(const Uop &uop, uint64_t, const char *)
{
    ++site(uop.dyn.pc).squashes;
}

void
FusionProfiler::onPredictorAttempt(uint64_t tail_pc)
{
    ++site(tail_pc).attempts;
}

void
FusionProfiler::onPredictorMispredict(uint64_t tail_pc)
{
    ++site(tail_pc).mispredicts;
}

void
FusionProfiler::onPredictorBreak(uint64_t tail_pc, ProfBreak reason)
{
    ++site(tail_pc).breaks[profBreakName(reason)];
}

void
FusionProfiler::onFinish(bool, uint64_t total_cycles)
{
    helios_assert(!finalized, "profiler finalized twice");
    finalized = true;
    // The trailing partial window; with sampling off (windowCycles 0)
    // there is no time series at all.
    if (windowCycles)
        closeWindow();

    result.windowCycles = windowCycles;
    result.totalCycles = total_cycles;
    result.sites.reserve(siteMap.size());
    for (auto &[pc, entry] : siteMap)
        result.sites.push_back(std::move(entry));
    siteMap.clear();
    std::sort(result.sites.begin(), result.sites.end(),
              [](const ProfileSite &a, const ProfileSite &b) {
                  return a.pc < b.pc;
              });
}

} // namespace helios
