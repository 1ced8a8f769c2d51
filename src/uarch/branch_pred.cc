#include "uarch/branch_pred.hh"

#include <algorithm>

namespace helios
{

// --------------------------------------------------------------------
// TAGE
// --------------------------------------------------------------------

Tage::Tage()
{
    base.resize(1u << baseBits);
    for (auto &counter : base)
        counter.set(2); // weakly taken
    // Geometric history lengths, 4 .. 181.
    unsigned length = 4;
    for (unsigned t = 0; t < numTables; ++t) {
        tagged[t].resize(1u << tableBits);
        historyWindows[t] = std::min(length, 63u);
        indexFold[t].init(historyWindows[t], tableBits);
        tagFold[t].init(historyWindows[t], tagBits);
        tagFold2[t].init(historyWindows[t], tagBits - 1);
        length = length * 17 / 10 + 1;
    }
}

unsigned
Tage::tableIndex(unsigned table, uint64_t pc) const
{
    return ((pc >> 2) ^ (pc >> (tableBits - 2)) ^ indexFold[table].value ^
            (pathHist >> (table + 1))) &
           ((1u << tableBits) - 1);
}

uint16_t
Tage::tableTag(unsigned table, uint64_t pc) const
{
    return ((pc >> 2) ^ tagFold[table].value ^
            (uint64_t(tagFold2[table].value) << 1)) &
           ((1u << tagBits) - 1);
}

bool
Tage::predict(uint64_t pc)
{
    last.provider = -1;
    last.altProvider = -1;

    for (int t = numTables - 1; t >= 0; --t) {
        last.indices[t] = tableIndex(t, pc);
        last.tags[t] = tableTag(t, pc);
    }

    for (int t = numTables - 1; t >= 0; --t) {
        const TaggedEntry &entry = tagged[t][last.indices[t]];
        if (entry.tag != last.tags[t])
            continue;
        if (last.provider < 0) {
            last.provider = t;
            last.providerPred = entry.ctr.predictTaken();
        } else if (last.altProvider < 0) {
            last.altProvider = t;
            last.altPred = entry.ctr.predictTaken();
            break;
        }
    }

    const bool base_pred = base[(pc >> 2) & ((1u << baseBits) - 1)]
                               .isHigh();
    if (last.provider < 0)
        return base_pred;
    if (last.altProvider < 0)
        last.altPred = base_pred;

    // Weak newly-allocated entries defer to the alternate prediction.
    const TaggedEntry &provider =
        tagged[last.provider][last.indices[last.provider]];
    if (provider.ctr.isWeak() && provider.useful.value() == 0)
        return last.altPred;
    return last.providerPred;
}

void
Tage::update(uint64_t pc, bool taken)
{
    const unsigned base_index = (pc >> 2) & ((1u << baseBits) - 1);

    if (last.provider >= 0) {
        TaggedEntry &provider = tagged[last.provider]
                                      [last.indices[last.provider]];
        const bool correct = last.providerPred == taken;
        provider.ctr.update(taken);
        if (last.providerPred != last.altPred) {
            if (correct)
                provider.useful.increment();
            else
                provider.useful.decrement();
        }
        // Allocate a longer-history entry on a misprediction.
        if (!correct)
            goto allocate;
        return;
    }

    // Bimodal provided the prediction.
    if (base[base_index].isHigh() != taken)
        goto allocate;
    base[base_index].set(
        taken ? std::min(3, base[base_index].value() + 1)
              : std::max(0, int(base[base_index].value()) - 1));
    return;

  allocate:
    if (taken)
        base[base_index].increment();
    else
        base[base_index].decrement();
    {
        const int start = last.provider + 1;
        for (unsigned t = start; t < numTables; ++t) {
            TaggedEntry &entry = tagged[t][last.indices[t]];
            if (entry.useful.value() == 0) {
                entry.tag = last.tags[t];
                entry.ctr.set(taken ? 0 : -1);
                entry.useful.reset();
                break;
            }
            entry.useful.decrement();
        }
    }
}

void
Tage::updateHistory(bool taken)
{
    const unsigned newest = taken ? 1 : 0;
    for (unsigned t = 0; t < numTables; ++t) {
        const unsigned outgoing =
            unsigned(ghist >> (historyWindows[t] - 1)) & 1;
        indexFold[t].update(newest, outgoing);
        tagFold[t].update(newest, outgoing);
        tagFold2[t].update(newest, outgoing);
    }
    ghist = (ghist << 1) | newest;
    pathHist = (pathHist << 1) ^ (taken ? 3 : 1);
}

// --------------------------------------------------------------------
// BTB
// --------------------------------------------------------------------

Btb::Btb()
{
    entries.resize(numSets * numWays);
}

uint64_t
Btb::lookup(uint64_t pc) const
{
    const unsigned set = (pc >> 2) & (numSets - 1);
    const uint64_t tag = pc >> 2;
    for (unsigned way = 0; way < numWays; ++way) {
        const Entry &entry = entries[set * numWays + way];
        if (entry.valid && entry.tag == tag)
            return entry.target;
    }
    return 0;
}

void
Btb::update(uint64_t pc, uint64_t target)
{
    const unsigned set = (pc >> 2) & (numSets - 1);
    const uint64_t tag = pc >> 2;
    ++tick;
    Entry *victim = nullptr;
    for (unsigned way = 0; way < numWays; ++way) {
        Entry &entry = entries[set * numWays + way];
        if (entry.valid && entry.tag == tag) {
            entry.target = target;
            entry.lru = tick;
            return;
        }
        if (!entry.valid) {
            victim = &entry;
        } else if (!victim ||
                   (victim->valid && entry.lru < victim->lru)) {
            victim = &entry;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->target = target;
    victim->lru = tick;
}

// --------------------------------------------------------------------
// RAS
// --------------------------------------------------------------------

void
ReturnAddressStack::push(uint64_t addr)
{
    top = (top + 1) % depth;
    stack[top] = addr;
    if (count < depth)
        ++count;
}

uint64_t
ReturnAddressStack::pop()
{
    if (count == 0)
        return 0;
    const uint64_t addr = stack[top];
    top = (top + depth - 1) % depth;
    --count;
    return addr;
}

// --------------------------------------------------------------------
// Combined predictor
// --------------------------------------------------------------------

bool
BranchPredictor::predictAndCheck(uint64_t pc, const Instruction &inst,
                                 bool taken, uint64_t target)
{
    ++lookups;
    bool correct = true;

    if (inst.isCondBranch()) {
        const bool pred_taken = tage.predict(pc);
        tage.update(pc, taken);
        tage.updateHistory(taken);
        if (pred_taken != taken) {
            correct = false;
        } else if (taken) {
            // Direction right: the target must come from the BTB.
            correct = btb.lookup(pc) == target;
        }
        // BTBs hold taken targets only.
        if (taken)
            btb.update(pc, target);
    } else if (inst.op == Op::Jal) {
        // Direct jump: target comes from the BTB (or decode); treat a
        // BTB miss as a (cheap, but modeled) front-end redirect.
        correct = btb.lookup(pc) == target;
        btb.update(pc, target);
        if (inst.rd == RegRa)
            ras.push(pc + 4);
    } else if (inst.op == Op::Jalr) {
        const bool is_return = inst.rd == RegZero && inst.rs1 == RegRa;
        if (is_return) {
            correct = !ras.empty() && ras.pop() == target;
        } else {
            correct = btb.lookup(pc) == target;
            btb.update(pc, target);
            if (inst.rd == RegRa)
                ras.push(pc + 4);
        }
    }

    if (!correct)
        ++mispredicts;
    return correct;
}

} // namespace helios
