#include "common/stats.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace helios
{

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

Histogram::Histogram()
{
    bounds.reserve(32);
    for (int i = 0; i < 32; ++i)
        bounds.push_back(uint64_t(1) << i);
    buckets.assign(bounds.size() + 1, 0);
}

Histogram::Histogram(std::vector<uint64_t> upper_bounds)
    : bounds(std::move(upper_bounds))
{
    helios_assert(!bounds.empty(), "histogram needs at least one bucket");
    for (size_t i = 1; i < bounds.size(); ++i)
        helios_assert(bounds[i - 1] < bounds[i],
                      "histogram bounds must be strictly increasing");
    buckets.assign(bounds.size() + 1, 0);
}

Histogram
Histogram::linear(uint64_t max, uint64_t step)
{
    helios_assert(step > 0, "histogram step must be positive");
    std::vector<uint64_t> bounds;
    for (uint64_t bound = step; bound < max + step; bound += step)
        bounds.push_back(bound);
    return Histogram(std::move(bounds));
}

void
Histogram::addSample(uint64_t value, uint64_t weight)
{
    if (weight == 0)
        return;
    // First bucket whose inclusive upper bound covers the value;
    // everything above the last bound lands in the overflow bucket.
    const size_t index =
        std::lower_bound(bounds.begin(), bounds.end(), value) -
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

void
Histogram::merge(const Histogram &other)
{
    helios_assert(bounds == other.bounds,
                  "merging histograms with different bucket layouts");
    if (other.total == 0)
        return;
    for (size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    if (total == 0) {
        lo = other.lo;
        hi = other.hi;
    } else {
        lo = std::min(lo, other.lo);
        hi = std::max(hi, other.hi);
    }
    total += other.total;
    weightedSum += other.weightedSum;
}

double
Histogram::mean() const
{
    return total ? double(weightedSum) / double(total) : 0.0;
}

uint64_t
Histogram::percentile(double fraction) const
{
    if (total == 0)
        return 0;
    fraction = std::clamp(fraction, 0.0, 1.0);
    // Rank of the requested sample (1-based, ceil), so that
    // percentile(0.5) of {1, 2} is the first sample's bucket.
    const uint64_t rank = std::max<uint64_t>(
        1, uint64_t(fraction * double(total) + 0.999999));
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= rank) {
            // Report the tightest honest value for the bucket: its
            // bound, clamped into the observed sample range.
            const uint64_t bound = bucketBound(i);
            return std::min(bound, hi);
        }
    }
    return hi;
}

uint64_t
Histogram::bucketBound(size_t i) const
{
    return i < bounds.size() ? bounds[i] : UINT64_MAX;
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    total = weightedSum = lo = hi = 0;
}

void
Histogram::restore(const std::vector<uint64_t> &bucket_counts,
                   uint64_t total_samples, uint64_t weighted_sum,
                   uint64_t min_value, uint64_t max_value)
{
    helios_assert(bucket_counts.size() == buckets.size(),
                  "restoring histogram with wrong bucket count");
    buckets = bucket_counts;
    total = total_samples;
    weightedSum = weighted_sum;
    lo = min_value;
    hi = max_value;
}

std::string
Histogram::summary() const
{
    std::ostringstream out;
    out << "n=" << total;
    if (total) {
        out << " mean=" << strFormat("%.2f", mean())
            << " p50=" << percentile(0.50)
            << " p90=" << percentile(0.90)
            << " p99=" << percentile(0.99) << " max=" << hi;
    }
    return out.str();
}

bool
Histogram::operator==(const Histogram &other) const
{
    return bounds == other.bounds && buckets == other.buckets &&
           total == other.total && weightedSum == other.weightedSum &&
           lo == other.lo && hi == other.hi;
}

// ---------------------------------------------------------------------
// CpiStack
// ---------------------------------------------------------------------

void
CpiStack::addCategory(const std::string &name, uint64_t cycles)
{
    // Double-attribution guard: a category added twice would count its
    // cycles twice and silently break the partition invariant.
    for (const auto &[existing, _] : entries)
        helios_assert(existing != name,
                      "CpiStack category attributed twice");
    entries.emplace_back(name, cycles);
}

int64_t
CpiStack::residual() const
{
    uint64_t claimed = 0;
    for (const auto &[name, cycles] : entries)
        claimed += cycles;
    return int64_t(total) - int64_t(claimed);
}

uint64_t
CpiStack::cycles(const std::string &name) const
{
    for (const auto &[entry_name, cycles] : entries)
        if (entry_name == name)
            return cycles;
    return 0;
}

double
CpiStack::fraction(const std::string &name) const
{
    return total ? double(cycles(name)) / double(total) : 0.0;
}

double
CpiStack::fractionWithPrefix(const std::string &prefix) const
{
    if (!total)
        return 0.0;
    uint64_t sum = 0;
    for (const auto &[name, cycles] : entries)
        if (name.compare(0, prefix.size(), prefix) == 0)
            sum += cycles;
    return double(sum) / double(total);
}

std::string
CpiStack::dominant() const
{
    const std::pair<std::string, uint64_t> *best = nullptr;
    for (const auto &entry : entries)
        if (entry.second > 0 && (!best || entry.second > best->second))
            best = &entry;
    return best ? best->first : "";
}

std::string
CpiStack::toString() const
{
    std::vector<std::pair<std::string, uint64_t>> sorted = entries;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    size_t width = sizeof("TOTAL") - 1;
    for (const auto &[name, cycles] : sorted)
        width = std::max(width, name.size());

    std::ostringstream out;
    for (const auto &[name, cycles] : sorted) {
        out << name << std::string(width - name.size() + 2, ' ')
            << strFormat("%12llu  %5.1f%%\n",
                         (unsigned long long)cycles,
                         total ? 100.0 * double(cycles) / double(total)
                               : 0.0);
    }
    if (const int64_t rest = residual())
        out << "(residual)"
            << std::string(width - sizeof("(residual)") + 3, ' ')
            << strFormat("%12lld\n", (long long)rest);
    out << "TOTAL" << std::string(width - 5 + 2, ' ')
        << strFormat("%12llu  100.0%%\n", (unsigned long long)total);
    return out.str();
}

bool
CpiStack::operator==(const CpiStack &other) const
{
    return total == other.total && entries == other.entries;
}

// ---------------------------------------------------------------------
// StatGroup
// ---------------------------------------------------------------------

Stat &
StatGroup::counter(std::string_view name)
{
    auto it = counterIndex.find(name);
    if (it == counterIndex.end()) {
        it = counterIndex.emplace(name, counterSlots.size()).first;
        counterSlots.emplace_back();
    }
    return counterSlots[it->second];
}

uint64_t
StatGroup::get(const std::string &name) const
{
    const auto it = counterIndex.find(name);
    return it == counterIndex.end() ? 0
                                    : counterSlots[it->second].value();
}

Histogram &
StatGroup::histogram(const std::string &name)
{
    const auto [it, fresh] =
        histogramIndex.try_emplace(name, histogramSlots.size());
    if (fresh)
        histogramSlots.emplace_back();
    return histogramSlots[it->second];
}

Histogram &
StatGroup::histogram(const std::string &name, Histogram layout)
{
    const auto [it, fresh] =
        histogramIndex.try_emplace(name, histogramSlots.size());
    if (fresh)
        histogramSlots.push_back(std::move(layout));
    return histogramSlots[it->second];
}

const Histogram *
StatGroup::findHistogram(const std::string &name) const
{
    const auto it = histogramIndex.find(name);
    return it == histogramIndex.end() ? nullptr
                                      : &histogramSlots[it->second];
}

std::vector<std::pair<std::string, uint64_t>>
StatGroup::dump() const
{
    std::vector<std::pair<std::string, uint64_t>> result;
    result.reserve(counterIndex.size());
    for (const auto &[name, index] : counterIndex)
        result.emplace_back(name, counterSlots[index].value());
    std::sort(result.begin(), result.end());
    return result;
}

std::vector<std::pair<std::string, const Histogram *>>
StatGroup::dumpHistograms() const
{
    std::vector<std::pair<std::string, const Histogram *>> result;
    result.reserve(histogramIndex.size());
    for (const auto &[name, index] : histogramIndex)
        result.emplace_back(name, &histogramSlots[index]);
    std::sort(result.begin(), result.end());
    return result;
}

CpiStack
StatGroup::cpiStack(uint64_t total_cycles) const
{
    if (total_cycles == 0)
        total_cycles = get("cycles");
    CpiStack stack(total_cycles);
    for (const auto &[name, value] : dump())
        if (name.compare(0, 4, "cpi.") == 0)
            stack.addCategory(name, value);
    return stack;
}

void
StatGroup::resetAll()
{
    for (Stat &stat : counterSlots)
        stat.reset();
    for (Histogram &histogram : histogramSlots)
        histogram.reset();
}

std::string
StatGroup::toString() const
{
    const auto counters = dump();
    const auto histograms = dumpHistograms();
    size_t width = 0;
    for (const auto &[name, value] : counters)
        width = std::max(width, name.size());
    for (const auto &[name, histogram] : histograms)
        width = std::max(width, name.size());

    std::ostringstream out;
    for (const auto &[name, value] : counters) {
        out << name;
        out << std::string(width - name.size() + 2, ' ');
        out << value << '\n';
    }
    for (const auto &[name, histogram] : histograms) {
        out << name;
        out << std::string(width - name.size() + 2, ' ');
        out << histogram->summary() << '\n';
    }
    return out.str();
}

} // namespace helios
