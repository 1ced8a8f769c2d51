/**
 * @file
 * The benchmark's worker pool, the timer of the harness's own pool,
 * and small numeric helpers.
 */

#include <algorithm>
#include <atomic>
#include <exception>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "common/bits.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "telemetry/host_trace.hh"

namespace perfbench
{

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

std::vector<size_t>
seededOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    helios::Rng rng(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

void
Digest::add(uint64_t value)
{
    hash = helios::fnv1a(&value, sizeof(value), hash);
}

void
Digest::add(const std::string &text)
{
    add(uint64_t(text.size()));
    hash = helios::fnv1a(text.data(), text.size(), hash);
}

PassTiming
runPass(size_t n, unsigned workers, const std::function<void(size_t)> &op,
        Clock::time_point deadline)
{
    PassTiming timing;
    timing.opMs.assign(n, 0.0);
    timing.ran.assign(n, 0);
    timing.errors.assign(n, "");

    std::atomic<size_t> next{0};
    auto worker = [&](unsigned id) {
        setSpanWorker(id);
        for (;;) {
            if (Clock::now() >= deadline)
                return;
            const size_t index = next.fetch_add(1);
            if (index >= n)
                return;
            timing.ran[index] = 1;
            const Clock::time_point start = Clock::now();
            try {
                op(index);
            } catch (const std::exception &error) {
                timing.errors[index] = error.what();
                if (timing.errors[index].empty())
                    timing.errors[index] = "exception";
            } catch (...) {
                timing.errors[index] = "unknown exception";
            }
            timing.opMs[index] =
                secondsBetween(start, Clock::now()) * 1e3;
        }
    };

    // Joins on every exit path, including a failed thread start.
    struct Joiner
    {
        std::vector<std::thread> threads;
        ~Joiner()
        {
            for (std::thread &thread : threads)
                thread.join();
        }
    };

    const Clock::time_point start = Clock::now();
    {
        Joiner pool;
        const unsigned count = unsigned(std::min<size_t>(workers, n));
        for (unsigned id = 0; id < count; ++id)
            pool.threads.emplace_back(worker, id);
    }
    timing.wallS = secondsBetween(start, Clock::now());
    for (size_t i = 0; i < n; ++i)
        if (timing.ran[i])
            timing.busyS += timing.opMs[i] / 1e3;
    return timing;
}

PassTiming
timeHarnessCells(size_t cells, const std::function<void()> &call)
{
    PassTiming timing;
    timing.opMs.assign(cells, 0.0);
    timing.ran.assign(cells, 1);
    timing.errors.assign(cells, "");

    // The tracer records a span per cell and the sampler's fast-forward
    // (category "sampling"); start from an empty list for this call.
    helios::HostTracer &tracer = helios::HostTracer::global();
    tracer.enable();
    tracer.clear();
    std::string error;
    const Clock::time_point start = Clock::now();
    try {
        call();
    } catch (const std::exception &e) {
        error = *e.what() ? e.what() : "exception";
    }
    timing.wallS = secondsBetween(start, Clock::now());

    std::ostringstream trace;
    tracer.writeChromeTrace(trace);
    tracer.clear();
    const helios::JsonValue events =
        helios::JsonValue::parse(trace.str()).at("traceEvents");
    std::vector<char> timed(cells, 0);
    for (size_t e = 0; e < events.size(); ++e) {
        const helios::JsonValue &event = events.at(e);
        const helios::JsonValue &category = event.get("cat");
        if (!category.isString() || category.asString() != "cell")
            continue;
        // runMatrix names a cell span "cell <index> <workload>/<mode>".
        const size_t index =
            std::stoul(event.at("name").asString().substr(5));
        if (index < cells) {
            timing.opMs[index] = double(event.at("dur").asUint()) / 1e3;
            timed[index] = 1;
        }
    }
    for (size_t i = 0; i < cells; ++i) {
        if (!error.empty())
            timing.errors[i] = error;
        else if (!timed[i])
            timing.errors[i] = "runMatrix recorded no span for cell " +
                               std::to_string(i);
        timing.busyS += timing.opMs[i] / 1e3;
    }
    return timing;
}

} // namespace perfbench
