/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Each thread appends to its own buffer (registered once under a
 * mutex), so recording a span takes no lock. Buffers outlive their
 * threads: the pool starts fresh workers for every pass.
 */

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "bench.hh"

namespace perfbench
{

namespace
{

struct SpanRecord
{
    const char *name = nullptr;
    const char *tag = nullptr;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0: a root span
    uint64_t op = 0;     ///< operation the span belongs to
    unsigned window = 0;
    unsigned worker = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint64_t count = 0;
};

struct ThreadBuffer
{
    std::vector<SpanRecord> spans;
    std::vector<long> open; ///< indexes of this thread's open spans
};

std::mutex registryMutex;
std::vector<std::unique_ptr<ThreadBuffer>> buffers; // guarded
std::vector<std::string> windows{""};               // guarded; 0: off
std::atomic<unsigned> activeWindow{0};
std::atomic<uint64_t> nextId{1};
const Clock::time_point epoch = Clock::now();

thread_local ThreadBuffer *threadBuffer = nullptr;
thread_local unsigned threadWorker = 0;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

ThreadBuffer &
buffer()
{
    if (!threadBuffer) {
        std::lock_guard<std::mutex> lock(registryMutex);
        buffers.push_back(std::make_unique<ThreadBuffer>());
        threadBuffer = buffers.back().get();
    }
    return *threadBuffer;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

void
setSpanWindow(const std::string &window)
{
    if (window.empty()) {
        activeWindow = 0;
        return;
    }
    std::lock_guard<std::mutex> lock(registryMutex);
    windows.push_back(window);
    activeWindow = unsigned(windows.size() - 1);
}

void
setSpanWorker(unsigned worker)
{
    threadWorker = worker;
}

Span::Span(const char *name, bool new_op, const char *tag)
{
    const unsigned window = activeWindow.load(std::memory_order_relaxed);
    if (window == 0)
        return;
    ThreadBuffer &buf = buffer();
    SpanRecord rec;
    rec.name = name;
    rec.tag = tag;
    rec.id = nextId.fetch_add(1, std::memory_order_relaxed);
    rec.window = window;
    rec.worker = threadWorker;
    if (!buf.open.empty()) {
        const SpanRecord &parent = buf.spans[buf.open.back()];
        rec.parent = parent.id;
        rec.op = parent.op;
    }
    if (new_op || rec.op == 0)
        rec.op = rec.id;
    slot = long(buf.spans.size());
    buf.open.push_back(slot);
    rec.startNs = nowNs();
    buf.spans.push_back(rec);
}

Span::~Span()
{
    if (slot < 0)
        return;
    ThreadBuffer &buf = *threadBuffer;
    buf.spans[slot].endNs = nowNs();
    buf.open.pop_back();
}

void
Span::setCount(uint64_t count)
{
    if (slot >= 0)
        threadBuffer->spans[slot].count = count;
}

uint64_t
spanMark()
{
    return nextId.load();
}

LayerMap
aggregateSpans(const std::string &window, uint64_t first_id,
               uint64_t end_id)
{
    std::lock_guard<std::mutex> lock(registryMutex);
    std::vector<const SpanRecord *> spans;
    for (const auto &buf : buffers)
        for (const SpanRecord &rec : buf->spans)
            if (windows[rec.window] == window && rec.id >= first_id &&
                rec.id < end_id)
                spans.push_back(&rec);

    // Children run nested inside their parent on the parent's thread,
    // so the part of a span its children cover is their summed length.
    std::unordered_map<uint64_t, double> child_ns;
    for (const SpanRecord *rec : spans)
        if (rec->parent)
            child_ns[rec->parent] += double(rec->endNs - rec->startNs);

    LayerMap layers;
    for (const SpanRecord *rec : spans) {
        const double duration = double(rec->endNs - rec->startNs);
        const auto it = child_ns.find(rec->id);
        const double self =
            duration - (it == child_ns.end() ? 0.0 : it->second);
        auto add = [&](LayerTotals &totals) {
            totals.count += rec->count;
            totals.selfNs += self;
            totals.durationsNs.push_back(duration);
        };
        add(layers[rec->name]);
        if (rec->tag)
            add(layers[std::string(rec->name) + "." + rec->tag]);
    }
    return layers;
}

void
writeChromeTrace(const std::string &path)
{
    std::lock_guard<std::mutex> lock(registryMutex);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    bool first = true;
    auto sep = [&] {
        std::fprintf(out, first ? "  " : ",\n  ");
        first = false;
    };
    // One trace process per workload window.
    for (size_t w = 1; w < windows.size(); ++w) {
        sep();
        std::fprintf(out,
                     "{\"name\": \"process_name\", \"ph\": \"M\", "
                     "\"pid\": %zu, \"args\": {\"name\": \"%s\"}}",
                     w, jsonEscape(windows[w]).c_str());
    }
    for (const auto &buf : buffers) {
        for (const SpanRecord &rec : buf->spans) {
            sep();
            std::fprintf(out,
                         "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                         "\"pid\": %u, \"tid\": %u, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                         ", \"parent\": %" PRIu64 ", \"op\": %" PRIu64
                         ", \"count\": %" PRIu64 ", \"tag\": \"%s\"}}",
                         rec.name, jsonEscape(windows[rec.window]).c_str(),
                         rec.window, rec.worker, double(rec.startNs) / 1e3,
                         double(rec.endNs - rec.startNs) / 1e3, rec.id,
                         rec.parent, rec.op, rec.count,
                         rec.tag ? rec.tag : "");
        }
    }
    std::fprintf(out, "\n]}\n");
    if (std::fclose(out) != 0)
        throw std::runtime_error("cannot finish trace file " + path);
}

} // namespace perfbench
