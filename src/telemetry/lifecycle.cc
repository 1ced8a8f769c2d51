#include "telemetry/lifecycle.hh"

#include <algorithm>
#include <ostream>

#include "common/json.hh"
#include "common/logging.hh"
#include "isa/disasm.hh"
#include "telemetry/chrome_trace.hh"

namespace helios
{

namespace
{

/** The lifecycle stages a record can occupy, in pipeline order. */
struct StageSpan
{
    const char *name; ///< short stage mnemonic (Konata column)
    uint64_t begin;
    uint64_t end;
};

/**
 * Expand a record into its stage spans. Stages the µ-op never reached
 * (squash mid-flight) are dropped; spans are clamped so ends never
 * precede begins even for same-cycle transitions.
 */
std::vector<StageSpan>
stageSpans(const UopLifecycle &rec)
{
    // (name, stamp) in pipeline order; a zero stamp after fetch means
    // the µ-op never reached the stage (fetch itself can legitimately
    // be cycle 0).
    const std::pair<const char *, uint64_t> stamps[] = {
        {"F", rec.fetch},    {"A", rec.aqInsert}, {"R", rec.rename},
        {"Q", rec.dispatch}, {"X", rec.issue},    {"C", rec.complete},
    };
    std::vector<StageSpan> spans;
    uint64_t prev = rec.fetch;
    for (size_t i = 0; i < std::size(stamps); ++i) {
        const uint64_t begin = stamps[i].second;
        if (i > 0 && begin == 0)
            break; // squashed before reaching this stage
        uint64_t end = rec.retire;
        if (i + 1 < std::size(stamps) && stamps[i + 1].second != 0)
            end = stamps[i + 1].second;
        const uint64_t lo = std::max(begin, prev);
        spans.push_back({stamps[i].first, lo, std::max(end, lo)});
        prev = spans.back().end;
    }
    return spans;
}

const char *
fusionKindLabel(FusionKind kind)
{
    switch (kind) {
      case FusionKind::None: return "none";
      case FusionKind::CsfMem: return "CSF-mem";
      case FusionKind::CsfOther: return "CSF-idiom";
      case FusionKind::NcsfMem: return "NCSF";
    }
    return "?";
}

} // namespace

UopLifecycle
LifecycleTracer::capture(const Uop &uop) const
{
    UopLifecycle rec;
    rec.seq = uop.seq;
    rec.uid = uop.uid;
    rec.pc = uop.dyn->pc;
    rec.disasm = disassemble(uop.dyn->inst);
    rec.fetch = uop.fetchCycle;
    rec.aqInsert = uop.aqCycle;
    rec.rename = uop.renameCycle;
    rec.dispatch = uop.dispatchCycle;
    rec.issue = uop.issueCycle;
    rec.complete = uop.doneCycle;
    if (uop.hasTail) {
        rec.disasm += " + ";
        rec.disasm += disassemble(uop.tailDyn->inst);
        rec.fusion = uop.fusion;
        rec.idiom = uop.idiom;
        rec.pairSeq = uop.tailDyn->seq;
        rec.pairDistance = uop.tailDyn->seq - uop.seq;
        rec.catalystUops = rec.pairDistance ? rec.pairDistance - 1 : 0;
        rec.predicted = uop.fusion == FusionKind::NcsfMem;
    }
    return rec;
}

void
LifecycleTracer::onCommit(const Uop &uop, uint64_t cycle)
{
    UopLifecycle rec = capture(uop);
    rec.retire = cycle;
    log.push_back(std::move(rec));
    ++committed;
}

void
LifecycleTracer::onSquash(const Uop &uop, uint64_t cycle,
                          const char *reason)
{
    UopLifecycle rec = capture(uop);
    rec.retire = cycle;
    rec.squashed = true;
    rec.squashReason = reason ? reason : "squash";
    log.push_back(std::move(rec));
}

// ---------------------------------------------------------------------
// Chrome trace_event JSON (Perfetto / chrome://tracing)
// ---------------------------------------------------------------------

void
LifecycleTracer::writeChromeTrace(std::ostream &out) const
{
    // One complete ("X") event per stage span; timestamps are cycles
    // expressed as microseconds (Perfetto's native unit). µ-ops are
    // spread over a bank of tracks so concurrent lifetimes stack.
    constexpr unsigned numTracks = 32;
    ChromeTraceWriter trace(out, "ns");
    trace.metadata("process_name", 0, "helios pipeline");

    for (const UopLifecycle &rec : log) {
        const uint64_t tid = rec.seq % numTracks;
        JsonValue common_args = JsonValue::object();
        common_args.set("seq", rec.seq);
        common_args.set("pc", strFormat("0x%llx",
                                        (unsigned long long)rec.pc));
        common_args.set("disasm", rec.disasm);
        if (rec.fused()) {
            common_args.set("fusion", fusionKindLabel(rec.fusion));
            common_args.set("idiom", idiomName(rec.idiom));
            common_args.set("pair_seq", rec.pairSeq);
            common_args.set("pair_distance", rec.pairDistance);
            common_args.set("catalyst_uops", rec.catalystUops);
            common_args.set("predicted", rec.predicted);
        }
        if (rec.squashed)
            common_args.set("squash_reason", rec.squashReason);

        for (const StageSpan &span : stageSpans(rec))
            trace.span(strFormat("%s %llu: %s", span.name,
                                 (unsigned long long)rec.seq,
                                 rec.disasm.c_str()),
                       rec.squashed ? "squashed" : "uop", span.begin,
                       span.end - span.begin, tid, common_args);
        if (rec.squashed)
            trace.instant(strFormat("squash %llu (%s)",
                                    (unsigned long long)rec.seq,
                                    rec.squashReason.c_str()),
                          "squash", rec.retire, tid);
    }
}

// ---------------------------------------------------------------------
// Kanata pipeline-viewer text
// ---------------------------------------------------------------------

void
LifecycleTracer::writeKonata(std::ostream &out) const
{
    // The Kanata format is a cycle-ordered command stream; build the
    // command list with explicit cycles, sort, then emit with C
    // deltas. File ids are assigned in fetch order as Konata expects.
    struct Command
    {
        uint64_t cycle;
        uint64_t order; ///< stable tiebreak: file id * 8 + step
        std::string text;
    };

    std::vector<const UopLifecycle *> sorted;
    sorted.reserve(log.size());
    for (const UopLifecycle &rec : log)
        sorted.push_back(&rec);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const UopLifecycle *a, const UopLifecycle *b) {
                         return a->fetch != b->fetch
                                    ? a->fetch < b->fetch
                                    : a->seq < b->seq;
                     });

    std::vector<Command> commands;
    uint64_t retire_id = 1;
    for (size_t id = 0; id < sorted.size(); ++id) {
        const UopLifecycle &rec = *sorted[id];
        const uint64_t base = uint64_t(id) * 16;
        const auto spans = stageSpans(rec);

        commands.push_back(
            {rec.fetch, base + 0,
             strFormat("I\t%zu\t%llu\t0", id,
                       (unsigned long long)rec.seq)});
        commands.push_back(
            {rec.fetch, base + 1,
             strFormat("L\t%zu\t0\t0x%05llx: %s", id,
                       (unsigned long long)rec.pc,
                       rec.disasm.c_str())});
        std::string tip = strFormat("seq=%llu uid=%llu",
                                    (unsigned long long)rec.seq,
                                    (unsigned long long)rec.uid);
        if (rec.fused())
            tip += strFormat(" %s idiom=%s pair=%llu dist=%llu "
                             "catalysts=%llu%s",
                             fusionKindLabel(rec.fusion),
                             idiomName(rec.idiom),
                             (unsigned long long)rec.pairSeq,
                             (unsigned long long)rec.pairDistance,
                             (unsigned long long)rec.catalystUops,
                             rec.predicted ? " predicted" : "");
        if (rec.squashed)
            tip += " squashed: " + rec.squashReason;
        commands.push_back({rec.fetch, base + 2,
                            strFormat("L\t%zu\t1\t%s", id, tip.c_str())});

        uint64_t step = 3;
        for (const StageSpan &span : spans) {
            commands.push_back(
                {span.begin, base + step++,
                 strFormat("S\t%zu\t0\t%s", id, span.name)});
        }
        // Konata closes a stage when the next one starts; the last
        // stage needs an explicit end at retire.
        if (!spans.empty())
            commands.push_back(
                {std::max(spans.back().end, spans.back().begin),
                 base + step++,
                 strFormat("E\t%zu\t0\t%s", id,
                           spans.back().name)});
        commands.push_back(
            {rec.retire, base + step,
             strFormat("R\t%zu\t%llu\t%d", id,
                       (unsigned long long)
                           (rec.squashed ? 0 : retire_id),
                       rec.squashed ? 1 : 0)});
        if (!rec.squashed)
            ++retire_id;
    }

    std::stable_sort(commands.begin(), commands.end(),
                     [](const Command &a, const Command &b) {
                         return a.cycle != b.cycle
                                    ? a.cycle < b.cycle
                                    : a.order < b.order;
                     });

    out << "Kanata\t0004\n";
    uint64_t current = commands.empty() ? 0 : commands.front().cycle;
    out << "C=\t" << current << '\n';
    for (const Command &command : commands) {
        if (command.cycle != current) {
            out << "C\t" << command.cycle - current << '\n';
            current = command.cycle;
        }
        out << command.text << '\n';
    }
}

} // namespace helios
