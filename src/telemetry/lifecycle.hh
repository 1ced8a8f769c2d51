/**
 * @file
 * Per-µop lifecycle tracing: the telemetry layer's record of every
 * µ-op's journey through the pipeline, with fusion annotations, and
 * exporters for two standard pipeline-viewer formats:
 *
 *  - Kanata text (`writeKonata`), loadable in the Konata viewer
 *    (https://github.com/shioyadan/Konata);
 *  - Chrome `trace_event` JSON (`writeChromeTrace`), loadable in
 *    Perfetto / chrome://tracing.
 *
 * The tracer is a passive PipelineObserver (uarch/observer.hh):
 * attach it with Pipeline::attach(), and each commit or squash event
 * copies the timestamps the µ-op already carries.
 */

#ifndef TELEMETRY_LIFECYCLE_HH
#define TELEMETRY_LIFECYCLE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "uarch/observer.hh"

namespace helios
{

/** Completed lifecycle of one µ-op (committed or squashed). */
struct UopLifecycle
{
    uint64_t seq = 0;
    uint64_t uid = 0;
    uint64_t pc = 0;
    std::string disasm; ///< head nucleus (tail appended when fused)

    // Stage timestamps, in cycles. A µ-op squashed before reaching a
    // stage leaves the later stamps at 0.
    uint64_t fetch = 0;
    uint64_t aqInsert = 0; ///< decode done, inserted into the AQ
    uint64_t rename = 0;
    uint64_t dispatch = 0;
    uint64_t issue = 0;
    uint64_t complete = 0;
    uint64_t retire = 0;   ///< commit or squash cycle

    bool squashed = false;
    std::string squashReason;

    // ---- fusion annotations ----
    FusionKind fusion = FusionKind::None;
    Idiom idiom = Idiom::None;
    uint64_t pairSeq = 0;      ///< tail nucleus seq (0: unfused)
    uint64_t pairDistance = 0; ///< tail.seq - head.seq (0: unfused)
    uint64_t catalystUops = 0; ///< µ-ops between the nuclei
    /** A predicted-path (NCSF) pair: its head was named by Helios's
     *  fusion predictor or by OracleFusion's address oracle. */
    bool predicted = false;

    bool fused() const { return fusion != FusionKind::None; }
};

/**
 * Collects UopLifecycle records during a pipeline run and renders
 * them. Records are buffered in memory (one per committed or squashed
 * µ-op), so attach the tracer to bounded runs — every figure-scale
 * sweep runs with tracing off.
 */
class LifecycleTracer final : public PipelineObserver
{
  public:
    void onCommit(const Uop &uop, uint64_t cycle) override;
    void onSquash(const Uop &uop, uint64_t cycle,
                  const char *reason) override;

    const std::vector<UopLifecycle> &records() const { return log; }
    size_t numRecords() const { return log.size(); }
    size_t numCommitted() const { return committed; }
    size_t numSquashed() const { return log.size() - committed; }

    /** Chrome trace_event JSON ({"traceEvents": [...]}). */
    void writeChromeTrace(std::ostream &out) const;

    /** Kanata 0004 pipeline-viewer text. */
    void writeKonata(std::ostream &out) const;

  private:
    UopLifecycle capture(const Uop &uop) const;

    std::vector<UopLifecycle> log;
    size_t committed = 0;
};

} // namespace helios

#endif // TELEMETRY_LIFECYCLE_HH
