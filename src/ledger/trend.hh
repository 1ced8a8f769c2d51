/**
 * @file
 * Trend analysis over a run ledger: any numeric meta field (IPC,
 * fusion coverage, cells/s, peak RSS, ...) as an append-order series
 * per workload × configuration, with regression flagging of the
 * latest point against a rolling window of its predecessors.
 *
 * `helios_db trend` runs it over a ledger's history: a latest point
 * that drifts past the tolerance relative to the rolling-window mean
 * exits 1. Pure computation over LedgerRecord meta — no I/O — so the
 * synthetic-history regression tests drive it directly.
 */

#ifndef LEDGER_TREND_HH
#define LEDGER_TREND_HH

#include <cstdint>
#include <string>
#include <vector>

namespace helios
{

class Ledger;

/** One observation of a metric (a ledger record's meta field). */
struct TrendPoint
{
    uint64_t seq = 0;    ///< ledger append order (the time axis)
    double value = 0.0;
    std::string build;   ///< build stamp the value was recorded under
};

/** One workload × configuration × budget series of a single metric.
 *  Budget is part of the grouping key: a budget-capped run and a
 *  run-to-completion of the same workload are different experiments,
 *  and mixing them would fabricate drift. */
struct TrendSeries
{
    std::string workload;
    std::string mode;
    uint64_t budget = 0;
    std::string metric;
    std::vector<TrendPoint> points; ///< seq-ascending
};

/** A latest point that drifted past tolerance vs its window. */
struct TrendFlag
{
    std::string workload;
    std::string mode;
    std::string metric;
    double latest = 0.0;
    double reference = 0.0; ///< rolling-window mean it was held to
    double delta = 0.0;     ///< (latest - reference) / reference
};

struct TrendOptions
{
    /** Rolling-window size: the latest point is compared against the
     *  mean of up to this many immediately preceding points. */
    size_t window = 5;
    /** Relative drift tolerance (0.02 = 2%). */
    double tolerance = 0.02;
    /** Direction of "worse": true flags drops (IPC, coverage,
     *  throughput), false flags rises (peak RSS, wall-clock). */
    bool higherIsBetter = true;
};

/**
 * Extract every (workload, mode) series of @a metric from the
 * ledger's records. Records whose meta lacks the metric (or carries a
 * non-number) are skipped. Series are ordered by first appearance;
 * points are seq-ascending.
 */
std::vector<TrendSeries> collectTrendSeries(const Ledger &ledger,
                                            const std::string &metric);

/**
 * Flag the latest point of @a series when it drifted past the
 * tolerance relative to the mean of its rolling window. A series with
 * fewer than two points has no history to drift from and never flags.
 * A zero reference (empty window mean) never flags — there is no
 * meaningful relative drift from zero.
 */
std::vector<TrendFlag> analyzeTrend(const TrendSeries &series,
                                    const TrendOptions &options);

} // namespace helios

#endif // LEDGER_TREND_HH
