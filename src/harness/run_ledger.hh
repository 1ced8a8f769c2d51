/**
 * @file
 * RunReport-shaped glue between the harness and the run ledger.
 *
 * The ledger itself (ledger/ledger.hh) stores opaque meta + blob
 * text; this layer gives finished runs their canonical ledger shape:
 * key = (program hash, config hash, normalized budget, build stamp),
 * meta = the queryable headline fields `helios_db trend` works over,
 * blob = a single-run RunReportFile so `helios_db show`/`diff` can
 * reconstruct the full report without re-simulating.
 *
 * Recording happens strictly after a run finishes — it reads results,
 * never influences them — so arming the ledger is observer-effect
 * free by construction (tier-1 guarded).
 */

#ifndef HARNESS_RUN_LEDGER_HH
#define HARNESS_RUN_LEDGER_HH

#include <cstdint>
#include <string>

#include "harness/runner.hh"

namespace helios
{

struct SampledResult;

/** What a recording attempt did. */
enum class LedgerOutcome
{
    Disarmed, ///< no global ledger armed; nothing happened
    Recorded, ///< new record appended
    Hit,      ///< key already present; nothing written
};

/**
 * Record one finished timing run into the armed global ledger (no-op
 * when disarmed). The budget is normalized: UINT64_MAX (run to
 * completion) is stored as 0, matching the report-file `max_insts`
 * convention.
 */
LedgerOutcome recordRunToLedger(const RunResult &result,
                                uint64_t max_insts);

/**
 * Record one finished functional-only run. Functional runs carry no
 * CoreParams, so the config hash is 0 and the mode is "functional";
 * the blob is a small JSON document of the architectural outcome.
 */
LedgerOutcome recordFunctionalToLedger(const std::string &workload,
                                       const FunctionalResult &result,
                                       uint64_t max_insts);

/**
 * Record one finished sampled run (harness/sampling.hh). A sampled
 * result answers a different question than a full run of the same
 * (program, config, budget) — it is an estimate over a sampling spec —
 * so the spec hash is folded into the key's config hash and the
 * budget is the sampled frame (SamplingSpec::totalBudget). The blob
 * is a single-run schema-v5 RunReportFile with the full `sampled`
 * section.
 */
LedgerOutcome recordSampledToLedger(const SampledResult &result);

} // namespace helios

#endif // HARNESS_RUN_LEDGER_HH
