#include "harness/run_ledger.hh"

#include "common/bits.hh"
#include "harness/run_report.hh"
#include "harness/sampling.hh"
#include "ledger/ledger.hh"
#include "telemetry/host_metrics.hh"

namespace helios
{

namespace
{

uint64_t
normalizeBudget(uint64_t max_insts)
{
    return max_insts == UINT64_MAX ? 0 : max_insts;
}

} // namespace

LedgerOutcome
recordRunToLedger(const RunResult &result, uint64_t max_insts)
{
    Ledger *ledger = Ledger::global();
    if (!ledger)
        return LedgerOutcome::Disarmed;

    const uint64_t budget = normalizeBudget(max_insts);
    RunReport report = makeRunReport(result, budget);

    LedgerKey key;
    key.programHash = result.programHash;
    key.configHash = result.configHash;
    key.budget = budget;
    key.build = buildInfo().gitHash;

    JsonValue meta = JsonValue::object();
    meta.set("workload", JsonValue(report.workload));
    meta.set("mode", JsonValue(report.mode));
    meta.set("ipc", JsonValue(report.ipc));
    meta.set("fusion_coverage", JsonValue(report.fusionCoverage()));
    meta.set("instructions", JsonValue(report.instructions));
    meta.set("cycles", JsonValue(report.cycles));
    meta.set("uops", JsonValue(report.uops));

    RunReportFile file;
    file.generator = "helios-ledger";
    file.runs.push_back(std::move(report));

    return ledger->record(key, std::move(meta), file.toJsonText())
               ? LedgerOutcome::Recorded
               : LedgerOutcome::Hit;
}

LedgerOutcome
recordFunctionalToLedger(const std::string &workload,
                         const FunctionalResult &result,
                         uint64_t max_insts)
{
    Ledger *ledger = Ledger::global();
    if (!ledger)
        return LedgerOutcome::Disarmed;

    const uint64_t budget = normalizeBudget(max_insts);
    const std::string mode = "functional";

    LedgerKey key;
    key.programHash = result.programHash;
    key.configHash = 0; // functional runs have no CoreParams
    key.budget = budget;
    key.build = buildInfo().gitHash;

    JsonValue meta = JsonValue::object();
    meta.set("workload", JsonValue(workload));
    meta.set("mode", JsonValue(mode));
    meta.set("instructions", JsonValue(result.instructions));

    JsonValue blob = JsonValue::object();
    blob.set("workload", JsonValue(workload));
    blob.set("mode", JsonValue(mode));
    blob.set("max_insts", JsonValue(budget));
    blob.set("instructions", JsonValue(result.instructions));
    blob.set("arch_checksum", JsonValue(result.archChecksum));
    blob.set("mem_checksum", JsonValue(result.memChecksum));
    blob.set("exited", JsonValue(result.exited));
    blob.set("exit_code", JsonValue(result.exitCode));
    blob.set("program_hash", JsonValue(result.programHash));

    return ledger->record(key, std::move(meta), blob.dump(2) + "\n")
               ? LedgerOutcome::Recorded
               : LedgerOutcome::Hit;
}

LedgerOutcome
recordSampledToLedger(const SampledResult &result)
{
    Ledger *ledger = Ledger::global();
    if (!ledger)
        return LedgerOutcome::Disarmed;

    RunReport report = makeSampledRunReport(result);

    LedgerKey key;
    key.programHash = result.programHash;
    // Same program + config sampled under a different spec is a
    // different estimate; fold the spec hash in so the records
    // coexist (and never collide with a full run's record either).
    const uint64_t spec_hash = result.spec.specHash();
    key.configHash =
        fnv1a(&spec_hash, sizeof(spec_hash), result.configHash);
    key.budget = result.spec.totalBudget;
    key.build = buildInfo().gitHash;

    JsonValue meta = JsonValue::object();
    meta.set("workload", JsonValue(report.workload));
    meta.set("mode", JsonValue(report.mode));
    meta.set("sampled", JsonValue(true));
    meta.set("ipc", JsonValue(result.ipc.mean));
    meta.set("ipc_ci95_half", JsonValue(result.ipc.ci95Half));
    meta.set("fusion_coverage", JsonValue(result.coverage.mean));
    meta.set("interval", JsonValue(result.spec.intervalInsts));
    meta.set("warmup", JsonValue(result.spec.warmupInsts));
    meta.set("samples", JsonValue(uint64_t(result.intervals.size())));
    meta.set("instructions", JsonValue(result.measuredInstructions));
    meta.set("cycles", JsonValue(result.measuredCycles));
    meta.set("uops", JsonValue(result.measuredUops));

    RunReportFile file;
    file.generator = "helios-ledger";
    file.runs.push_back(std::move(report));

    return ledger->record(key, std::move(meta), file.toJsonText())
               ? LedgerOutcome::Recorded
               : LedgerOutcome::Hit;
}

} // namespace helios
