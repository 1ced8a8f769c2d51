#include "harness/run_report.hh"

#include <filesystem>
#include <fstream>

#include "common/logging.hh"
#include "harness/differential.hh"
#include "telemetry/host_metrics.hh"
#include "uarch/params.hh"

namespace helios
{

// ---------------------------------------------------------------------
// Histogram <-> JSON
// ---------------------------------------------------------------------

namespace
{

const char *const kSchema = "helios-run-report";

JsonValue
histogramToJson(const Histogram &hist)
{
    JsonValue value = JsonValue::object();

    JsonValue bounds = JsonValue::array();
    for (uint64_t bound : hist.bucketBounds())
        bounds.push(JsonValue(bound));
    value.set("bounds", std::move(bounds));

    JsonValue counts = JsonValue::array();
    for (size_t i = 0; i < hist.numBuckets(); ++i)
        counts.push(JsonValue(hist.bucketCount(i)));
    value.set("counts", std::move(counts));

    value.set("samples", JsonValue(hist.samples()));
    value.set("sum", JsonValue(hist.sum()));
    value.set("min", JsonValue(hist.minValue()));
    value.set("max", JsonValue(hist.maxValue()));
    return value;
}

Histogram
histogramFromJson(const JsonValue &value)
{
    const JsonValue &bounds = value.at("bounds");
    std::vector<uint64_t> upper;
    upper.reserve(bounds.size());
    for (size_t i = 0; i < bounds.size(); ++i)
        upper.push_back(bounds.at(i).asUint());
    Histogram hist{std::move(upper)};

    const JsonValue &counts = value.at("counts");
    if (counts.size() != hist.numBuckets())
        fatal("run report: histogram bucket count mismatch "
              "(%zu counts for %zu buckets)",
              counts.size(), hist.numBuckets());
    std::vector<uint64_t> bucket_counts;
    bucket_counts.reserve(counts.size());
    for (size_t i = 0; i < counts.size(); ++i)
        bucket_counts.push_back(counts.at(i).asUint());

    hist.restore(bucket_counts, value.at("samples").asUint(),
                 value.at("sum").asUint(), value.at("min").asUint(),
                 value.at("max").asUint());
    return hist;
}

JsonValue
statsToJson(const StatGroup &stats)
{
    JsonValue counters = JsonValue::object();
    for (const auto &[name, count] : stats.dump())
        counters.set(name, JsonValue(count));
    return counters;
}

} // namespace

// ---------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------

double
RunReport::fusionCoverage() const
{
    const uint64_t pairs = stats.get("pairs.csf_mem") +
                           stats.get("pairs.csf_other") +
                           stats.get("pairs.ncsf");
    return instructions ? 2.0 * double(pairs) / double(instructions)
                        : 0.0;
}

JsonValue
RunReport::toJson() const
{
    JsonValue value = JsonValue::object();
    value.set("workload", JsonValue(workload));
    value.set("mode", JsonValue(mode));
    value.set("max_insts", JsonValue(maxInsts));

    value.set("cycles", JsonValue(cycles));
    value.set("instructions", JsonValue(instructions));
    value.set("uops", JsonValue(uops));
    value.set("ipc", JsonValue(ipc));
    value.set("fusion_coverage", JsonValue(fusionCoverage()));

    value.set("arch_checksum", JsonValue(archChecksum));
    value.set("mem_checksum", JsonValue(memChecksum));
    value.set("hart_instructions", JsonValue(hartInstructions));
    value.set("exited", JsonValue(exited));
    value.set("exit_code", JsonValue(exitCode));
    value.set("program_hash", JsonValue(programHash));
    value.set("config_hash", JsonValue(configHash));

    value.set("audited", JsonValue(audited));
    value.set("audit_checks", JsonValue(auditChecks));
    value.set("audit_violations", JsonValue(auditViolations));

    value.set("counters", statsToJson(stats));

    JsonValue histograms = JsonValue::object();
    for (const auto &[name, hist] : stats.dumpHistograms())
        histograms.set(name, histogramToJson(*hist));
    value.set("histograms", std::move(histograms));

    // The CPI stack is derived from the cpi.* counters; serialize the
    // rendered form too so downstream tooling does not need to know
    // the attribution scheme.
    JsonValue cpi = JsonValue::object();
    const CpiStack stack = cpiStack();
    for (size_t i = 0; i < stack.size(); ++i)
        cpi.set(stack.name(i), JsonValue(stack.cycles(i)));
    value.set("cpi_stack", std::move(cpi));

    // Schema v2: the profile section is optional so unprofiled runs
    // serialize exactly as v1 did (minus the version stamp).
    if (profiled)
        value.set("profile", profile.toJson());

    // Schema v5: the sampled section is optional so full-run reports
    // serialize exactly as v4 did (minus the version stamp).
    if (!sampled.isNull())
        value.set("sampled", sampled);
    return value;
}

RunReport
RunReport::fromJson(const JsonValue &value)
{
    RunReport report;
    report.workload = value.at("workload").asString();
    report.mode = value.at("mode").asString();
    report.maxInsts = value.at("max_insts").asUint();

    report.cycles = value.at("cycles").asUint();
    report.instructions = value.at("instructions").asUint();
    report.uops = value.at("uops").asUint();
    report.ipc = value.at("ipc").asDouble();

    report.archChecksum = value.at("arch_checksum").asUint();
    report.memChecksum = value.at("mem_checksum").asUint();
    report.hartInstructions = value.at("hart_instructions").asUint();
    report.exited = value.at("exited").asBool();
    report.exitCode = value.at("exit_code").asUint();
    // Additive in schema v2: absent from pre-ELF-frontend files.
    if (value.has("program_hash"))
        report.programHash = value.at("program_hash").asUint();
    // Additive in schema v4: absent from pre-ledger files.
    if (value.has("config_hash"))
        report.configHash = value.at("config_hash").asUint();

    report.audited = value.at("audited").asBool();
    report.auditChecks = value.at("audit_checks").asUint();
    report.auditViolations = value.at("audit_violations").asUint();

    for (const auto &[name, count] : value.at("counters").members())
        report.stats.counter(name) += count.asUint();

    for (const auto &[name, hist] : value.at("histograms").members())
        report.stats.histogram(name, histogramFromJson(hist));

    if (value.has("profile")) {
        report.profiled = true;
        report.profile = ProfileData::fromJson(value.at("profile"));
    }
    // Additive in schema v5; carried opaquely (decoded on demand by
    // SampledResult::fromJson).
    if (value.has("sampled"))
        report.sampled = value.at("sampled");
    return report;
}

bool
RunReport::operator==(const RunReport &other) const
{
    if (workload != other.workload || mode != other.mode ||
        maxInsts != other.maxInsts || cycles != other.cycles ||
        instructions != other.instructions || uops != other.uops ||
        ipc != other.ipc || archChecksum != other.archChecksum ||
        memChecksum != other.memChecksum ||
        hartInstructions != other.hartInstructions ||
        exited != other.exited || exitCode != other.exitCode ||
        programHash != other.programHash ||
        configHash != other.configHash ||
        audited != other.audited || auditChecks != other.auditChecks ||
        auditViolations != other.auditViolations ||
        profiled != other.profiled || !(profile == other.profile) ||
        !(sampled == other.sampled))
        return false;
    if (stats.dump() != other.stats.dump())
        return false;
    const auto mine = stats.dumpHistograms();
    const auto theirs = other.stats.dumpHistograms();
    if (mine.size() != theirs.size())
        return false;
    for (size_t i = 0; i < mine.size(); ++i) {
        if (mine[i].first != theirs[i].first ||
            !(*mine[i].second == *theirs[i].second))
            return false;
    }
    return true;
}

RunReport
makeRunReport(const RunResult &result, uint64_t max_insts)
{
    RunReport report;
    report.workload = result.workload;
    report.mode = fusionModeName(result.mode);
    report.maxInsts = max_insts;
    report.cycles = result.cycles;
    report.instructions = result.instructions;
    report.uops = result.uops;
    report.ipc = result.ipc();
    report.archChecksum = result.archChecksum;
    report.memChecksum = result.memChecksum;
    report.hartInstructions = result.hartInstructions;
    report.exited = result.exited;
    report.exitCode = result.exitCode;
    report.programHash = result.programHash;
    report.configHash = result.configHash;
    report.audited = result.audited;
    report.auditChecks = result.auditChecks;
    report.auditViolations = result.auditViolations.size();
    report.stats = result.stats;
    report.profiled = result.profiled;
    report.profile = result.profile;
    return report;
}

// ---------------------------------------------------------------------
// ReportVerdict
// ---------------------------------------------------------------------

JsonValue
ReportVerdict::toJson() const
{
    JsonValue value = JsonValue::object();
    value.set("workload", JsonValue(workload));
    value.set("mode", JsonValue(mode));
    value.set("check", JsonValue(check));
    value.set("detail", JsonValue(detail));
    return value;
}

ReportVerdict
ReportVerdict::fromJson(const JsonValue &value)
{
    ReportVerdict verdict;
    verdict.workload = value.at("workload").asString();
    verdict.mode = value.at("mode").asString();
    verdict.check = value.at("check").asString();
    verdict.detail = value.at("detail").asString();
    return verdict;
}

// ---------------------------------------------------------------------
// RunReportFile
// ---------------------------------------------------------------------

void
RunReportFile::add(const RunResult &result, uint64_t max_insts)
{
    runs.push_back(makeRunReport(result, max_insts));
}

void
RunReportFile::addDifferential(const DiffReport &report,
                               uint64_t max_insts)
{
    for (const RunResult &result : report.results)
        add(result, max_insts);
    for (const DiffViolation &violation : report.violations) {
        ReportVerdict verdict;
        verdict.workload = violation.workload;
        verdict.mode = fusionModeName(violation.mode);
        verdict.check = violation.check;
        verdict.detail = violation.detail;
        verdicts.push_back(std::move(verdict));
    }
}

const RunReport *
RunReportFile::find(const std::string &workload,
                    const std::string &mode) const
{
    for (const RunReport &run : runs)
        if (run.workload == workload && run.mode == mode)
            return &run;
    return nullptr;
}

JsonValue
RunReportFile::toJson() const
{
    JsonValue value = JsonValue::object();
    value.set("schema", JsonValue(kSchema));
    value.set("version", JsonValue(uint64_t(version)));
    value.set("generator", JsonValue(generator));

    JsonValue run_array = JsonValue::array();
    for (const RunReport &run : runs)
        run_array.push(run.toJson());
    value.set("runs", std::move(run_array));

    JsonValue verdict_array = JsonValue::array();
    for (const ReportVerdict &verdict : verdicts)
        verdict_array.push(verdict.toJson());
    value.set("verdicts", std::move(verdict_array));

    // Schema v3: host telemetry is optional so reports produced with
    // host metrics off serialize exactly as v2 did (minus the stamp).
    if (!host.isNull())
        value.set("host", host);
    return value;
}

namespace
{

/**
 * The one conversion behind fromJson(), fromJsonText() and load():
 * the schema, version and generator are judged from @a head before
 * anything else, then each run and each verdict that @a for_each
 * reaches is converted in turn. @a head holds the root's members but
 * for the runs and verdicts, which it may or may not hold.
 */
template <typename ForEach>
RunReportFile
readFile(const JsonValue &head, ForEach for_each)
{
    if (head.get("schema").asString() != kSchema)
        fatal("run report: not a helios-run-report file");
    RunReportFile file;
    file.version = unsigned(head.at("version").asUint());
    if (file.version > kRunReportVersion)
        fatal("run report: schema version %u is newer than this "
              "build understands (%u)",
              file.version, kRunReportVersion);
    file.generator = head.get("generator").isString()
                         ? head.get("generator").asString()
                         : std::string();

    for_each("runs", [&](const JsonValue &run) {
        file.runs.push_back(RunReport::fromJson(run));
    });
    for_each("verdicts", [&](const JsonValue &verdict) {
        file.verdicts.push_back(ReportVerdict::fromJson(verdict));
    });

    // Additive in schema v3; carried opaquely (the host section
    // describes the producing machine, not the simulated result).
    if (head.has("host"))
        file.host = head.at("host");
    return file;
}

/**
 * The one writer behind toJsonText() and save(): the bytes of
 * toJson().dump(2, 2) + "\n", with each run's and each verdict's tree
 * built, written and dropped in turn. Depth 0 is the file object and
 * depth 1 its lists, so every run and verdict (depth 2) is written
 * compactly on a line of its own. The text collects in @a out, and
 * @a drain runs after each run and verdict and at the end, free to
 * take it away.
 */
template <typename Drain>
void
writeFile(const RunReportFile &file, std::string &out, Drain drain)
{
    JsonWriter writer(out, 2, 2);
    writer.beginObject();
    // The members in sorted order, as toJson()'s object holds them.
    writer.key("generator");
    writer.value(JsonValue(file.generator));
    if (!file.host.isNull()) {
        writer.key("host");
        writer.value(file.host);
    }
    writer.key("runs");
    writer.beginArray();
    for (const RunReport &run : file.runs) {
        writer.value(run.toJson());
        drain();
    }
    writer.end();
    writer.key("schema");
    writer.value(JsonValue(kSchema));
    writer.key("verdicts");
    writer.beginArray();
    for (const ReportVerdict &verdict : file.verdicts) {
        writer.value(verdict.toJson());
        drain();
    }
    writer.end();
    writer.key("version");
    writer.value(JsonValue(uint64_t(file.version)));
    writer.end();
    out += '\n';
    drain();
}

} // namespace

RunReportFile
RunReportFile::fromJson(const JsonValue &value)
{
    return readFile(value, [&](const char *key, const auto &visit) {
        const JsonValue &list = value.at(key);
        for (size_t i = 0; i < list.size(); ++i)
            visit(list.at(i));
    });
}

std::string
RunReportFile::toJsonText() const
{
    std::string text;
    writeFile(*this, text, [] {});
    return text;
}

RunReportFile
RunReportFile::fromJsonText(const std::string &text)
{
    // The reader checks all of the text before the head is judged;
    // then each run and verdict is parsed, converted and dropped.
    const JsonReader reader(text, {"runs", "verdicts"});
    return readFile(reader.head(),
                    [&](const char *key, const auto &visit) {
                        reader.forEach(key, visit);
                    });
}

void
RunReportFile::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("run report: cannot open '%s' for writing", path.c_str());
    std::string piece;
    writeFile(*this, piece, [&] {
        out.write(piece.data(), std::streamsize(piece.size()));
        piece.clear();
    });
    if (!out)
        fatal("run report: write to '%s' failed", path.c_str());
}

RunReportFile
RunReportFile::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("run report: cannot open '%s'", path.c_str());
    // One string of the file's size, read in place; whatever the size
    // did not cover (a pipe) follows in chunks.
    std::error_code ec;
    const uintmax_t size = std::filesystem::file_size(path, ec);
    std::string text(ec ? 0 : size_t(size), '\0');
    in.read(text.data(), std::streamsize(text.size()));
    text.resize(size_t(in.gcount()));
    char chunk[1 << 16];
    while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0)
        text.append(chunk, size_t(in.gcount()));
    return fromJsonText(text);
}

bool
RunReportFile::operator==(const RunReportFile &other) const
{
    return version == other.version && generator == other.generator &&
           runs == other.runs && verdicts == other.verdicts &&
           host == other.host;
}

void
attachHostSection(RunReportFile &file)
{
    if (HostMetrics::global().enabled())
        file.host = HostMetrics::global().toJson();
}

} // namespace helios
