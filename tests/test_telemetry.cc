/**
 * @file
 * Telemetry layer: histograms, exact CPI stacks, lifecycle tracing
 * and machine-readable run reports.
 *
 * The load-bearing guarantees under test:
 *  - the exact CPI stack partitions total cycles (residual 0) under
 *    every fusion mode;
 *  - attaching every pipeline observer and turning on histogram
 *    sampling changes NOTHING about the simulation (observer-effect
 *    guard, at the PipelineObserver interface: identical
 *    architectural state, counts and stat dump);
 *  - one lifecycle record per committed µ-op, and both trace export
 *    formats are well-formed;
 *  - RunReport files survive a save → parse round trip bit-exactly.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "common/stats.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"
#include "observed_run.hh"
#include "telemetry/lifecycle.hh"
#include "telemetry/profiler.hh"
#include "uarch/auditor.hh"

using namespace helios;

namespace
{

constexpr uint64_t smokeBudget = 20'000;

const FusionMode allModes[] = {FusionMode::None,
                               FusionMode::RiscvFusion,
                               FusionMode::CsfSbr,
                               FusionMode::RiscvFusionPP,
                               FusionMode::Helios,
                               FusionMode::Oracle};

/** A smoke-budget run; with a @a tracer, histogram sampling is on
 *  and the tracer is attached to the pipeline. */
RunResult
telemetryRun(const char *workload, FusionMode mode,
             LifecycleTracer *tracer)
{
    CoreParams params = CoreParams::icelake(mode);
    if (!tracer)
        return runOne(findWorkload(workload), params, smokeBudget);
    params.sampleHistograms = true;
    return observedRun(findWorkload(workload), params, smokeBudget,
                       {tracer});
}

} // namespace

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

TEST(Histogram, BucketBoundaries)
{
    Histogram hist({10, 20, 30});
    ASSERT_EQ(hist.numBuckets(), 4u); // 3 bounds + overflow

    hist.addSample(0);   // -> bucket 0 (bound 10)
    hist.addSample(10);  // -> bucket 0 (bounds are inclusive)
    hist.addSample(11);  // -> bucket 1 (bound 20)
    hist.addSample(30);  // -> bucket 2 (bound 30)
    hist.addSample(31);  // -> overflow
    hist.addSample(1000); // -> overflow

    EXPECT_EQ(hist.bucketCount(0), 2u);
    EXPECT_EQ(hist.bucketCount(1), 1u);
    EXPECT_EQ(hist.bucketCount(2), 1u);
    EXPECT_EQ(hist.bucketCount(3), 2u);
    EXPECT_EQ(hist.bucketBound(0), 10u);
    EXPECT_EQ(hist.bucketBound(3), UINT64_MAX);
    EXPECT_EQ(hist.samples(), 6u);
    EXPECT_EQ(hist.minValue(), 0u);
    EXPECT_EQ(hist.maxValue(), 1000u);
    EXPECT_EQ(hist.sum(), 0u + 10 + 11 + 30 + 31 + 1000);
}

TEST(Histogram, DefaultLayoutIsExponential)
{
    Histogram hist;
    hist.addSample(1);
    hist.addSample(2);
    hist.addSample(3);
    EXPECT_EQ(hist.bucketBound(0), 1u);
    EXPECT_EQ(hist.bucketBound(1), 2u);
    EXPECT_EQ(hist.bucketBound(2), 4u);
    EXPECT_EQ(hist.bucketCount(0), 1u);
    EXPECT_EQ(hist.bucketCount(1), 1u);
    EXPECT_EQ(hist.bucketCount(2), 1u); // 3 lands in (2, 4]
}

TEST(Histogram, LinearLayout)
{
    const Histogram layout = Histogram::linear(100, 25);
    EXPECT_EQ(layout.bucketBounds(),
              (std::vector<uint64_t>{25, 50, 75, 100}));
}

TEST(Histogram, WeightedSamplesAndMean)
{
    Histogram hist({4, 8});
    hist.addSample(2, 3); // three samples of value 2
    hist.addSample(8);
    EXPECT_EQ(hist.samples(), 4u);
    EXPECT_EQ(hist.sum(), 14u);
    EXPECT_DOUBLE_EQ(hist.mean(), 14.0 / 4.0);
}

TEST(Histogram, Merge)
{
    Histogram a({4, 8});
    Histogram b({4, 8});
    a.addSample(1);
    a.addSample(5);
    b.addSample(7);
    b.addSample(100);

    a.merge(b);
    EXPECT_EQ(a.samples(), 4u);
    EXPECT_EQ(a.bucketCount(0), 1u);
    EXPECT_EQ(a.bucketCount(1), 2u);
    EXPECT_EQ(a.bucketCount(2), 1u);
    EXPECT_EQ(a.minValue(), 1u);
    EXPECT_EQ(a.maxValue(), 100u);
    EXPECT_EQ(a.sum(), 1u + 5 + 7 + 100);
}

TEST(Histogram, Percentiles)
{
    Histogram hist(Histogram::linear(100, 1));
    for (uint64_t v = 1; v <= 100; ++v)
        hist.addSample(v);
    EXPECT_EQ(hist.percentile(0.50), 50u);
    EXPECT_EQ(hist.percentile(0.90), 90u);
    EXPECT_EQ(hist.percentile(0.99), 99u);
    EXPECT_EQ(hist.percentile(1.00), 100u);

    Histogram empty;
    EXPECT_EQ(empty.percentile(0.5), 0u);
}

TEST(Histogram, PercentileClampsToObservedMax)
{
    Histogram hist({1000});
    hist.addSample(3);
    // The quantile bucket's bound is 1000, but no sample exceeds 3.
    EXPECT_LE(hist.percentile(0.99), 3u);
}

// ---------------------------------------------------------------------
// CpiStack
// ---------------------------------------------------------------------

TEST(CpiStack, AdHocResidual)
{
    CpiStack stack(100);
    stack.addCategory("a", 60);
    stack.addCategory("b", 30);
    EXPECT_EQ(stack.residual(), 10);
    EXPECT_FALSE(stack.exact());
    EXPECT_DOUBLE_EQ(stack.fraction("a"), 0.6);
    EXPECT_EQ(stack.dominant(), "a");

    stack.addCategory("c", 10);
    EXPECT_TRUE(stack.exact());
}

TEST(CpiStack, DoubleAttributionAsserts)
{
    CpiStack stack(100);
    stack.addCategory("cpi.retiring", 60);
    // Adding the same category twice would double-count its cycles
    // and silently break the partition invariant; the debug assert
    // catches it at the source.
    EXPECT_DEATH(stack.addCategory("cpi.retiring", 40),
                 "attributed twice");
}

TEST(CpiStack, PrefixFractions)
{
    CpiStack stack(100);
    stack.addCategory("cpi.exec.load", 20);
    stack.addCategory("cpi.exec.store", 30);
    stack.addCategory("cpi.retiring", 50);
    EXPECT_DOUBLE_EQ(stack.fractionWithPrefix("cpi.exec."), 0.5);
    EXPECT_DOUBLE_EQ(stack.fractionWithPrefix("cpi."), 1.0);
}

TEST(CpiStack, ExactUnderEveryFusionMode)
{
    for (FusionMode mode : allModes) {
        const RunResult result = telemetryRun("qsort", mode, nullptr);
        const CpiStack stack = result.stats.cpiStack(result.cycles);
        EXPECT_EQ(stack.totalCycles(), result.cycles)
            << fusionModeName(mode);
        EXPECT_TRUE(stack.exact())
            << fusionModeName(mode) << " residual "
            << stack.residual();

        uint64_t claimed = 0;
        for (size_t i = 0; i < stack.size(); ++i)
            claimed += stack.cycles(i);
        EXPECT_EQ(claimed, result.cycles) << fusionModeName(mode);
    }
}

// ---------------------------------------------------------------------
// Observer effect and lifecycle tracing
// ---------------------------------------------------------------------

TEST(Telemetry, ObserverEffectGuard)
{
    // Every observer, attached together through the PipelineObserver
    // interface, plus histogram sampling, against a run with nothing
    // attached and sampling off. sha flushes often at this budget, so
    // squash, unfuse and fusion-mispredict events fire too.
    const Workload &workload = findWorkload("sha");
    for (FusionMode mode : allModes) {
        const char *name = fusionModeName(mode);
        CoreParams params = CoreParams::icelake(mode);
        const RunResult plain =
            observedRun(workload, params, smokeBudget, {});

        params.profileWindowCycles = 1000;
        params.sampleHistograms = true;
        PipelineAuditor auditor(params);
        FusionProfiler profiler(params);
        LifecycleTracer tracer;
        const RunResult observed = observedRun(
            workload, params, smokeBudget, {&auditor, &profiler, &tracer});

        EXPECT_EQ(plain.archChecksum, observed.archChecksum) << name;
        EXPECT_EQ(plain.memChecksum, observed.memChecksum) << name;
        EXPECT_EQ(plain.cycles, observed.cycles) << name;
        EXPECT_EQ(plain.instructions, observed.instructions) << name;
        EXPECT_EQ(plain.uops, observed.uops) << name;
        EXPECT_EQ(plain.stats.dump(), observed.stats.dump()) << name;

        // ...and each observer saw the whole run.
        EXPECT_TRUE(auditor.ok()) << name << ": " << auditor.toJson();
        EXPECT_GT(auditor.checksPerformed(), 0u) << name;
        EXPECT_EQ(profiler.data().totalCycles, observed.cycles) << name;
        EXPECT_GT(profiler.data().windows.size(), 1u) << name;
        EXPECT_EQ(tracer.numCommitted(), observed.uops) << name;
        EXPECT_EQ(plain.stats.findHistogram("occupancy.rob"), nullptr);
        const Histogram *rob =
            observed.stats.findHistogram("occupancy.rob");
        ASSERT_NE(rob, nullptr) << name;
        EXPECT_EQ(rob->samples(), observed.cycles) << name;
    }
}

TEST(Telemetry, OneRecordPerCommittedUop)
{
    LifecycleTracer tracer;
    const RunResult result =
        telemetryRun("qsort", FusionMode::Helios, &tracer);

    EXPECT_EQ(tracer.numCommitted(), result.stat("commit.uops"));
    EXPECT_EQ(tracer.numRecords(),
              tracer.numCommitted() + tracer.numSquashed());

    // Committed stamps are monotone through the pipeline.
    size_t fused = 0;
    for (const UopLifecycle &rec : tracer.records()) {
        if (rec.squashed)
            continue;
        EXPECT_LE(rec.fetch, rec.aqInsert);
        EXPECT_LE(rec.aqInsert, rec.rename);
        EXPECT_LE(rec.rename, rec.dispatch);
        EXPECT_LE(rec.dispatch, rec.issue);
        EXPECT_LE(rec.issue, rec.complete);
        EXPECT_LE(rec.complete, rec.retire);
        EXPECT_FALSE(rec.disasm.empty());
        if (rec.fused()) {
            ++fused;
            EXPECT_GT(rec.pairSeq, rec.seq);
            EXPECT_EQ(rec.pairDistance, rec.pairSeq - rec.seq);
            EXPECT_EQ(rec.catalystUops, rec.pairDistance - 1);
        }
    }
    // Helios fuses in qsort; the annotations must show up.
    EXPECT_GT(fused, 0u);

    const uint64_t pairs = result.stat("pairs.csf_mem") +
                           result.stat("pairs.csf_other") +
                           result.stat("pairs.ncsf");
    EXPECT_EQ(fused, pairs);
}

TEST(Telemetry, ChromeTraceIsValidJson)
{
    LifecycleTracer tracer;
    telemetryRun("crc32", FusionMode::Helios, &tracer);

    std::ostringstream out;
    tracer.writeChromeTrace(out);
    const JsonValue trace = JsonValue::parse(out.str());
    const JsonValue &events = trace.at("traceEvents");
    ASSERT_GT(events.size(), 0u);

    size_t spans = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const JsonValue &event = events.at(i);
        const std::string &phase = event.at("ph").asString();
        if (phase == "X") {
            ++spans;
            EXPECT_TRUE(event.at("dur").asUint() >= 1);
            EXPECT_TRUE(event.has("ts"));
            EXPECT_TRUE(event.at("args").has("seq"));
        }
    }
    EXPECT_GT(spans, tracer.numCommitted());
}

TEST(Telemetry, KonataHeaderAndCommands)
{
    LifecycleTracer tracer;
    telemetryRun("crc32", FusionMode::Helios, &tracer);

    std::ostringstream out;
    tracer.writeKonata(out);
    std::istringstream in(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "Kanata\t0004");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("C=\t", 0), 0u);

    size_t retires = 0;
    while (std::getline(in, line))
        if (line.rfind("R\t", 0) == 0)
            ++retires;
    EXPECT_EQ(retires, tracer.numRecords());
}

TEST(Telemetry, OccupancyHistogramsSampleEveryCycle)
{
    LifecycleTracer tracer;
    const RunResult result =
        telemetryRun("qsort", FusionMode::Helios, &tracer);

    for (const char *name : {"occupancy.rob", "occupancy.iq",
                             "occupancy.lq", "occupancy.sq"}) {
        const Histogram *hist = result.stats.findHistogram(name);
        ASSERT_NE(hist, nullptr) << name;
        EXPECT_EQ(hist->samples(), result.cycles) << name;
    }
    const Histogram *distance =
        result.stats.findHistogram("fusion.pair_distance");
    ASSERT_NE(distance, nullptr);
    EXPECT_EQ(distance->samples(), result.stat("pairs.ncsf") +
                                       result.stat("pairs.csf_mem") +
                                       result.stat("pairs.csf_other"));
}

// ---------------------------------------------------------------------
// JSON primitives
// ---------------------------------------------------------------------

TEST(Json, RoundTripPreservesExactIntegers)
{
    JsonValue object = JsonValue::object();
    object.set("big", JsonValue(UINT64_MAX));
    object.set("neg", JsonValue(int64_t{-42}));
    object.set("pi", JsonValue(3.25));
    object.set("text", JsonValue(std::string("a\"b\\c\n")));
    JsonValue list = JsonValue::array();
    list.push(JsonValue(true));
    list.push(JsonValue(nullptr));
    object.set("list", std::move(list));

    const JsonValue parsed = JsonValue::parse(object.dump(2));
    EXPECT_EQ(parsed, object);
    EXPECT_EQ(parsed.at("big").asUint(), UINT64_MAX);
    EXPECT_EQ(parsed.at("neg").asInt(), -42);
    EXPECT_EQ(parsed.at("text").asString(), "a\"b\\c\n");
}

TEST(Json, NumericCrossKindEquality)
{
    EXPECT_EQ(JsonValue(uint64_t{5}), JsonValue(5.0));
    EXPECT_NE(JsonValue(uint64_t{5}), JsonValue(5.5));
}

// ---------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------

TEST(RunReport, RoundTripEquality)
{
    LifecycleTracer tracer;
    RunReportFile file;
    file.generator = "test_telemetry";
    for (FusionMode mode : {FusionMode::None, FusionMode::Helios}) {
        const RunResult result = telemetryRun("qsort", mode, &tracer);
        file.add(result, smokeBudget);
    }

    const std::string text = file.toJsonText();
    const RunReportFile parsed = RunReportFile::fromJsonText(text);
    EXPECT_EQ(parsed, file);

    // And a second round trip is bit-identical text.
    EXPECT_EQ(parsed.toJsonText(), text);
}

TEST(RunReport, CarriesStatsHistogramsAndCpiStack)
{
    LifecycleTracer tracer;
    const RunResult result =
        telemetryRun("crc32", FusionMode::Helios, &tracer);
    const RunReport report = makeRunReport(result, smokeBudget);

    EXPECT_EQ(report.mode, "Helios");
    EXPECT_EQ(report.cycles, result.cycles);
    EXPECT_DOUBLE_EQ(report.ipc, result.ipc());
    EXPECT_EQ(report.stats.get("commit.uops"),
              result.stat("commit.uops"));
    EXPECT_NE(report.stats.findHistogram("occupancy.rob"), nullptr);

    const CpiStack stack = report.cpiStack();
    EXPECT_TRUE(stack.exact());
    EXPECT_EQ(stack.totalCycles(), report.cycles);
    EXPECT_GT(report.fusionCoverage(), 0.0);

    const RunReport back = RunReport::fromJson(report.toJson());
    EXPECT_EQ(back, report);
    EXPECT_TRUE(back.cpiStack().exact());
}

TEST(RunReport, FindAndVersionGate)
{
    RunReportFile file;
    const RunResult result =
        telemetryRun("crc32", FusionMode::None, nullptr);
    file.add(result, smokeBudget);

    EXPECT_NE(file.find("crc32", "NoFusion"), nullptr);
    EXPECT_EQ(file.find("crc32", "Helios"), nullptr);
    EXPECT_EQ(file.find("qsort", "NoFusion"), nullptr);

    JsonValue json = file.toJson();
    json.set("version", JsonValue(uint64_t{999}));
    EXPECT_THROW(RunReportFile::fromJson(json), FatalError);

    JsonValue bad = JsonValue::object();
    bad.set("schema", JsonValue(std::string("something-else")));
    EXPECT_THROW(RunReportFile::fromJson(bad), FatalError);
}
