/**
 * @file
 * Telemetry layer: histograms, exact CPI stacks, lifecycle tracing
 * and machine-readable run reports.
 *
 * The load-bearing guarantees under test:
 *  - the exact CPI stack partitions total cycles (residual 0) under
 *    every fusion mode, and a kernel built to block the ROB head for
 *    one reason is charged to that reason's category at that head;
 *  - attaching every pipeline observer and turning on histogram
 *    sampling changes NOTHING about the simulation (observer-effect
 *    guard, at the PipelineObserver interface: identical
 *    architectural state, counts and stat dump);
 *  - one lifecycle record per committed µ-op, and both trace export
 *    formats are well-formed;
 *  - RunReport files survive a save → parse round trip bit-exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

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

TEST(Histogram, LinearIndexMatchesBoundsSearch)
{
    // Every layout the pipeline samples at the defaults, plus the
    // layouts of the tests above.
    CoreParams params = CoreParams::icelake(FusionMode::Helios);
    params.sampleHistograms = true;
    const RunResult run = runOne(findWorkload("crc32"), params, 1000);
    std::map<std::string, std::vector<uint64_t>> layouts = {
        {"linear(100, 25)", Histogram::linear(100, 25).bucketBounds()},
        {"exponential", Histogram().bucketBounds()},
        {"{10, 20, 30}", {10, 20, 30}},
    };
    for (const char *name :
         {"occupancy.rob", "occupancy.iq", "occupancy.lq", "occupancy.sq",
          "fusion.pair_distance", "fusion.fp_agreement"}) {
        const Histogram *hist = run.stats.findHistogram(name);
        ASSERT_NE(hist, nullptr) << name;
        layouts[name] = hist->bucketBounds();
    }

    // A sample must land in the bucket std::lower_bound picks, whose
    // count then goes up by one.
    const auto check = [](const std::string &name,
                          const std::vector<uint64_t> &bounds,
                          uint64_t value, Histogram &hist) {
        const size_t want =
            std::lower_bound(bounds.begin(), bounds.end(), value) -
            bounds.begin();
        const uint64_t before = hist.bucketCount(want);
        hist.addSample(value);
        return hist.bucketCount(want) == before + 1
                   ? ::testing::AssertionSuccess()
                   : ::testing::AssertionFailure()
                         << name << ": value " << value
                         << " missed bucket " << want;
    };
    for (const auto &[name, bounds] : layouts) {
        Histogram hist(bounds);
        const uint64_t step = bounds.size() > 1
                                  ? bounds.back() - bounds[bounds.size() - 2]
                                  : bounds.back();
        const uint64_t last = bounds.back() + 2 * step;
        // Every value from 0 to two steps past the last bound. The
        // exponential layout's end, 2^32, is too far to add values one
        // by one: past 2^16 it checks each bound, its neighbours and
        // the end.
        const uint64_t dense = std::min<uint64_t>(last, 1 << 16);
        for (uint64_t value = 0; value <= dense; ++value)
            ASSERT_TRUE(check(name, bounds, value, hist));
        for (uint64_t bound : bounds) {
            for (uint64_t value = bound - 1; value <= bound + 1; ++value) {
                if (value > dense) {
                    ASSERT_TRUE(check(name, bounds, value, hist));
                }
            }
        }
        if (last > dense) {
            ASSERT_TRUE(check(name, bounds, last, hist));
        }
    }
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

TEST(CpiStack, EachBlockedCategoryNamesItsHead)
{
    // One kernel per commit-blocked category, each built so that the
    // instruction labelled `blocked` waits at the ROB head for that
    // reason. The observer's CycleView must agree with the counter,
    // and the latched blocked PC must be that instruction.
    struct Row
    {
        const char *category;
        FusionMode mode;
        uint64_t floor; ///< about half the cycles the kernel is charged
        const char *source;
    };
    const Row rows[] = {
        // A pointer chase: each load's address is the previous
        // load's value, so the head is always a load in flight.
        {"cpi.exec.load", FusionMode::None, 4'000, R"(
            la x2, buf
            sd x2, 0(x2)
            li s0, 2000
        blocked:
            ld x2, 0(x2)
            addi s0, s0, -1
            bnez s0, blocked
            li a0, 0
            li a7, 93
            ecall
            .data
            .align 6
        buf:
            .zero 64
        )"},
        // A dependent divide chain: the head is a divide in flight.
        {"cpi.exec.other", FusionMode::None, 19'000, R"(
            li x9, 12345
            li x11, 1
            li s0, 2000
        blocked:
            div x9, x9, x11
            addi s0, s0, -1
            bnez s0, blocked
            li a0, 0
            li a7, 93
            ecall
        )"},
        // The divide at `blocked` waits for its source through an add,
        // so the younger, independent divide issues first and holds
        // the one unpipelined divider. The older divide then sits at
        // the ROB head, ready, until the divider frees.
        {"cpi.backend.ports", FusionMode::None, 2'000, R"(
            li x9, 12345
            li x11, 1
            li x21, 7
            li s0, 500
        loop:
            add x22, x21, zero
        blocked:
            div x20, x22, x11
            div x21, x9, x11
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        )"},
        // Helios fuses the two loads around a store. Committed stores
        // to new lines drain slowly and fill the SQ, so the catalyst
        // store cannot dispatch: the fused head reaches the ROB head
        // before its tail marker sets NCS Ready.
        {"cpi.fusion.pending", FusionMode::Helios, 12'000, R"(
            la x2, buf
            la x3, big
            li s0, 1000
        loop:
            sd x0, 0(x3)
            sd x0, 64(x3)
            sd x0, 128(x3)
            sd x0, 192(x3)
        blocked:
            ld x5, 0(x2)
            sd x0, 256(x3)
            ld x7, 16(x2)
            addi x3, x3, 320
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
            .data
            .align 6
        buf:
            .zero 64
        big:
            .zero 320000
        )"},
    };
    struct Charges : PipelineObserver
    {
        std::string_view category;
        uint64_t cycles = 0;
        uint64_t latched = 0;
        std::map<uint64_t, uint64_t> byPc; ///< blocked PC -> cycles

        void
        onCycleEnd(const CycleView &view) override
        {
            if (view.cpiCategory != category)
                return;
            ++cycles;
            if (view.headBlocked) {
                ++latched;
                ++byPc[view.blockedPc];
            }
        }
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.category);
        Workload kernel;
        kernel.name = row.category;
        kernel.source = row.source;
        const uint64_t blocked = kernel.program().symbol("blocked");
        Charges charges;
        charges.category = row.category;
        const RunResult r =
            observedRun(kernel, CoreParams::icelake(row.mode), 100'000,
                        {&charges});
        EXPECT_TRUE(r.exited);
        EXPECT_EQ(charges.cycles, r.stat(row.category));
        EXPECT_GT(charges.byPc[blocked], row.floor);
        // Every charged cycle latches a head. The cold pipeline may
        // charge a setup instruction one cycle on its way through;
        // only the labelled one is charged again and again.
        EXPECT_EQ(charges.latched, charges.cycles);
        for (const auto &[pc, cycles] : charges.byPc) {
            if (pc != blocked) {
                EXPECT_LE(cycles, 1u) << "pc 0x" << std::hex << pc;
            }
        }
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
    // squash, unfuse and fusion-mispredict events fire too; deepsjeng
    // waits on memory, so run() skips long runs of quiet cycles, each
    // of which every observer must still see.
    for (const char *kernel : {"sha", "631.deepsjeng_s"}) {
        for (FusionMode mode : allModes) {
            const Workload &workload = findWorkload(kernel);
            const std::string name =
                std::string(kernel) + " " + fusionModeName(mode);
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
            uint64_t windowed = 0;
            for (const ProfileWindow &window : profiler.data().windows)
                windowed += window.cycles;
            EXPECT_EQ(windowed, observed.cycles) << name;
            EXPECT_EQ(tracer.numCommitted(), observed.uops) << name;
            EXPECT_EQ(plain.stats.findHistogram("occupancy.rob"), nullptr);
            const Histogram *rob =
                observed.stats.findHistogram("occupancy.rob");
            ASSERT_NE(rob, nullptr) << name;
            EXPECT_EQ(rob->samples(), observed.cycles) << name;
        }
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

TEST(Json, CompactDepthWritesDeeperContainersOnOneLine)
{
    JsonValue run = JsonValue::object();
    run.set("ipc", JsonValue(0.5));
    JsonValue counts = JsonValue::array();
    counts.push(JsonValue(1));
    counts.push(JsonValue(2));
    run.set("counts", std::move(counts));
    JsonValue runs = JsonValue::array();
    runs.push(run);
    runs.push(run);
    JsonValue file = JsonValue::object();
    file.set("runs", std::move(runs));

    const std::string text = file.dump(2, 2);
    EXPECT_EQ(text, "{\n"
                    "  \"runs\": [\n"
                    "    {\"counts\":[1,2],\"ipc\":0.5},\n"
                    "    {\"counts\":[1,2],\"ipc\":0.5}\n"
                    "  ]\n"
                    "}\n");
    EXPECT_EQ(JsonValue::parse(text), file);
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

    // One run per line, so two files diff run by run.
    for (const RunReport &run : file.runs)
        EXPECT_NE(text.find("\n    " + run.toJson().dump()),
                  std::string::npos);
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

namespace
{

/** A file of @a runs crc32 runs over the modes in turn; with
 *  @a extras, two verdicts and a host section too. */
RunReportFile
reportFile(size_t runs, bool extras)
{
    RunReportFile file;
    file.generator = "test_telemetry";
    for (size_t i = 0; i < runs; ++i)
        file.add(telemetryRun("crc32", allModes[i % std::size(allModes)],
                              nullptr),
                 smokeBudget);
    if (!extras)
        return file;
    file.verdicts.push_back({"crc32", "Helios", "arch_state",
                             "a \"quoted\"\tdetail"});
    file.verdicts.push_back({"sha", "NoFusion", "ipc_regression", ""});
    JsonValue phases = JsonValue::object();
    phases.set("sweep_s", JsonValue(1.25));
    phases.set("write_s", JsonValue(0.5));
    file.host = JsonValue::object();
    file.host.set("peak_rss_mb", JsonValue(33.5));
    file.host.set("phases", std::move(phases));
    return file;
}

/** The whole file as read from @a text, or the error reading it. */
struct ReadOutcome
{
    std::optional<RunReportFile> file;
    std::string error;
};

template <typename Read>
ReadOutcome
readOutcome(Read read)
{
    try {
        return {read(), ""};
    } catch (const FatalError &error) {
        return {std::nullopt, error.what()};
    }
}

/** A temporary path of this test's own. */
std::string
testPath(const char *name)
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string dir = ::testing::TempDir() + "telemetry_" +
                            test->name() + "/";
    std::filesystem::create_directories(dir);
    return dir + name;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

} // namespace

TEST(RunReport, WriterMatchesTheWholeTreeDump)
{
    // save() and toJsonText() write one run and one verdict at a time,
    // and their bytes are those of the whole tree's dump.
    const std::string path = testPath("report.json");
    for (const RunReportFile &file :
         {reportFile(2, true), reportFile(0, false)}) {
        const std::string expected = file.toJson().dump(2, 2) + "\n";
        EXPECT_EQ(file.toJsonText(), expected);
        file.save(path);
        EXPECT_EQ(fileBytes(path), expected);
    }
}

TEST(RunReport, ReaderMatchesTheWholeTreeParse)
{
    // fromJsonText() and load() read one run at a time; what they read
    // or the error they raise is that of converting the whole parsed
    // tree.
    const RunReportFile file = reportFile(3, true);
    const JsonValue json = file.toJson();
    const std::string text = file.toJsonText();
    const auto textOf = [](const JsonValue &value) {
        return value.dump(2, 2) + "\n";
    };
    const auto with = [&](JsonValue value, const char *key,
                          JsonValue member) {
        value.set(key, std::move(member));
        return value;
    };
    /** The runs array with run @a index replaced. */
    const auto runsWith = [&](size_t index, const JsonValue &run) {
        JsonValue runs = JsonValue::array();
        for (size_t i = 0; i < json.at("runs").size(); ++i)
            runs.push(i == index ? run : json.at("runs").at(i));
        return runs;
    };
    JsonValue no_schema = JsonValue::object();
    for (const auto &[key, member] : json.members())
        if (key != "schema")
            no_schema.set(key, member);
    const JsonValue newer =
        with(json, "version", JsonValue(uint64_t{kRunReportVersion + 1}));
    JsonValue runs_object = JsonValue::object();
    runs_object.set("first", json.at("runs").at(0));
    /** The first run holds @a levels nested arrays: with the file
     *  object, the runs array and the run object, 3 + levels deep. */
    const auto nested = [&](size_t levels) {
        const JsonValue run =
            with(json.at("runs").at(0), "deep", JsonValue("DEEP"));
        std::string out = textOf(with(json, "runs", runsWith(0, run)));
        out.replace(out.find("\"DEEP\""), 6,
                    std::string(levels, '[') + std::string(levels, ']'));
        return out;
    };
    size_t third = 0;
    for (int i = 0; i < 3; ++i)
        third = text.find("\n    {", third + 1);
    const std::string end_of_object = text.substr(0, text.rfind("\n}"));

    const std::vector<std::pair<std::string, std::string>> rows = {
        {"as written", text},
        {"truncated inside the third run", text.substr(0, third + 200)},
        {"a run that is not an object",
         textOf(with(json, "runs", runsWith(1, JsonValue(7))))},
        {"runs a string", textOf(with(json, "runs", JsonValue("none")))},
        {"runs an empty object",
         textOf(with(json, "runs", JsonValue::object()))},
        {"runs an object", textOf(with(json, "runs", runs_object))},
        {"no runs",
         std::string(text).replace(text.find("\"runs\""), 6, "\"runz\"")},
        {"no schema", textOf(no_schema)},
        {"a newer version", textOf(newer)},
        {"a newer version with a run it cannot convert",
         textOf(with(newer, "runs", runsWith(1, JsonValue(7))))},
        {"a repeated runs key, the array last", "{\"runs\": 5," +
                                                    text.substr(1)},
        {"a repeated runs key, an empty array last",
         end_of_object + ",\n  \"runs\": []\n}\n"},
        {"a run nested 512 levels from the root", nested(509)},
        {"a run nested 513 levels from the root", nested(510)},
        {"trailing garbage", text + "x"},
        {"indented by dump(2)", json.dump(2)},
        {"a root that is not an object", "[1, 2]"},
        {"empty", ""},
    };
    std::map<std::string, ReadOutcome> outcomes;
    const std::string path = testPath("report.json");
    for (const auto &[name, row] : rows) {
        SCOPED_TRACE(name);
        const ReadOutcome reference = readOutcome([&] {
            return RunReportFile::fromJson(JsonValue::parse(row));
        });
        {
            std::ofstream out(path, std::ios::binary);
            out << row;
        }
        for (const ReadOutcome &read :
             {readOutcome([&] { return RunReportFile::fromJsonText(row); }),
              readOutcome([&] { return RunReportFile::load(path); })}) {
            EXPECT_EQ(read.error, reference.error);
            ASSERT_EQ(read.file.has_value(), reference.file.has_value());
            if (read.file) {
                EXPECT_TRUE(*read.file == *reference.file);
            }
        }
        outcomes[name] = reference;
    }

    // The table covers what it means to.
    const auto read = [&](const char *name) { return outcomes.at(name); };
    EXPECT_TRUE(read("as written").file == file);
    EXPECT_TRUE(read("indented by dump(2)").file == file);
    EXPECT_TRUE(read("a repeated runs key, the array last").file == file);
    EXPECT_TRUE(read("a run nested 512 levels from the root").file == file);
    EXPECT_EQ(read("runs an empty object").file->runs.size(), 0u);
    EXPECT_EQ(read("a repeated runs key, an empty array last")
                  .file->runs.size(),
              0u);
    EXPECT_NE(read("truncated inside the third run")
                  .error.find("json parse error at offset"),
              std::string::npos);
    EXPECT_NE(read("a run nested 513 levels from the root")
                  .error.find("nested more than 512 levels deep"),
              std::string::npos);
    const std::string version_error =
        read("a newer version").error;
    EXPECT_NE(version_error.find("is newer than this build"),
              std::string::npos);
    EXPECT_EQ(read("a newer version with a run it cannot convert").error,
              version_error);
    for (const char *name :
         {"a run that is not an object", "runs a string", "runs an object",
          "no runs", "no schema", "trailing garbage",
          "a root that is not an object", "empty"})
        EXPECT_NE(read(name).error, "") << name;
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
