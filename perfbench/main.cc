/**
 * @file
 * helios_bench: one named workload, seeded, checked, with every metric
 * printed by name and unit. See README.md.
 *
 *   helios_bench --workload NAME --seed N --seconds S --trace 0|1
 *                --work-dir DIR
 *
 * --trace 0 measures the end-to-end metrics of NAME. --trace 1 runs
 * the traced suite: every workload through the harness, then layered
 * with spans disarmed and armed, plus the standalone layer probes, and
 * prints every per-layer metric.
 * The last stdout line is the result object; exit 2 on bad arguments.
 */

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "harness/runner.hh"
#include "telemetry/host_metrics.hh"

namespace perfbench
{

namespace
{

/** Untimed warm-up before measuring: the first second of all-core work
 *  after the host sat idle runs slow, whatever the program. */
constexpr double kWarmupSeconds = 1.5;
/** Set-up repetitions per run; setup_s is their median. */
constexpr unsigned kSetupReps = 11;
/** Operations pooled for the latency percentiles: at least ten lie
 *  beyond p90. */
constexpr size_t kMinOps = 100;
/** Traced passes per workload, so the per-layer rates are always
 *  normalised over more than one pass. */
constexpr size_t kTracedPasses = 2;

/** A metric as printed in the result line. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    unsigned seconds = 0;
    bool trace = false;
    std::string workDir;
};

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "helios_bench: error: %s\n", message.c_str());
    std::fprintf(stderr,
                 "usage: helios_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n");
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &flag, const std::string &text,
              uint64_t max)
{
    if (text.empty() || text.size() > 20 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usageError(flag + ": not a non-negative integer: '" + text + "'");
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE || value > max)
        usageError(flag + ": out of range: '" + text + "'");
    return value;
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    bool seen[5] = {};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        static const char *flags[] = {"--workload", "--seed", "--seconds",
                                      "--trace", "--work-dir"};
        int which = -1;
        for (int f = 0; f < 5; ++f)
            if (flag == flags[f])
                which = f;
        if (which < 0)
            usageError("unknown argument '" + flag + "'");
        if (seen[which])
            usageError(flag + " given twice");
        seen[which] = true;
        if (i + 1 >= argc)
            usageError(flag + " needs a value");
        const std::string value = argv[++i];
        switch (which) {
          case 0: {
            const auto &names = workloadNames();
            if (std::find(names.begin(), names.end(), value) ==
                names.end()) {
                std::string known;
                for (const std::string &name : names)
                    known += (known.empty() ? "" : ", ") + name;
                usageError("--workload: unknown workload '" + value +
                           "' (known: " + known + ")");
            }
            opts.workload = value;
            break;
          }
          case 1:
            opts.seed = parseUnsigned(flag, value, UINT64_MAX);
            break;
          case 2:
            opts.seconds = unsigned(parseUnsigned(flag, value, 3600));
            if (opts.seconds == 0)
                usageError("--seconds: must be at least 1");
            break;
          case 3:
            if (value != "0" && value != "1")
                usageError("--trace: must be 0 or 1, got '" + value + "'");
            opts.trace = value == "1";
            break;
          case 4:
            opts.workDir = value;
            break;
        }
    }
    for (int f = 0; f < 5; ++f)
        if (!seen[f])
            usageError(std::string("missing ") +
                       (f == 0   ? "--workload"
                        : f == 1 ? "--seed"
                        : f == 2 ? "--seconds"
                        : f == 3 ? "--trace"
                                 : "--work-dir"));
    return opts;
}

/** Everything one measured window of one workload produced. */
struct Window
{
    std::vector<double> wallS;      ///< per pass
    std::vector<double> opMs;       ///< pooled over passes
    double guestInsts = 0.0;
    double busyS = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<uint64_t> digests;  ///< per pass
    std::vector<uint64_t> spanMarks; ///< before each pass, and at the end
};

/**
 * Complete passes for about @a seconds: stop once the next pass, as
 * long as the last one, would end more than half a pass late. Always
 * at least @a min_passes passes and @a min_ops operations.
 */
Window
measure(BenchWorkload &workload, bool layered, double seconds,
        size_t min_ops, size_t min_passes)
{
    Window window;
    const Clock::time_point start = Clock::now();
    do {
        window.spanMarks.push_back(spanMark());
        PassOutcome pass =
            workload.pass(layered, Clock::time_point::max());
        window.wallS.push_back(pass.timing.wallS);
        window.guestInsts += double(pass.guestInsts);
        window.opMs.insert(window.opMs.end(), pass.timing.opMs.begin(),
                           pass.timing.opMs.end());
        window.busyS += pass.timing.busyS;
        window.attempted += pass.attempted;
        window.failed += pass.failed;
        for (const std::string &note : pass.failures)
            if (window.failures.size() < 5)
                window.failures.push_back(note);
        window.digests.push_back(pass.digest);
    } while (secondsBetween(start, Clock::now()) +
                     0.5 * window.wallS.back() <
                 seconds ||
             window.opMs.size() < min_ops ||
             window.wallS.size() < min_passes);
    window.spanMarks.push_back(spanMark());
    return window;
}

/** Spin the workers on layered passes (spans disarmed), which stop at
 *  the deadline; harness passes cannot. */
void
warmUp(BenchWorkload &workload)
{
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kWarmupSeconds));
    while (Clock::now() < deadline)
        workload.pass(true, deadline);
}

bool
digestsAgree(const Window &window, uint64_t expected)
{
    return std::all_of(window.digests.begin(), window.digests.end(),
                       [&](uint64_t d) { return d == expected; });
}

std::string
hex(uint64_t value)
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016" PRIx64, value);
    return text;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double value =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

void
reportFailures(const std::string &name, const Window &window)
{
    for (const std::string &note : window.failures)
        std::fprintf(stderr, "helios_bench: %s: FAILED %s\n", name.c_str(),
                     note.c_str());
}

/** --trace 0: the end-to-end metrics of one workload. */
int
runMeasured(const Options &opts, unsigned workers,
            const std::string &run_dir)
{
    std::unique_ptr<BenchWorkload> workload =
        makeWorkload(opts.workload, workers, run_dir);
    std::vector<double> setup_s;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        const Clock::time_point start = Clock::now();
        workload->setup(opts.seed);
        setup_s.push_back(secondsBetween(start, Clock::now()));
    }
    warmUp(*workload);
    const Window window =
        measure(*workload, false, double(opts.seconds), kMinOps, 1);
    reportFailures(opts.workload, window);

    const bool stable = digestsAgree(window, window.digests.front());
    std::printf("workload %s: seed %" PRIu64 ", %u workers, %zu passes, "
                "%zu operations (latency percentiles over all of them)\n",
                opts.workload.c_str(), opts.seed, workers,
                window.wallS.size(), window.opMs.size());
    std::printf("sim_digest %s %s\n", opts.workload.c_str(),
                hex(window.digests.front()).c_str());

    const std::vector<Metric> metrics = {
        {"setup_s", "s", quantile(setup_s, 0.5)},
        {"guest_minst_per_s", "Minst/s",
         window.guestInsts / std::accumulate(window.wallS.begin(),
                                             window.wallS.end(), 0.0) /
             1e6},
        {"op_p50_ms", "ms", quantile(window.opMs, 0.5)},
        {"op_p90_ms", "ms", quantile(window.opMs, 0.9)},
        {"peak_rss_mb", "MiB",
         double(helios::HostMetrics::peakRssBytes()) / (1024.0 * 1024.0)},
    };
    printResult(window.failed == 0 && stable, window.attempted,
                window.failed, metrics);
    return 0;
}

/** What the traced suite keeps of one workload. */
struct SuiteEntry
{
    LayerMap layers;       ///< spans of every traced pass
    double passes = 0.0;   ///< how many traced passes they cover
    Facts facts;           ///< of one pass; every pass gives the same
    std::vector<uint64_t> spanMarks; ///< the traced window's
    double traceOverhead = 0.0;
    double workerUtil = 0.0;
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
fact(const Facts &facts, const std::string &name)
{
    const auto it = facts.find(name);
    return it == facts.end() ? 0.0 : it->second;
}

/** Host ns per event of the cycle model: Pipeline::run self time per
 *  traced pass minus the feed it drains (timed on its own by the feed
 *  probe), over one pass's events. */
double
uarchNsPer(const SuiteEntry &sweep, const std::string &suffix,
           double feed_ns_per_inst, const std::string &events)
{
    const auto it = sweep.layers.find("uarch.run" + suffix);
    if (it == sweep.layers.end() || sweep.passes == 0.0)
        return 0.0;
    const double fed = fact(sweep.facts, "hart_insts" + suffix);
    return ratio(it->second.selfNs / sweep.passes - feed_ns_per_inst * fed,
                 fact(sweep.facts, events + suffix));
}

double
medianMs(const SuiteEntry &entry, const std::string &layer)
{
    const auto it = entry.layers.find(layer);
    return it == entry.layers.end() ? 0.0 : it->second.medianMs();
}

double
selfNsPerCount(const LayerMap &layers, const std::string &layer)
{
    const auto it = layers.find(layer);
    return it == layers.end() ? 0.0
                              : ratio(it->second.selfNs,
                                      double(it->second.count));
}

/** --trace 1: every workload through the harness, then layered with
 *  spans disarmed and armed, plus the probes. */
int
runTraced(const Options &opts, unsigned workers, const std::string &run_dir,
          const std::string &trace_path)
{
    // Each workload gets a twelfth of the budget per window (harness,
    // layered, traced): always at least one complete pass, and
    // kTracedPasses layered ones.
    const double window_s =
        double(opts.seconds) / double(3 * workloadNames().size());
    std::map<std::string, SuiteEntry> suite;
    uint64_t attempted = 0, failed = 0;
    bool correct = true;
    for (const std::string &name : workloadNames()) {
        std::unique_ptr<BenchWorkload> workload =
            makeWorkload(name, workers, run_dir);
        workload->setup(opts.seed);
        if (name == workloadNames().front())
            warmUp(*workload);
        const Window plain = measure(*workload, false, window_s, 1, 1);
        // Set up afresh so both layered windows draw the same pass
        // orders: the trace overhead then compares like with like.
        workload->setup(opts.seed);
        const Window layered =
            measure(*workload, true, window_s, 1, kTracedPasses);
        workload->setup(opts.seed);
        setSpanWindow(name);
        const Window traced =
            measure(*workload, true, window_s, 1, kTracedPasses);
        setSpanWindow("");
        for (const Window *window : {&plain, &layered, &traced}) {
            reportFailures(name, *window);
            attempted += window->attempted;
            failed += window->failed;
        }

        // Both paths, and tracing, must leave the simulation alone.
        const uint64_t digest = plain.digests.front();
        const bool same = digestsAgree(plain, digest) &&
                          digestsAgree(layered, digest) &&
                          digestsAgree(traced, digest);
        std::printf("sim_digest %s %s (harness) %s (layered) %s "
                    "(traced)%s\n",
                    name.c_str(), hex(digest).c_str(),
                    hex(layered.digests.front()).c_str(),
                    hex(traced.digests.front()).c_str(),
                    same ? "" : "  MISMATCH");
        correct = correct && same;

        SuiteEntry &entry = suite[name];
        entry.layers = aggregateSpans(name);
        entry.passes = double(traced.wallS.size());
        entry.facts = workload->facts();
        entry.spanMarks = traced.spanMarks;
        entry.traceOverhead = ratio(quantile(traced.wallS, 0.5),
                                    quantile(layered.wallS, 0.5));
        const double wall =
            std::accumulate(plain.wallS.begin(), plain.wallS.end(), 0.0);
        entry.workerUtil = ratio(plain.busyS, wall * workers);

        // The per-pass rates divide the spans of every traced pass by
        // their number; the µops on the uarch.run spans must then be
        // exactly that many passes' worth.
        const auto run = entry.layers.find("uarch.run");
        if (run != entry.layers.end() && entry.facts.count("uarch.uops") &&
            double(run->second.count) !=
                entry.passes * fact(entry.facts, "uarch.uops")) {
            std::printf("%s: uarch.run spans cover %" PRIu64 " uops, not "
                        "%g passes of %g\n",
                        name.c_str(), run->second.count, entry.passes,
                        fact(entry.facts, "uarch.uops"));
            correct = false;
        }
    }

    setSpanWindow("probes");
    probeFeed(helios::allWorkloads(), kSuiteBudget);
    const Facts replay = probeReplay(helios::allWorkloads(), kSuiteBudget);
    setSpanWindow("");
    const LayerMap probes = aggregateSpans("probes");

    const SuiteEntry &fig10 = suite.at("fig10_sweep");
    const SuiteEntry &ff = suite["fastforward"];
    const SuiteEntry &sampled = suite["sampled_long"];
    const SuiteEntry &observed = suite["observed_sweep"];
    const double feed = selfNsPerCount(probes, "sim.feed_drain");

    // The same rate from each traced pass alone: it must agree with
    // the all-pass figure within noise, however many passes ran.
    std::printf("uarch.ns_per_uop per traced fig10_sweep pass:");
    for (size_t p = 0; p + 1 < fig10.spanMarks.size(); ++p) {
        SuiteEntry one = fig10;
        one.layers = aggregateSpans("fig10_sweep", fig10.spanMarks[p],
                                    fig10.spanMarks[p + 1]);
        one.passes = 1.0;
        std::printf(" %.4f", uarchNsPer(one, "", feed, "uarch.uops"));
    }
    std::printf("\n");

    std::vector<Metric> m;
    m.push_back({"asm.assemble_ms", "ms", medianMs(ff, "asm.assemble")});
    m.push_back({"sim.ff_ns_per_inst", "ns",
                 selfNsPerCount(ff.layers, "sim.run_fast")});
    m.push_back({"sim.reset_ms", "ms", medianMs(ff, "sim.reset")});
    m.push_back({"sim.checksum_ms", "ms", medianMs(ff, "sim.checksum")});
    m.push_back({"sim.feed_ns_per_inst", "ns", feed});
    m.push_back({"sim.checkpoint_cut_ms", "ms",
                 medianMs(sampled, "sim.checkpoint_cut")});
    m.push_back({"sim.checkpoint_mb", "MiB",
                 fact(sampled.facts, "sim.checkpoint_mb")});
    m.push_back({"sim.restore_ms", "ms", medianMs(sampled, "sim.restore")});
    m.push_back({"uarch.ctor_ms", "ms", medianMs(sampled, "uarch.ctor")});

    // Per-mode metric names spell "+" as "P" (RISCVFusion++).
    std::vector<std::pair<std::string, std::string>> modes;
    for (helios::FusionMode mode :
         {helios::FusionMode::None, helios::FusionMode::RiscvFusion,
          helios::FusionMode::CsfSbr, helios::FusionMode::RiscvFusionPP,
          helios::FusionMode::Helios, helios::FusionMode::Oracle}) {
        std::string name = helios::fusionModeName(mode);
        std::string key = name;
        std::replace(key.begin(), key.end(), '+', 'P');
        modes.emplace_back(name, key);
    }
    m.push_back({"uarch.ns_per_uop", "ns",
                 uarchNsPer(fig10, "", feed, "uarch.uops")});
    for (const auto &[name, key] : modes)
        m.push_back({"uarch.ns_per_uop." + key, "ns",
                     uarchNsPer(fig10, "." + name, feed, "uops")});
    m.push_back({"uarch.ns_per_cycle", "ns",
                 uarchNsPer(fig10, "", feed, "uarch.cycles")});
    for (const auto &[name, key] : modes)
        m.push_back({"uarch.ns_per_cycle." + key, "ns",
                     uarchNsPer(fig10, "." + name, feed, "cycles")});
    for (const char *count :
         {"uarch.cycles", "uarch.uops", "uarch.squashed_uops",
          "uarch.loads", "uarch.stores", "uarch.stlf_forwards",
          "uarch.lsq_violations"})
        m.push_back({count, "count", fact(fig10.facts, count)});

    m.push_back({"uarch.bpred.ns_per_lookup", "ns",
                 selfNsPerCount(probes, "uarch.bpred_replay")});
    m.push_back({"uarch.bpred.mpki", "1/kinst",
                 1e3 * ratio(fact(replay, "bpred.mispredicts"),
                             fact(replay, "insts"))});
    m.push_back({"uarch.cache.ns_per_access", "ns",
                 selfNsPerCount(probes, "uarch.cache_replay")});
    m.push_back({"uarch.l1d.miss_pct", "%",
                 100.0 * ratio(fact(replay, "l1d.misses"),
                               fact(replay, "l1d.hits") +
                                   fact(replay, "l1d.misses"))});
    m.push_back({"uarch.l2.miss_pct", "%",
                 100.0 * ratio(fact(replay, "l2.misses"),
                               fact(replay, "l2.hits") +
                                   fact(replay, "l2.misses"))});

    for (const char *name : {"fusion.coverage", "fusion.fp_accuracy"})
        m.push_back({name, "ratio", fact(fig10.facts, name)});
    m.push_back({"fusion.fp_attempts", "count",
                 fact(fig10.facts, "fusion.fp_attempts")});
    const double helios_uplift = fact(fig10.facts, "fusion.helios_uplift");
    const double oracle_uplift = fact(fig10.facts, "fusion.oracle_uplift");
    m.push_back({"fusion.helios_uplift", "ratio", helios_uplift});
    m.push_back({"fusion.oracle_uplift", "ratio", oracle_uplift});
    std::printf("fig10 geomean IPC over NoFusion: Helios %+.1f%% (paper "
                "+14.2%%), OracleFusion %+.1f%% (paper +16.3%%)\n",
                100.0 * (helios_uplift - 1.0), 100.0 * (oracle_uplift - 1.0));
    m.push_back({"fusion.oracle_cost", "ratio",
                 ratio(uarchNsPer(fig10, ".OracleFusion", feed, "uops"),
                       uarchNsPer(fig10, ".NoFusion", feed, "uops"))});
    m.push_back({"fusion.idiom_ns_per_pair", "ns",
                 selfNsPerCount(probes, "fusion.idiom_replay")});

    for (const std::string &name : workloadNames())
        m.push_back({"harness.worker_util." + name, "ratio",
                     suite[name].workerUtil});
    m.push_back({"harness.sampled_ci95_rel", "ratio",
                 fact(sampled.facts, "ci95_rel.Helios")});
    m.push_back({"harness.report_write_ms", "ms",
                 medianMs(observed, "harness.report_write")});
    m.push_back({"harness.report_parse_ms", "ms",
                 medianMs(observed, "harness.report_parse")});
    m.push_back({"harness.report_diff_ms", "ms",
                 medianMs(observed, "harness.report_diff")});

    // Observers' cost per µop, on the same (kernel, mode) cells.
    double obs_ns = 0.0, obs_uops = 0.0, base_ns = 0.0, base_uops = 0.0;
    for (const char *mode : {"NoFusion", "CSF-SBR", "Helios", "OracleFusion"}) {
        const std::string suffix = std::string(".") + mode;
        obs_ns += uarchNsPer(observed, suffix, feed, "uops") *
                  fact(observed.facts, "uops" + suffix);
        obs_uops += fact(observed.facts, "uops" + suffix);
        base_ns += uarchNsPer(fig10, suffix, feed, "uops") *
                   fact(fig10.facts, "uops" + suffix);
        base_uops += fact(fig10.facts, "uops" + suffix);
    }
    m.push_back({"telemetry.observer_cost", "ratio",
                 ratio(ratio(obs_ns, obs_uops), ratio(base_ns, base_uops))});
    m.push_back({"telemetry.profile_sites", "count",
                 fact(observed.facts, "telemetry.profile_sites")});
    m.push_back({"uarch.audit_checks", "count",
                 fact(observed.facts, "uarch.audit_checks")});
    m.push_back({"ledger.record_ms", "ms",
                 medianMs(observed, "ledger.record")});
    m.push_back({"ledger.records", "count",
                 fact(observed.facts, "ledger.records")});
    for (const std::string &name : workloadNames())
        m.push_back({"trace_overhead." + name, "ratio",
                     suite[name].traceOverhead});

    writeChromeTrace(trace_path);
    std::printf("trace: %s\n", trace_path.c_str());
    printResult(correct && failed == 0, attempted, failed, m);
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opts = parseOptions(argc, argv);

    // Results go to stdout; the simulator's info logs and progress
    // lines would only interleave with them.
    helios::Logger::global().setLevel(helios::LogLevel::Warn);
    setenv("HELIOS_PROGRESS", "0", 1);

    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned workers = std::max(1u, std::min(4u, hw));

    namespace fs = std::filesystem;
    std::string run_dir;
    try {
        fs::create_directories(opts.workDir);
        std::string pattern = opts.workDir + "/run-XXXXXX";
        if (!mkdtemp(pattern.data()))
            throw std::runtime_error("cannot create a run directory under " +
                                     opts.workDir);
        run_dir = pattern;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "helios_bench: error: %s\n", error.what());
        return 1;
    }

    int status = 1;
    try {
        const std::string trace_path = opts.workDir + "/trace-" +
                                       opts.workload + "-seed" +
                                       std::to_string(opts.seed) + ".json";
        status = opts.trace ? runTraced(opts, workers, run_dir, trace_path)
                            : runMeasured(opts, workers, run_dir);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "helios_bench: error: %s\n", error.what());
        status = 1;
    }
    std::error_code ec;
    fs::remove_all(run_dir, ec);
    return status;
}
