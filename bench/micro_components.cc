/**
 * @file
 * google-benchmark microbenchmarks of the simulator's components:
 * predictor lookup/train rates, UCH accesses, TAGE predictions,
 * cache accesses, instruction decode and end-to-end simulation speed.
 */

#include <benchmark/benchmark.h>

#include "asm/assembler.hh"
#include "fusion/fusion_predictor.hh"
#include "fusion/idiom.hh"
#include "fusion/uch.hh"
#include "harness/runner.hh"
#include "isa/decoder.hh"
#include "isa/encoder.hh"
#include "sim/hart.hh"
#include "uarch/branch_pred.hh"
#include "uarch/cache.hh"

using namespace helios;

static void
BM_FusionPredictorLookup(benchmark::State &state)
{
    FusionPredictor fp;
    for (unsigned i = 0; i < 512; ++i)
        for (int k = 0; k < 3; ++k)
            fp.train(0x10000 + i * 4, uint16_t(i), i % 60 + 1);
    uint64_t pc = 0x10000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fp.lookup(pc, uint16_t(pc)));
        pc = 0x10000 + ((pc + 4) & 0x7ff);
    }
}
BENCHMARK(BM_FusionPredictorLookup);

static void
BM_FusionPredictorTrain(benchmark::State &state)
{
    FusionPredictor fp;
    uint64_t pc = 0x10000;
    for (auto _ : state) {
        fp.train(pc, uint16_t(pc >> 2), unsigned(pc % 60) + 1);
        pc = 0x10000 + ((pc + 4) & 0xfff);
    }
}
BENCHMARK(BM_FusionPredictorTrain);

static void
BM_UchAccess(benchmark::State &state)
{
    UnfusedCommittedHistory uch;
    uint64_t line = 0;
    uint8_t cn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(uch.accessLoad(line & 0xff, cn));
        line += 7;
        ++cn;
    }
}
BENCHMARK(BM_UchAccess);

static void
BM_TagePredict(benchmark::State &state)
{
    Tage tage;
    uint64_t pc = 0x4000;
    bool taken = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tage.predict(pc));
        tage.update(pc, taken);
        tage.updateHistory(taken);
        taken = !taken;
        pc = 0x4000 + ((pc + 4) & 0x3ff);
    }
}
BENCHMARK(BM_TagePredict);

static void
BM_CacheAccess(benchmark::State &state)
{
    CoreParams params;
    CacheHierarchy caches(params);
    uint64_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(caches.dataAccess(line));
        line = (line + 17) & 0xffff;
    }
}
BENCHMARK(BM_CacheAccess);

static void
BM_Decode(benchmark::State &state)
{
    Instruction inst;
    inst.op = Op::Add;
    inst.rd = 1;
    inst.rs1 = 2;
    inst.rs2 = 3;
    const uint32_t word = encode(inst);
    for (auto _ : state)
        benchmark::DoNotOptimize(decode(word));
}
BENCHMARK(BM_Decode);

static void
BM_IdiomMatch(benchmark::State &state)
{
    Instruction first, second;
    first.op = Op::Ld;
    first.rd = 4;
    first.rs1 = 2;
    second.op = Op::Ld;
    second.rd = 5;
    second.rs1 = 2;
    second.imm = 8;
    for (auto _ : state)
        benchmark::DoNotOptimize(matchIdiom(first, second));
}
BENCHMARK(BM_IdiomMatch);

static void
BM_PipelineSimulation(benchmark::State &state)
{
    const Workload &workload = findWorkload("605.mcf_s");
    for (auto _ : state) {
        RunResult result = runOne(workload, FusionMode::Helios, 20'000);
        benchmark::DoNotOptimize(result.cycles);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 20'000);
}
BENCHMARK(BM_PipelineSimulation)->Unit(benchmark::kMillisecond);

/** Functional emulation speed through Hart::runFast(). */
static void
BM_FunctionalEmulation(benchmark::State &state)
{
    const Workload &workload = findWorkload("605.mcf_s");
    const Program program = workload.program();
    for (auto _ : state) {
        Memory mem;
        Hart hart(mem);
        hart.reset(program);
        benchmark::DoNotOptimize(hart.runFast(100'000));
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 100'000);
}
BENCHMARK(BM_FunctionalEmulation)->Unit(benchmark::kMillisecond);

/** Streaming dynamic-trace delivery (forEachDynInst). */
static void
BM_StreamingTrace(benchmark::State &state)
{
    const Workload &workload = findWorkload("605.mcf_s");
    for (auto _ : state) {
        uint64_t loads = 0;
        forEachDynInst(workload, 100'000, [&](const DynInst &dyn) {
            loads += dyn.isLoad();
        });
        benchmark::DoNotOptimize(loads);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 100'000);
}
BENCHMARK(BM_StreamingTrace)->Unit(benchmark::kMillisecond);

/** A small experiment matrix through the parallel worker pool. */
static void
BM_RunMatrix(benchmark::State &state)
{
    const Workload &workload = findWorkload("605.mcf_s");
    std::vector<MatrixCell> cells;
    for (FusionMode mode :
         {FusionMode::None, FusionMode::CsfSbr, FusionMode::Helios,
          FusionMode::Oracle})
        cells.emplace_back(workload, mode, 20'000);
    for (auto _ : state) {
        auto results = runMatrix(cells, unsigned(state.range(0)));
        benchmark::DoNotOptimize(results.front().cycles);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(cells.size()) * 20'000);
}
BENCHMARK(BM_RunMatrix)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
