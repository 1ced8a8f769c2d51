/**
 * @file
 * google-benchmark microbenchmarks of the components perfbench has no
 * probe for: fusion-predictor lookup and train, UCH accesses and
 * instruction decode. perfbench's traced run (`--trace 1`) measures
 * the rest: TAGE, the caches, the idiom matcher, the pipeline, the
 * functional engine, the streaming trace and the run matrix.
 */

#include <benchmark/benchmark.h>

#include "fusion/fusion_predictor.hh"
#include "fusion/uch.hh"
#include "isa/decoder.hh"
#include "isa/encoder.hh"

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

BENCHMARK_MAIN();
