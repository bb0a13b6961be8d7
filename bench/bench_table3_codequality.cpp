//===- bench/bench_table3_codequality.cpp - Paper Table 3 ------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Table 3 of the paper compares cmcc's optimized code against gcc -O2 and
// MIPS cc -O2 on a DECstation (ratios around 0.84-1.13).  Those compilers
// and that hardware are unavailable; per the reproduction's substitution
// rule we measure the same sanity property — "the optimizer produces
// meaningfully better code" — as the dynamic-instruction-count ratio of
// optimized vs. unoptimized code on the R3K simulator.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "eval/Measure.h"
#include "vm/Machine.h"

using namespace sldb;

static void printTable3() {
  std::printf("Table 3 (substituted): dynamic instruction count, optimized "
              "vs unoptimized\n");
  bench::rule();
  std::printf("%-10s %14s %14s %8s %8s\n", "Program", "Instrs -O0",
              "Instrs -O2", "Ratio", "Match");
  bench::rule();
  double Product = 1.0;
  for (const BenchProgram &P : benchmarkPrograms()) {
    CodeQuality Q = measureCodeQuality(P);
    std::printf("%-10s %14llu %14llu %8.3f %8s\n", P.Name,
                static_cast<unsigned long long>(Q.InstrUnoptimized),
                static_cast<unsigned long long>(Q.InstrOptimized),
                Q.ratio(), Q.OutputsMatch ? "yes" : "NO");
    Product *= Q.ratio();
  }
  bench::rule();
  double GeoMean = 1.0;
  // 8th root via three square roots.
  GeoMean = Product;
  for (int I = 0; I < 3; ++I) {
    double X = GeoMean, R = GeoMean / 2 + 0.5;
    for (int J = 0; J < 30; ++J)
      R = (R + X / R) / 2;
    GeoMean = R;
  }
  std::printf("Geometric-mean ratio: %.3f (lower is better; a number "
              "well below 1 plays Table 3's role of showing the\noptimizer "
              "produces competitive code).\n\n",
              GeoMean);
}

static void BM_RunOptimized(benchmark::State &State) {
  const BenchProgram &P =
      benchmarkPrograms()[static_cast<std::size_t>(State.range(0))];
  CompiledModule CM = bench::build(P.Source, levelSpec(PipelineLevel::O2));
  for (auto _ : State) {
    Machine VM(CM.MM);
    VM.run();
    benchmark::DoNotOptimize(VM.instrCount());
  }
  State.SetLabel(P.Name);
}
BENCHMARK(BM_RunOptimized)->DenseRange(0, 7);

static void BM_RunUnoptimized(benchmark::State &State) {
  const BenchProgram &P =
      benchmarkPrograms()[static_cast<std::size_t>(State.range(0))];
  CompiledModule CM =
      bench::build(P.Source, levelSpec(PipelineLevel::O0), /*Schedule=*/false);
  for (auto _ : State) {
    Machine VM(CM.MM);
    VM.run();
    benchmark::DoNotOptimize(VM.instrCount());
  }
  State.SetLabel(P.Name);
}
BENCHMARK(BM_RunUnoptimized)->DenseRange(0, 7);

SLDB_BENCH_MAIN(printTable3)
