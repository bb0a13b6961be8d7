//===- bench/bench_fig5b_regalloc.cpp - Paper Figure 5(b) ------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Regenerates Figure 5(b): average number of local variables at a
// breakpoint per class, with global optimizations AND graph-coloring
// register allocation.  Expected shape (paper §4): about half the
// variables current or uninitialized; almost all problem variables are
// *nonresident* rather than endangered — dead-code elimination's effect
// manifests as register reuse.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "eval/Measure.h"

using namespace sldb;

static void printFigure5b() {
  std::printf("Figure 5(b): Average number of local variables at a "
              "breakpoint\n            (global optimizations + register "
              "allocation)\n");
  bench::rule();
  std::printf("%-10s %8s %8s %11s %8s %12s\n", "Program", "Uninit",
              "Current", "Endangered", "Nonres", "(Noncur/Susp)");
  bench::rule();
  double SumEndangered = 0, SumNonres = 0;
  for (const BenchProgram &P : benchmarkPrograms()) {
    ClassAverages A =
        measureClassification(P, levelSpec(PipelineLevel::O2));
    std::printf("%-10s %8.2f %8.2f %11.2f %8.2f  %5.2f/%-5.2f\n", P.Name,
                A.Uninitialized, A.Current, A.endangered(), A.Nonresident,
                A.Noncurrent, A.Suspect);
    SumEndangered += A.endangered();
    SumNonres += A.Nonresident;
  }
  bench::rule();
  std::printf("Aggregate endangered %.2f vs nonresident %.2f per "
              "breakpoint.\n",
              SumEndangered / 8, SumNonres / 8);
  std::printf("(Paper: with register allocation the debugger is affected "
              "mostly by nonresident variables, few endangered.)\n\n");
}

static void BM_ClassifySweepRegalloc(benchmark::State &State) {
  const BenchProgram &P =
      benchmarkPrograms()[static_cast<std::size_t>(State.range(0))];
  for (auto _ : State) {
    ClassAverages A =
        measureClassification(P, levelSpec(PipelineLevel::O2));
    benchmark::DoNotOptimize(A.Nonresident);
  }
  State.SetLabel(P.Name);
}
BENCHMARK(BM_ClassifySweepRegalloc)->DenseRange(0, 7);

SLDB_BENCH_MAIN(printFigure5b)
