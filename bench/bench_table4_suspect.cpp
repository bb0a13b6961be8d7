//===- bench/bench_table4_suspect.cpp - Paper Table 4 ----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Regenerates Table 4: percentage of endangered variables that are
// suspect, in the Figure 5(a) configuration (global optimizations, no
// register allocation).  Expected shape: the majority of endangered
// variables are noncurrent (suspect share small).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "eval/Measure.h"

using namespace sldb;

static void printTable4() {
  std::printf("Table 4: Percentage of endangered variables that are "
              "suspect\n         (global optimizations, no register "
              "allocation)\n");
  bench::rule();
  std::printf("%-10s %12s %12s %10s\n", "Program", "Noncurrent", "Suspect",
              "%Suspect");
  bench::rule();
  for (const BenchProgram &P : benchmarkPrograms()) {
    ClassAverages A =
        measureClassification(P, levelSpec(PipelineLevel::O2Frame));
    std::printf("%-10s %12.3f %12.3f %9.1f%%\n", P.Name, A.Noncurrent,
                A.Suspect, A.pctSuspectOfEndangered());
  }
  bench::rule();
  std::printf("(Paper reports e.g. sc at 9.6%% suspect: the majority of "
              "endangered variables are noncurrent.)\n\n");
}

static void BM_SuspectMeasurement(benchmark::State &State) {
  const BenchProgram &P =
      benchmarkPrograms()[static_cast<std::size_t>(State.range(0))];
  for (auto _ : State) {
    ClassAverages A =
        measureClassification(P, levelSpec(PipelineLevel::O2Frame));
    benchmark::DoNotOptimize(A.Suspect);
  }
  State.SetLabel(P.Name);
}
BENCHMARK(BM_SuspectMeasurement)->DenseRange(0, 7);

SLDB_BENCH_MAIN(printTable4)
