//===- bench/bench_ablation_opts.cpp - Design-choice ablations -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Ablations behind the paper's two design arguments (§4, Conclusions):
//
//  1. Per-optimization contribution to endangerment: which transformation
//     actually endangers variables?  The paper found code hoisting
//     contributes almost nothing — endangerment comes from elimination
//     and sinking of assignments — so "a combination of residence
//     detection and the simple dead-reach analysis is good enough for
//     most practical situations".
//
//  2. Value recovery (§2.5): how much endangerment does recovery absorb?
//     With recovery off, recovered variables fall back to noncurrent,
//     restoring the noncurrent-majority shape of the paper's Table 4.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "eval/Measure.h"

using namespace sldb;

namespace {

/// One ablation row: its own level (frame slots: no register
/// allocation) and whether §2.5 recovery is on.
struct Config {
  LevelSpec Level;
  bool Recovery;
};

std::vector<Config> configs() {
  OptOptions DceOnly = OptOptions::none();
  DceOnly.ConstProp = DceOnly.CopyProp = true; // Feed the eliminators.
  DceOnly.DCE = true;
  DceOnly.BranchOpt = true;

  OptOptions PdeOnly = DceOnly;
  PdeOnly.PDE = true;

  OptOptions PreOnly = OptOptions::none();
  PreOnly.ConstProp = PreOnly.CopyProp = true;
  PreOnly.PRE = true;
  PreOnly.BranchOpt = true;

  const LevelSpec &O0 = levelSpec(PipelineLevel::O0);
  const LevelSpec &Full = levelSpec(PipelineLevel::O2Frame);
  return {
      {{O0.Level, "none (baseline)", O0.Opts, false}, true},
      {{Full.Level, "hoisting only (PRE)", PreOnly, false}, true},
      {{Full.Level, "elimination only (DCE)", DceOnly, false}, true},
      {{Full.Level, "elimination + sinking (DCE+PDE)", PdeOnly, false}, true},
      {{Full.Level, "full pipeline", Full.Opts, false}, true},
      {{Full.Level, "full pipeline, recovery OFF", Full.Opts, false}, false},
  };
}

} // namespace

static void printAblation() {
  std::printf("Ablation: which optimizations endanger variables, and what "
              "recovery absorbs\n(averages per breakpoint across the 8 "
              "programs; no register allocation)\n");
  bench::rule('-', 78);
  std::printf("%-32s %10s %9s %9s %9s\n", "Configuration", "Noncurrent",
              "Suspect", "Recovered", "Endgr+Rec");
  bench::rule('-', 78);
  for (const Config &C : configs()) {
    double Noncur = 0, Susp = 0, Rec = 0;
    for (const BenchProgram &P : benchmarkPrograms()) {
      ClassAverages A = measureClassification(P, C.Level, C.Recovery);
      Noncur += A.Noncurrent;
      Susp += A.Suspect;
      Rec += A.Recovered;
    }
    Noncur /= 8;
    Susp /= 8;
    Rec /= 8;
    std::printf("%-32s %10.3f %9.3f %9.3f %9.3f\n", C.Level.Name, Noncur,
                Susp, Rec, Noncur + Susp + Rec);
  }
  bench::rule('-', 78);
  std::printf(
      "(Paper: hoisting 'did not affect source-level debugging for these\n"
      "programs'; endangerment comes from elimination and sinking.  With\n"
      "recovery off, the noncurrent majority of Table 4 reappears.)\n\n");
}

static void BM_AblationSweep(benchmark::State &State) {
  auto Cs = configs();
  const Config &C = Cs[static_cast<std::size_t>(State.range(0))];
  for (auto _ : State) {
    ClassAverages A =
        measureClassification(benchmarkPrograms()[0], C.Level, C.Recovery);
    benchmark::DoNotOptimize(A.Noncurrent);
  }
  State.SetLabel(C.Level.Name);
}
BENCHMARK(BM_AblationSweep)->DenseRange(0, 5);

SLDB_BENCH_MAIN(printAblation)
