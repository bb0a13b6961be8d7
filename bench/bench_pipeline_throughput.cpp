//===- bench/bench_pipeline_throughput.cpp ---------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end throughput of the fuzz-campaign compile loop (IR gen +
/// cached-analysis pipeline + codegen) and of the classifier query sweep,
/// emitted as one machine-readable line:
///
///   BENCH {"bench":"pipeline_throughput","compile_ms":...,...}
///
/// Three comparisons in one run:
///  * speedup_vs_baseline — against the committed pre-refactor numbers in
///    bench/baseline_pipeline_throughput.json (or the embedded copy when
///    the file is not reachable from the working directory),
///  * cache_speedup — in-binary ratio against the same pipeline with
///    PipelineConfig::DisableAnalysisCache, which models the pre-manager
///    behavior of rebuilding every analysis at every pass boundary,
///  * campaign digest fields — so a run that got faster by computing
///    different answers is immediately visible.
///
/// Every phase is repeated and the minimum is reported: the minimum over
/// repetitions is the standard noise-robust estimator of true cost on a
/// shared machine.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchSnapshot.h"
#include "core/Classifier.h"
#include "eval/Levels.h"
#include "eval/Programs.h"
#include "fuzz/Campaign.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace sldb;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

/// The corpus the compile loop runs over: same generator seeds as the
/// fuzz campaign's smoke corpus.
std::vector<std::string> corpus() {
  std::vector<std::string> Srcs;
  for (unsigned I = 0; I < 60; ++I) {
    GenOptions G;
    Srcs.push_back(generateProgram(1000 + I, G));
  }
  return Srcs;
}

/// Same corpus shape with the aliasing grammar on: arrays, pointers,
/// address-taken locals, indirect stores.  Times the alias-analysis and
/// Load/Store lowering overhead the scalar corpus never exercises.
std::vector<std::string> aliasCorpus() {
  std::vector<std::string> Srcs;
  for (unsigned I = 0; I < 60; ++I) {
    GenOptions G;
    G.Alias = true;
    Srcs.push_back(generateProgram(1000 + I, G));
  }
  return Srcs;
}

/// One timed compile sweep: 3 x 60 programs built at \p Level.
double compileSweep(const std::vector<std::string> &Srcs,
                    const LevelSpec &Level, bool Cached, unsigned &Funcs) {
  CompileOptions CO;
  CO.Config.DisableAnalysisCache = !Cached;
  auto T0 = Clock::now();
  Funcs = 0;
  for (int Rep = 0; Rep < 3; ++Rep)
    for (const std::string &S : Srcs) {
      Expected<CompiledModule> CM = compileModule(S, Level, CO);
      Funcs += CM ? static_cast<unsigned>(CM->MM.Funcs.size()) : 0;
    }
  return msSince(T0);
}

/// One timed classifier sweep: every (statement, scope var) query of the
/// 8 eval programs, 3 times.
double querySweep(std::uint64_t &Queries) {
  auto T0 = Clock::now();
  Queries = 0;
  for (int Rep = 0; Rep < 3; ++Rep)
    for (const BenchProgram &P : benchmarkPrograms()) {
      Expected<CompiledModule> CM =
          compileModule(P.Source, levelSpec(PipelineLevel::O2));
      if (!CM)
        continue;
      const MachineModule &MM = CM->MM;
      for (const MachineFunction &MF : MM.Funcs) {
        Classifier CL(MF, *MM.Info);
        const FuncInfo &FI = MM.Info->func(MF.Id);
        for (StmtId S = 0; S < MF.StmtAddr.size(); ++S) {
          if (MF.StmtAddr[S] < 0)
            continue;
          for (VarId V : FI.Stmts[S].ScopeVars) {
            CL.classify(static_cast<std::uint32_t>(MF.StmtAddr[S]), V);
            ++Queries;
          }
        }
      }
    }
  return msSince(T0);
}

/// Minimal extraction of `"key": <number>` from the baseline JSON.
bool jsonNumber(const std::string &Text, const std::string &Key,
                double &Out) {
  auto Pos = Text.find("\"" + Key + "\"");
  if (Pos == std::string::npos)
    return false;
  Pos = Text.find(':', Pos);
  if (Pos == std::string::npos)
    return false;
  return std::sscanf(Text.c_str() + Pos + 1, "%lf", &Out) == 1;
}

void loadBaseline(double &CompileMs, double &SweepMs) {
  // Embedded copy of bench/baseline_pipeline_throughput.json, used when
  // the file is not reachable from the working directory.
  CompileMs = 223.4;
  SweepMs = 83.7;
  for (const char *Path : {"bench/baseline_pipeline_throughput.json",
                           "../bench/baseline_pipeline_throughput.json",
                           "baseline_pipeline_throughput.json"}) {
    std::ifstream In(Path);
    if (!In)
      continue;
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::string Text = Buf.str();
    double C, S;
    if (jsonNumber(Text, "compile_ms", C) &&
        jsonNumber(Text, "sweep_ms", S)) {
      CompileMs = C;
      SweepMs = S;
    }
    return;
  }
}

} // namespace

int main(int Argc, char **Argv) {
  sldb::bench::parseSnapshotFlag(Argc, Argv);
  const std::vector<std::string> Srcs = corpus();
  const std::vector<std::string> AliasSrcs = aliasCorpus();
  unsigned Funcs = 0;
  std::uint64_t Queries = 0;

  const LevelSpec &O2 = levelSpec(PipelineLevel::O2);
  double CompileMs = 1e300, UncachedMs = 1e300, SweepMs = 1e300;
  double SsaCompileMs = 1e300, AliasCompileMs = 1e300;
  for (int Rep = 0; Rep < 5; ++Rep)
    CompileMs = std::min(CompileMs, compileSweep(Srcs, O2, true, Funcs));
  for (int Rep = 0; Rep < 3; ++Rep)
    UncachedMs = std::min(UncachedMs, compileSweep(Srcs, O2, false, Funcs));
  // The SSA tier's cost on top of the lockstep set: same corpus through
  // the O2nl-ssa level (construct + GVN + sparse prop + destruct).
  const LevelSpec *Ssa = findLevel("O2nl-ssa");
  unsigned SsaFuncs = 0;
  for (int Rep = 0; Rep < 3; ++Rep)
    SsaCompileMs =
        std::min(SsaCompileMs, compileSweep(Srcs, *Ssa, true, SsaFuncs));
  // Aliasing corpus through the full lockstep set: how much the
  // arrays/pointers grammar costs end to end.
  unsigned AliasFuncs = 0;
  for (int Rep = 0; Rep < 3; ++Rep)
    AliasCompileMs = std::min(
        AliasCompileMs, compileSweep(AliasSrcs, O2, true, AliasFuncs));
  for (int Rep = 0; Rep < 5; ++Rep)
    SweepMs = std::min(SweepMs, querySweep(Queries));

  // Fixed-seed campaign digest: a faster pipeline that changes verdicts
  // is a regression, not a win (the golden test checks the full digest;
  // the headline counts ride along here for visibility).
  CampaignConfig CC;
  CC.Seed = 7;
  CC.Count = 40;
  CC.Shrink = false;
  CC.WriteFailures = false;
  CampaignResult CR = runCampaign(CC);

  double BaseCompile, BaseSweep;
  loadBaseline(BaseCompile, BaseSweep);
  double Speedup =
      (BaseCompile + BaseSweep) / (CompileMs + SweepMs);
  double CacheSpeedup = UncachedMs / CompileMs;

  char Json[768];
  std::snprintf(
      Json, sizeof(Json),
      "{\"bench\":\"pipeline_throughput\","
      "\"compile_ms\":%.1f,\"sweep_ms\":%.1f,"
      "\"uncached_compile_ms\":%.1f,\"cache_speedup\":%.2f,"
      "\"ssa_level\":\"%s\",\"ssa_compile_ms\":%.1f,"
      "\"ssa_overhead\":%.2f,"
      "\"alias_compile_ms\":%.1f,\"alias_overhead\":%.2f,"
      "\"baseline_compile_ms\":%.1f,\"baseline_sweep_ms\":%.1f,"
      "\"speedup_vs_baseline\":%.2f,"
      "\"funcs\":%u,\"queries\":%llu,"
      "\"campaign_runs\":%u,\"campaign_stops\":%llu,"
      "\"campaign_observations\":%llu,\"campaign_failures\":%zu}",
      CompileMs, SweepMs, UncachedMs, CacheSpeedup, Ssa->Name, SsaCompileMs,
      SsaCompileMs / CompileMs, AliasCompileMs, AliasCompileMs / CompileMs,
      BaseCompile, BaseSweep,
      Speedup, Funcs, static_cast<unsigned long long>(Queries), CR.Runs,
      static_cast<unsigned long long>(CR.Stops),
      static_cast<unsigned long long>(CR.Observations),
      CR.Failures.size());
  sldb::bench::emitBench(Json);
  return 0;
}
