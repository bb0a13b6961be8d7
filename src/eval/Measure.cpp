//===- eval/Measure.cpp ---------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "eval/Measure.h"

#include "ir/IRGen.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/ThreadPool.h"
#include "vm/Machine.h"

using namespace sldb;

namespace {

/// Builds a benchmark program at \p Level.  Benchmark sources ship with
/// the library, so a failure is a library bug.
CompiledModule mustBuild(const BenchProgram &P, const LevelSpec &Level,
                         bool Schedule = true) {
  CompileOptions CO;
  CO.Schedule = Schedule;
  Expected<CompiledModule> CM = compileModule(P.Source, Level, CO);
  if (!CM)
    sldb_unreachable(("benchmark program failed to build: " +
                      std::string(P.Name) + " at " + Level.Name + "\n" +
                      CM.status().str())
                         .c_str());
  return std::move(*CM);
}

} // namespace

void CoverageCounts::count(const Classification &R) {
  ++Points;
  switch (R.Kind) {
  case VarClass::Uninitialized:
    ++Uninitialized;
    break;
  case VarClass::Nonresident:
    ++Nonresident;
    break;
  case VarClass::Noncurrent:
    ++Noncurrent;
    break;
  case VarClass::Suspect:
    ++Suspect;
    break;
  case VarClass::Current:
    ++Current;
    break;
  }
  if (R.Recoverable)
    ++Recovered;
  if (R.Degraded)
    ++Degraded;
}

SourceStats sldb::sourceStats(const BenchProgram &P) {
  SourceStats S;
  S.Name = P.Name;

  // Count non-blank source lines.
  std::string_view Src = P.Source;
  bool LineHasText = false;
  for (char C : Src) {
    if (C == '\n') {
      if (LineHasText)
        ++S.LinesOfCode;
      LineHasText = false;
    } else if (C != ' ' && C != '\t') {
      LineHasText = true;
    }
  }
  if (LineHasText)
    ++S.LinesOfCode;

  DiagnosticEngine Diags;
  auto M = compileToIR(P.Source, Diags);
  if (!M)
    sldb_unreachable(("benchmark program failed to compile: " +
                      std::string(P.Name) + "\n" + Diags.str())
                         .c_str());
  S.Functions = static_cast<unsigned>(M->Info->Funcs.size());
  std::uint64_t VarSum = 0;
  for (const FuncInfo &F : M->Info->Funcs) {
    S.Breakpoints += static_cast<unsigned>(F.Stmts.size());
    for (const StmtInfo &St : F.Stmts)
      VarSum += St.ScopeVars.size();
  }
  S.BreakpointsPerFunction =
      S.Functions ? static_cast<double>(S.Breakpoints) / S.Functions : 0.0;
  S.VarsPerBreakpoint =
      S.Breakpoints ? static_cast<double>(VarSum) / S.Breakpoints : 0.0;
  return S;
}

void sldb::countBuild(const MachineModule &MM, CoverageCounts &CC,
                      bool EnableRecovery, bool DegradeAll,
                      const PointVerdictFn &Point) {
  for (const MachineFunction &MF : MM.Funcs) {
    Classifier C(MF, *MM.Info, EnableRecovery);
    if (DegradeAll)
      C.degradeAllVariables();
    const FuncInfo &FI = MM.Info->func(MF.Id);
    CC.SrcStmts += MF.StmtAddr.size();
    for (StmtId S = 0; S < MF.StmtAddr.size(); ++S) {
      if (MF.StmtAddr[S] < 0)
        continue; // The statement emitted no code (paper: code location).
      ++CC.CodeStmts;
      std::uint32_t Addr = static_cast<std::uint32_t>(MF.StmtAddr[S]);
      for (VarId V : FI.Stmts[S].ScopeVars) {
        Classification R = C.classify(Addr, V);
        CC.count(R);
        if (Point)
          Point(MF, S, V, R);
      }
    }
  }
}

ClassAverages sldb::measureClassification(const BenchProgram &P,
                                          const LevelSpec &Level,
                                          bool EnableRecovery) {
  CoverageCounts Counts;
  countBuild(mustBuild(P, Level).MM, Counts, EnableRecovery);
  ClassAverages A;
  A.Breakpoints = static_cast<unsigned>(Counts.CodeStmts);
  if (A.Breakpoints == 0)
    return A;
  double N = A.Breakpoints;
  A.Uninitialized = Counts.Uninitialized / N;
  A.Nonresident = Counts.Nonresident / N;
  A.Noncurrent = Counts.Noncurrent / N;
  A.Suspect = Counts.Suspect / N;
  A.Current = Counts.Current / N;
  A.Recovered = Counts.Recovered / N;
  return A;
}

std::vector<ClassAverages>
sldb::measureClassificationAll(const std::vector<BenchProgram> &Corpus,
                               const LevelSpec &Level, bool EnableRecovery,
                               unsigned Jobs) {
  std::vector<ClassAverages> Out(Corpus.size());
  ThreadPool Pool(Jobs ? Jobs : ThreadPool::hardwareJobs());
  Pool.parallelFor(Corpus.size(), [&](std::size_t I, unsigned) {
    Out[I] = measureClassification(Corpus[I], Level, EnableRecovery);
  });
  return Out;
}

CoverageCounts sldb::measureCoverage(const std::vector<BenchProgram> &Corpus,
                                     const LevelSpec &Level,
                                     const CoverageOptions &MO) {
  CoverageCounts CC;
  CC.Level = Level.Name;
  for (const BenchProgram &P : Corpus)
    countBuild(mustBuild(P, Level, MO.Schedule).MM, CC,
               /*EnableRecovery=*/true, MO.DegradeAll);
  return CC;
}

std::string sldb::renderCoverageReport(const std::vector<CoverageCounts> &Rows) {
  std::string S = "level      points  uninit  nonres  noncur suspect "
                  "current   recov  endangered  debuggable%\n";
  char Buf[160];
  for (const CoverageCounts &R : Rows) {
    std::snprintf(Buf, sizeof(Buf),
                  "%-10s %6llu  %6llu  %6llu  %6llu  %6llu  %6llu  %6llu"
                  "      %6llu       %6.2f\n",
                  R.Level.c_str(),
                  static_cast<unsigned long long>(R.Points),
                  static_cast<unsigned long long>(R.Uninitialized),
                  static_cast<unsigned long long>(R.Nonresident),
                  static_cast<unsigned long long>(R.Noncurrent),
                  static_cast<unsigned long long>(R.Suspect),
                  static_cast<unsigned long long>(R.Current),
                  static_cast<unsigned long long>(R.Recovered),
                  static_cast<unsigned long long>(R.endangered()),
                  R.pctDebuggable());
    S += Buf;
  }
  return S;
}

std::string sldb::renderLevelReport(const std::vector<CoverageCounts> &Rows) {
  std::string S = "level       points current   recov  endangered  nonres "
                  "degraded  linecov%  avail%\n";
  char Buf[192];
  for (const CoverageCounts &R : Rows) {
    std::snprintf(Buf, sizeof(Buf),
                  "%-10s %7llu %7llu  %6llu      %6llu  %6llu   %6llu"
                  "    %6.2f  %6.2f\n",
                  R.Level.c_str(),
                  static_cast<unsigned long long>(R.Points),
                  static_cast<unsigned long long>(R.Current),
                  static_cast<unsigned long long>(R.Recovered),
                  static_cast<unsigned long long>(R.endangered()),
                  static_cast<unsigned long long>(R.Nonresident),
                  static_cast<unsigned long long>(R.Degraded),
                  R.pctLineCoverage(), R.pctDebuggable());
    S += Buf;
  }
  return S;
}

std::string sldb::renderConservatismReport(
    const std::vector<ConservatismCounts> &Rows) {
  std::string S = "level       noncur(match)  suspect(match)  nonres(match)"
                  "  conservatism%\n";
  char Buf[192];
  for (const ConservatismCounts &R : Rows) {
    std::snprintf(Buf, sizeof(Buf),
                  "%-10s %6llu (%5llu)  %6llu (%5llu)  %5llu (%5llu)"
                  "         %6.2f\n",
                  R.Level.c_str(),
                  static_cast<unsigned long long>(R.Noncurrent),
                  static_cast<unsigned long long>(R.NoncurrentMatched),
                  static_cast<unsigned long long>(R.Suspect),
                  static_cast<unsigned long long>(R.SuspectMatched),
                  static_cast<unsigned long long>(R.Nonresident),
                  static_cast<unsigned long long>(R.NonresidentMatched),
                  R.rate());
    S += Buf;
  }
  return S;
}

CodeQuality sldb::measureCodeQuality(const BenchProgram &P,
                                     std::uint64_t Fuel) {
  CodeQuality Q;
  CompiledModule CM0 =
      mustBuild(P, levelSpec(PipelineLevel::O0), /*Schedule=*/false);
  CompiledModule CM2 = mustBuild(P, levelSpec(PipelineLevel::O2));

  Machine V0(CM0.MM, Fuel), V2(CM2.MM, Fuel);
  StopReason R0 = V0.run();
  StopReason R2 = V2.run();
  Q.InstrUnoptimized = V0.instrCount();
  Q.InstrOptimized = V2.instrCount();
  Q.OutputsMatch = R0 == StopReason::Exited && R2 == StopReason::Exited &&
                   V0.outputText() == V2.outputText() &&
                   V0.exitValue() == V2.exitValue();
  return Q;
}
