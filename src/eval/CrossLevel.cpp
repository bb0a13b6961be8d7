//===- eval/CrossLevel.cpp ------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "eval/CrossLevel.h"

#include <map>
#include <optional>
#include <tuple>

using namespace sldb;

std::string AvailRegression::str() const {
  std::string S = Program.empty() ? std::string() : Program + ": ";
  S += FuncName + ":s" + std::to_string(Stmt) + " line " +
       std::to_string(Line) + " var '" + VarName + "': " +
       levelSpec(Less).Name + "=" + varClassName(LessKind) + " vs " +
       levelSpec(More).Name + "=" + varClassName(MoreKind);
  if (MoreRecovered)
    S += "+recovered";
  return S;
}

namespace {

/// One classified point at one level.
struct PointVerdict {
  VarClass Kind = VarClass::Current;
  bool Recoverable = false;
};

using PointKey = std::tuple<FuncId, StmtId, VarId>;

/// The debugger can show a truthful value without refusing: Current, or
/// any verdict carrying a §2.5 recovery.
bool available(const PointVerdict &V) {
  return V.Kind == VarClass::Current || V.Recoverable;
}

/// The debugger warns the value may be stale (Suspect) or refuses
/// entirely (Nonresident).  Noncurrent is excluded deliberately: it
/// comes with a definite it-is-stale explanation, so a heavier level
/// showing the (sound) value is expected, not an anomaly.
bool refused(const PointVerdict &V) {
  return V.Kind == VarClass::Suspect || V.Kind == VarClass::Nonresident;
}

} // namespace

ProgramSweep sldb::sweepProgram(std::string_view Name,
                                std::string_view Src) {
  const auto &Table = pipelineLevels();
  ProgramSweep PS;
  PS.Levels.resize(Table.size());

  // Verdict matrix: one column per level, keyed by point.  Uninitialized
  // points participate too — an Uninitialized verdict is neither
  // available nor refused, so it can never trigger a regression, but its
  // presence keeps point sets comparable across levels.
  std::vector<std::map<PointKey, PointVerdict>> Columns(Table.size());
  std::map<PointKey, unsigned> Lines;

  // The variable/function name tables are identical at every level (the
  // frontend produces them); keep the first build's for rendering.
  std::unique_ptr<IRModule> Names;
  CompileOptions Unscheduled; // Match the lockstep oracle's builds.
  Unscheduled.Schedule = false;
  for (std::size_t L = 0; L < Table.size(); ++L) {
    Expected<CompiledModule> CM = compileModule(Src, Table[L], Unscheduled);
    if (!CM) {
      const Status &S = CM.status();
      PS.CompileError = S.code() == ErrorCode::SourceError
                            ? S.message()
                            : std::string(Table[L].Name) + ": " + S.str();
      return PS;
    }
    PS.Levels[L].Level = Table[L].Name;
    const ProgramInfo &LInfo = *CM->MM.Info;
    countBuild(CM->MM, PS.Levels[L], /*EnableRecovery=*/true,
               /*DegradeAll=*/false,
               [&](const MachineFunction &MF, StmtId S, VarId V,
                   const Classification &R) {
                 PointKey K{MF.Id, S, V};
                 Columns[L][K] = {R.Kind, R.Recoverable};
                 Lines.emplace(K, LInfo.func(MF.Id).Stmts[S].Loc.Line);
               });
    if (!Names)
      Names = std::move(CM->IR);
  }
  PS.Compiled = true;
  const ProgramInfo &Info = *Names->Info;

  // Regressions, deduped per point: for each point in canonical order,
  // scan comparable level pairs (More ascending, then Less ascending)
  // and keep the first hit.
  for (const auto &KV : Lines) {
    const PointKey &Key = KV.first;
    bool Found = false;
    for (std::size_t More = 0; More < Table.size() && !Found; ++More) {
      auto MIt = Columns[More].find(Key);
      if (MIt == Columns[More].end() || !available(MIt->second))
        continue;
      for (std::size_t Less = 0; Less < Table.size() && !Found; ++Less) {
        if (!moreOptimized(Table[More], Table[Less]))
          continue;
        auto LIt = Columns[Less].find(Key);
        if (LIt == Columns[Less].end() || !refused(LIt->second))
          continue;
        AvailRegression R;
        R.Program = std::string(Name);
        R.Less = Table[Less].Level;
        R.More = Table[More].Level;
        std::tie(R.Func, R.Stmt, R.Var) = Key;
        R.FuncName = Info.func(R.Func).Name;
        R.VarName = Info.var(R.Var).Name;
        R.Line = Lines.at(Key);
        R.LessKind = LIt->second.Kind;
        R.MoreKind = MIt->second.Kind;
        R.MoreRecovered = MIt->second.Recoverable;
        PS.Regressions.push_back(std::move(R));
        Found = true;
      }
    }
  }
  return PS;
}

CrossLevelReport sldb::sweepCorpus(const std::vector<BenchProgram> &Corpus) {
  const auto &Table = pipelineLevels();
  CrossLevelReport R;
  R.Levels.resize(Table.size());
  for (std::size_t L = 0; L < Table.size(); ++L)
    R.Levels[L].Level = Table[L].Name;
  for (const BenchProgram &P : Corpus) {
    ++R.Programs;
    ProgramSweep PS = sweepProgram(P.Name, P.Source);
    if (!PS.Compiled) {
      ++R.CompileErrors;
      continue;
    }
    for (std::size_t L = 0; L < Table.size(); ++L)
      R.Levels[L].add(PS.Levels[L]);
    for (AvailRegression &Reg : PS.Regressions)
      R.Regressions.push_back(std::move(Reg));
  }
  return R;
}

std::string sldb::renderSweepReport(const CrossLevelReport &R) {
  std::string S = renderLevelReport(R.Levels);
  S += "regressions: " + std::to_string(R.Regressions.size()) +
       " candidate(s)";
  if (R.CompileErrors)
    S += ", " + std::to_string(R.CompileErrors) + " compile error(s)";
  S += "\n";
  for (const AvailRegression &Reg : R.Regressions)
    S += "  " + Reg.str() + "\n";
  return S;
}
