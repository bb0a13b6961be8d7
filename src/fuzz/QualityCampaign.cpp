//===- fuzz/QualityCampaign.cpp -------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The stepping and cross-level oracles, as unit oracles of the campaign
// driver (fuzz/CampaignDriver.h): units are (seed, promote mode) for the
// stepping campaign and one seed for the cross-level campaign.
//
//===----------------------------------------------------------------------===//

#include "fuzz/QualityCampaign.h"

#include "eval/Levels.h"
#include "support/Stats.h"

#include <optional>

using namespace sldb;

//===----------------------------------------------------------------------===//
// Stepping campaign
//===----------------------------------------------------------------------===//

std::vector<Violation> sldb::checkStepProgram(const std::string &Src,
                                              bool Promote,
                                              const OptOptions *Opts) {
  StepOracleOptions O;
  if (Opts)
    O.Opts = *Opts;
  O.Promote = Promote;
  StepResult R = runStepLockstep(Src, O);
  if (!R.Compiled)
    return compileFailure("does not compile: " + R.CompileError);
  return checkStepping(R);
}

namespace {

/// One (seed, mode) stepping unit's outcome.
struct StepOutcome {
  bool CompileFail = false; ///< Generator bug: the sibling mode is dropped.
  bool Capped = false;
  std::uint64_t Stmts = 0;
  std::optional<CampaignFailure> F;
};

StepOutcome judgeStep(const StepCampaignConfig &C, const OptOptions *Opts,
                      std::uint32_t Seed, const std::string &Src,
                      bool Promote) {
  StepOutcome O;

  StepOracleOptions SO;
  if (Opts)
    SO.Opts = *Opts;
  SO.Promote = Promote;
  StepResult R = runStepLockstep(Src, SO);

  if (!R.Compiled) {
    O.CompileFail = true;
    O.F = makeFailure(Seed, Promote, Src, C.Level,
                      compileFailure("generated program does not compile: " +
                                     R.CompileError));
    return O;
  }
  O.Capped = R.Capped;
  O.Stmts = R.Visits.size();
  Stats::histogram("step.visit_rows").record(R.Visits.size());

  std::vector<Violation> Vs = checkStepping(R);
  if (Vs.empty())
    return O;
  O.F = makeFailure(Seed, Promote, Src, C.Level, std::move(Vs));
  O.F->Oracle = "step";
  if (C.Shrink)
    O.F->Reduced = shrinkSameKind(
        Src, O.F->Violations.front().Kind, [&](const std::string &Cand) {
          return checkStepProgram(Cand, Promote, Opts);
        });
  return O;
}

} // namespace

StepCampaignResult sldb::runStepCampaign(const StepCampaignConfig &C) {
  StepCampaignResult R;
  const LevelSpec *Level;
  if (!startCampaign(C, R, Level))
    return R;

  // Level campaigns collapse to one mode with the level's own settings.
  const bool Both = C.BothPromoteModes && !Level;
  const bool Single = Level ? Level->Promote : C.Promote;
  const OptOptions *Opts = Level ? &Level->Opts : nullptr;

  UnitOracle<StepOutcome> O;
  O.UnitArg = "promote";
  O.Units = Both ? std::vector<std::string>{"on", "off"}
                 : std::vector<std::string>{Single ? "on" : "off"};
  O.Judge = [&](std::uint32_t Seed, const std::string &Src, unsigned K) {
    return judgeStep(C, Opts, Seed, Src, Both ? K == 0 : Single);
  };
  O.Fold = [&](StepOutcome &S, FailureArchive &A) {
    ++R.Runs;
    if (S.CompileFail) {
      ++R.FailedCompiles;
      A.add(std::move(*S.F), C.FailureDir);
      return false; // The other mode cannot compile either.
    }
    R.CappedRuns += S.Capped;
    R.StmtsChecked += S.Stmts;
    if (S.F)
      A.add(std::move(*S.F), C.FailureDir);
    return true;
  };
  runUnits(C, O, R);
  return R;
}

std::string sldb::renderStepCampaignReport(const StepCampaignResult &R) {
  if (!R.ConfigError.empty())
    return "config error: " + R.ConfigError + "\n";
  std::string S;
  S += "programs:       " + std::to_string(R.Programs) + "\n";
  S += "stepping runs:  " + std::to_string(R.Runs) + "\n";
  S += "stmts checked:  " + std::to_string(R.StmtsChecked) + "\n";
  S += "capped runs:    " + std::to_string(R.CappedRuns) + "\n";
  S += "failed compiles:" + std::string(" ") +
       std::to_string(R.FailedCompiles) + "\n";
  S += "failures:       " + std::to_string(R.Failures.size()) + "\n";
  return S;
}

//===----------------------------------------------------------------------===//
// Cross-level campaign
//===----------------------------------------------------------------------===//

const char *sldb::judgmentName(JudgedRegression::Judgment J) {
  switch (J) {
  case JudgedRegression::Judgment::Explained:
    return "explained";
  case JudgedRegression::Judgment::Unexplained:
    return "UNEXPLAINED";
  case JudgedRegression::Judgment::Unjudged:
    return "unjudged";
  }
  return "?";
}

namespace {

/// Accumulates one lockstep run's observations into a level's measured
/// conservatism.  Only observations with a trustworthy expected value
/// participate; verdicts already shown via recovery are not
/// conservative — the debugger displayed the value.
void accumulateConservatism(ConservatismCounts &CC,
                            const LockstepResult &LR) {
  for (const StopObservation &Stop : LR.Stops)
    for (const VarObservation &V : Stop.Vars) {
      const VarReport &E = V.Expected;
      if (!E.HasValue || E.Class.Kind == VarClass::Uninitialized)
        continue;
      if (V.Opt.Class.Recoverable)
        continue;
      auto Matches = [&](bool IsD, std::int64_t I, double D) {
        if (IsD != E.IsDouble)
          return false;
        return IsD ? D == E.DoubleValue : I == E.IntValue;
      };
      switch (V.Opt.Class.Kind) {
      case VarClass::Noncurrent:
        ++CC.Noncurrent;
        if (V.Opt.HasValue &&
            Matches(V.Opt.IsDouble, V.Opt.IntValue, V.Opt.DoubleValue))
          ++CC.NoncurrentMatched;
        break;
      case VarClass::Suspect:
        ++CC.Suspect;
        if (V.Opt.HasValue &&
            Matches(V.Opt.IsDouble, V.Opt.IntValue, V.Opt.DoubleValue))
          ++CC.SuspectMatched;
        break;
      case VarClass::Nonresident:
        // The verdict displays nothing; the *raw* storage home is the
        // what-if: would a naive debugger have printed the right value?
        ++CC.Nonresident;
        if (V.RawValid && Matches(V.RawIsDouble, V.RawInt, V.RawDouble))
          ++CC.NonresidentMatched;
        break;
      default:
        break;
      }
    }
}

/// Per-lockstep-run observation cap: each seed runs every judgeable
/// level, so the cap is tighter than the differential campaign's.
constexpr unsigned XLMaxStops = 1000;

/// One seed's cross-level unit outcome.
struct XLOutcome {
  bool CompileFail = false;
  unsigned LockstepRuns = 0;
  unsigned UnsoundRuns = 0;
  std::vector<CoverageCounts> Levels;         ///< All levels.
  std::vector<ConservatismCounts> Cons;       ///< Judgeable levels.
  std::vector<JudgedRegression> Regs;
  std::vector<CampaignFailure> Failures;
};

XLOutcome judgeSweep(const CrossLevelCampaignConfig &C, std::uint32_t Seed,
                     const std::string &Src) {
  XLOutcome O;
  std::string Name = "seed-" + std::to_string(Seed);

  ProgramSweep PS = sweepProgram(Name, Src);
  if (!PS.Compiled) {
    O.CompileFail = true;
    O.Failures.push_back(makeFailure(
        Seed, true, Src, "",
        compileFailure("generated program does not compile: " +
                       PS.CompileError)));
    return O;
  }
  O.Levels = std::move(PS.Levels);
  Stats::histogram("crosslevel.candidates").record(PS.Regressions.size());

  // One ground-truth run per judgeable level: soundness, conservatism,
  // and the evidence base for judging this seed's candidates.
  const auto &Table = pipelineLevels();
  std::vector<std::vector<Violation>> LevelViolations(Table.size());
  for (std::size_t L = 0; L < Table.size(); ++L) {
    const LevelSpec &Spec = Table[L];
    if (!judgeable(Spec))
      continue;
    LockstepOptions LO;
    LO.Opts = Spec.Opts;
    LO.Promote = Spec.Promote;
    LO.MaxStops = XLMaxStops;
    LockstepResult LR = runLockstep(Src, LO);
    ++O.LockstepRuns;
    if (!LR.Compiled) {
      // The sweep compiled this program; a level refusing it now is a
      // pipeline bug worth surfacing as an unsound run.
      ++O.UnsoundRuns;
      O.Failures.push_back(makeFailure(
          Seed, Spec.Promote, Src, Spec.Name,
          compileFailure("compiles in the sweep but not under lockstep: " +
                         LR.CompileError)));
      continue;
    }

    ConservatismCounts CC;
    CC.Level = Spec.Name;
    accumulateConservatism(CC, LR);
    O.Cons.push_back(CC);
    Stats::histogram("crosslevel.conservative_verdicts").record(CC.total());

    LevelViolations[L] = checkSoundness(LR);
    if (LevelViolations[L].empty())
      continue;
    ++O.UnsoundRuns;
    CampaignFailure F = makeFailure(Seed, Spec.Promote, Src, Spec.Name,
                                    LevelViolations[L]);
    if (C.Shrink)
      F.Reduced = shrinkSameKind(
          Src, F.Violations.front().Kind, [&](const std::string &Cand) {
            return checkProgram(Cand, Spec.Promote, &Spec.Opts, XLMaxStops);
          });
    O.Failures.push_back(std::move(F));
  }

  // Judge the sweep's candidates against the ground truth at each
  // candidate's More level.
  for (AvailRegression &Reg : PS.Regressions) {
    JudgedRegression J;
    const LevelSpec &More = levelSpec(Reg.More);
    if (!judgeable(More)) {
      J.J = JudgedRegression::Judgment::Unjudged;
    } else {
      J.J = JudgedRegression::Judgment::Explained;
      for (const Violation &V :
           LevelViolations[static_cast<std::size_t>(Reg.More)])
        if (isUnsoundViolation(V.Kind) && V.Func == Reg.Func &&
            V.Stmt == Reg.Stmt && V.Var == Reg.VarName) {
          J.J = JudgedRegression::Judgment::Unexplained;
          break;
        }
    }
    J.R = std::move(Reg);
    O.Regs.push_back(std::move(J));
  }
  return O;
}

} // namespace

CrossLevelCampaignResult
sldb::runCrossLevelCampaign(const CrossLevelCampaignConfig &C) {
  CrossLevelCampaignResult R;
  const LevelSpec *Level;
  if (!startCampaign(C, R, Level))
    return R;
  if (!C.Level.empty()) {
    R.ConfigError = "the cross-level campaign sweeps every pipeline level; "
                    "it takes no level";
    return R;
  }

  const auto &Table = pipelineLevels();
  R.Levels.resize(Table.size());
  for (std::size_t L = 0; L < Table.size(); ++L) {
    R.Levels[L].Level = Table[L].Name;
    if (judgeable(Table[L])) {
      ConservatismCounts CC;
      CC.Level = Table[L].Name;
      R.Conservatism.push_back(CC);
    }
  }

  UnitOracle<XLOutcome> O;
  O.Judge = [&](std::uint32_t Seed, const std::string &Src, unsigned) {
    return judgeSweep(C, Seed, Src);
  };
  O.Fold = [&](XLOutcome &X, FailureArchive &A) {
    R.LockstepRuns += X.LockstepRuns;
    R.UnsoundRuns += X.UnsoundRuns;
    R.CompileErrors += X.CompileFail;
    for (std::size_t L = 0; L < X.Levels.size() && L < R.Levels.size(); ++L)
      R.Levels[L].add(X.Levels[L]);
    // Match by label: a level whose lockstep build failed produced no
    // conservatism row for this seed, so indices may not align.
    for (const ConservatismCounts &CC : X.Cons)
      for (ConservatismCounts &Row : R.Conservatism)
        if (Row.Level == CC.Level) {
          Row.add(CC);
          break;
        }
    for (JudgedRegression &J : X.Regs) {
      if (J.J == JudgedRegression::Judgment::Unexplained)
        ++R.Unexplained;
      R.Regressions.push_back(std::move(J));
    }
    for (CampaignFailure &F : X.Failures)
      A.add(std::move(F), C.FailureDir);
    return true;
  };
  runUnits(C, O, R);
  return R;
}

std::string
sldb::renderCrossLevelCampaignReport(const CrossLevelCampaignResult &R) {
  if (!R.ConfigError.empty())
    return "config error: " + R.ConfigError + "\n";
  std::string S = renderLevelReport(R.Levels);
  S += "\n";
  S += renderConservatismReport(R.Conservatism);
  S += "\n";
  S += "programs: " + std::to_string(R.Programs) + ", lockstep runs: " +
       std::to_string(R.LockstepRuns) + ", unsound runs: " +
       std::to_string(R.UnsoundRuns);
  if (R.CompileErrors)
    S += ", compile errors: " + std::to_string(R.CompileErrors);
  S += "\n";

  unsigned Explained = 0, Unjudged = 0;
  for (const JudgedRegression &J : R.Regressions) {
    if (J.J == JudgedRegression::Judgment::Explained)
      ++Explained;
    else if (J.J == JudgedRegression::Judgment::Unjudged)
      ++Unjudged;
  }
  S += "regressions: " + std::to_string(R.Regressions.size()) +
       " candidate(s): " + std::to_string(Explained) + " explained, " +
       std::to_string(Unjudged) + " unjudged, " +
       std::to_string(R.Unexplained) + " unexplained\n";
  for (const JudgedRegression &J : R.Regressions)
    S += "  [" + std::string(judgmentName(J.J)) + "] " + J.R.str() + "\n";
  return S;
}
