//===- fuzz/Campaign.cpp --------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The differential and fault-injection oracles.  Each is a unit oracle
// of the campaign driver (fuzz/CampaignDriver.h), which owns the pool,
// sharding, merge order, trace capture and reproducer archive; what
// stays here is how one unit is judged and folded.  Isolation stays
// per oracle because the two probe protocols differ.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"

#include "eval/Levels.h"
#include "fuzz/Isolation.h"
#include "fuzz/Reduce.h"
#include "support/FaultInjector.h"

#include <optional>

using namespace sldb;

unsigned CampaignCoverage::fired(const std::string &PassName) const {
  unsigned N = 0;
  for (const PassFiring &F : Firings)
    if (F.Name == PassName)
      N += F.Changed;
  return N;
}

std::vector<Violation> sldb::checkProgram(const std::string &Src,
                                          bool Promote, const OptOptions *Opts,
                                          unsigned MaxStops) {
  LockstepOptions LO;
  if (Opts)
    LO.Opts = *Opts;
  LO.Promote = Promote;
  LO.MaxStops = MaxStops;
  LockstepResult R = runLockstep(Src, LO);
  // Surface a compile failure as a violation so campaign-level
  // accounting never silently drops a program.
  if (!R.Compiled)
    return compileFailure("does not compile: " + R.CompileError);
  return checkSoundness(R);
}

bool sldb::isUnsoundViolation(ViolationKind K) {
  return K == ViolationKind::UnsoundCurrent ||
         K == ViolationKind::WrongRecovery ||
         K == ViolationKind::MissedUninitialized;
}

namespace {

using ProbeFn =
    std::function<std::pair<bool, std::string>(const std::string &)>;

/// Completes \p F as the crash/hang record for a seed the isolation
/// layer caught, reducing it with a fork-based predicate (re-running the
/// candidate in this process would reproduce the crash in the campaign
/// itself).
void recordProcessFailure(CampaignFailure &F, const IsolatedOutcome &O,
                          bool Shrink, unsigned TimeoutMs,
                          const ProbeFn &Probe) {
  F.ProcessOutcome = O.Status == IsolatedStatus::Timeout
                         ? "timeout (watchdog expired)"
                     : O.Signal != 0
                         ? "crash (signal " + std::to_string(O.Signal) + ")"
                         : "crash (abnormal exit)";
  F.Violations = {{O.Status == IsolatedStatus::Timeout
                       ? ViolationKind::ProcessHang
                       : ViolationKind::ProcessCrash,
                   InvalidFunc, InvalidStmt, "", F.ProcessOutcome}};
  if (Shrink)
    F.Reduced = reduceProgram(
        F.Source,
        [&](const std::string &Cand) {
          IsolatedOutcome CO =
              runIsolated(TimeoutMs, [&] { return Probe(Cand); });
          return CO.Status == IsolatedStatus::Crash ||
                 CO.Status == IsolatedStatus::Timeout;
        },
        /*MaxChecks=*/120);
}

//===----------------------------------------------------------------------===//
// Differential oracle
//===----------------------------------------------------------------------===//

/// One (seed, mode) unit's outcome.
struct ModeOutcome {
  bool CompileFail = false; ///< Generator bug: the sibling mode is dropped.
  std::optional<CampaignFailure> F; ///< Compile/soundness/process failure.
  std::uint64_t Stops = 0;
  std::uint64_t Observations = 0;
  std::optional<CampaignCoverage> Coverage; ///< Folded units only.
};

ModeOutcome judgeMode(const CampaignConfig &C, const OptOptions *Opts,
                      std::uint32_t Seed, const std::string &Src,
                      bool Promote, bool FoldCoverage) {
  ModeOutcome O;

  if (C.Isolate) {
    // Containment first: probe the (seed, mode) in a forked child.
    // A clean child skips the in-process run (its coverage stats are
    // lost to the fork — the documented trade); a child that failed
    // *cleanly* is re-run in-process below for the full
    // shrink-and-record path, which is safe precisely because the
    // child proved the seed does not bring the process down.
    ProbeFn Probe = [&](const std::string &S) {
      std::vector<Violation> Vs = checkProgram(S, Promote, Opts, C.MaxStops);
      std::string Rep;
      for (const Violation &V : Vs)
        Rep += V.str() + "\n";
      return std::make_pair(Vs.empty(), Rep);
    };
    IsolatedOutcome IO =
        runIsolated(C.TimeoutMs, [&] { return Probe(Src); });
    if (IO.Status == IsolatedStatus::Ok)
      return O;
    if (IO.Status == IsolatedStatus::Crash ||
        IO.Status == IsolatedStatus::Timeout) {
      O.F = makeFailure(Seed, Promote, Src, C.Level, {});
      recordProcessFailure(*O.F, IO, C.Shrink, C.TimeoutMs, Probe);
      return O;
    }
  }

  LockstepOptions LO;
  if (Opts)
    LO.Opts = *Opts;
  LO.Promote = Promote;
  LO.MaxStops = C.MaxStops;
  LockstepResult LR = runLockstep(Src, LO);

  if (!LR.Compiled) {
    O.CompileFail = true;
    O.F = makeFailure(Seed, Promote, Src, C.Level,
                      compileFailure("generated program does not compile: " +
                                     LR.CompileError));
    return O;
  }

  O.Stops = LR.Stops.size();
  for (const StopObservation &S : LR.Stops)
    O.Observations += S.Vars.size();

  if (FoldCoverage) {
    O.Coverage.emplace();
    O.Coverage->Firings = LR.Firings;
    O.Coverage->WithHoisted = LR.NumHoisted != 0;
    O.Coverage->WithSunk = LR.NumSunk != 0;
    O.Coverage->WithDeadMarks = LR.NumDeadMarks != 0;
    O.Coverage->WithAvailMarks = LR.NumAvailMarks != 0;
    O.Coverage->WithSRRecords = LR.NumSRRecords != 0;
  }

  std::vector<Violation> Vs = checkSoundness(LR);
  if (Vs.empty())
    return O;
  O.F = makeFailure(Seed, Promote, Src, C.Level, std::move(Vs));
  if (C.Shrink)
    O.F->Reduced = shrinkSameKind(
        Src, O.F->Violations.front().Kind, [&](const std::string &Cand) {
          return checkProgram(Cand, Promote, Opts, C.MaxStops);
        });
  return O;
}

void addCoverage(CampaignCoverage &To, CampaignCoverage &From) {
  if (To.Firings.empty()) {
    To.Firings = std::move(From.Firings);
  } else {
    for (std::size_t S = 0; S < To.Firings.size() && S < From.Firings.size();
         ++S)
      To.Firings[S].Changed += From.Firings[S].Changed;
  }
  To.WithHoisted += From.WithHoisted;
  To.WithSunk += From.WithSunk;
  To.WithDeadMarks += From.WithDeadMarks;
  To.WithAvailMarks += From.WithAvailMarks;
  To.WithSRRecords += From.WithSRRecords;
}

} // namespace

CampaignResult sldb::runCampaign(const CampaignConfig &C) {
  CampaignResult R;
  const LevelSpec *Level;
  if (!startCampaign(C, R, Level))
    return R;

  // Level campaigns collapse to one mode with the level's own settings.
  const bool Both = C.BothPromoteModes && !Level;
  const bool Single = Level ? Level->Promote : C.Promote;
  const OptOptions *Opts = Level ? &Level->Opts : nullptr;

  UnitOracle<ModeOutcome> O;
  O.UnitArg = "promote";
  // Canonical unit order: promote mode before frame mode.
  O.Units = Both ? std::vector<std::string>{"on", "off"}
                 : std::vector<std::string>{Single ? "on" : "off"};
  O.Judge = [&](std::uint32_t Seed, const std::string &Src, unsigned K) {
    bool Promote = Both ? K == 0 : Single;
    // Fold pass coverage once per program: the IR pipeline does not
    // depend on the codegen configuration.
    return judgeMode(C, Opts, Seed, Src, Promote, Promote || !Both);
  };
  O.Fold = [&](ModeOutcome &M, FailureArchive &A) {
    ++R.Runs;
    if (M.CompileFail) {
      ++R.FailedCompiles;
      R.Failures.push_back(std::move(*M.F));
      return false; // The other mode cannot compile either.
    }
    R.Stops += M.Stops;
    R.Observations += M.Observations;
    if (M.Coverage)
      addCoverage(R.Coverage, *M.Coverage);
    if (M.F) {
      const std::string &Dir =
          M.F->ProcessOutcome.empty() ? C.FailureDir : C.CrashDir;
      A.add(std::move(*M.F), Dir);
    }
    return true;
  };
  runUnits(C, O, R);
  return R;
}

//===----------------------------------------------------------------------===//
// Fault-injection oracle
//===----------------------------------------------------------------------===//

namespace {

/// How one (seed, fault-point) run ended; the order indexes the names
/// an isolated child reports and the result counters.
enum class InjectKind : std::uint8_t {
  Clean,
  CompileError,
  Degraded,
  Unsound,
  Crash,
  Hang
};

const char *const InjectKindNames[] = {"clean", "compile-error", "degraded",
                                       "unsound"};

/// Judges one seed under one armed fault.  The fault is armed on the
/// calling thread for the whole lockstep run (the oracle side compiles
/// and runs with injection suspended, see fuzz/Oracle.cpp) and disarmed
/// before returning.  \p Unsound collects one line per unsound
/// violation (newlines flattened when \p OneLine, for the child's
/// line-oriented report).
InjectKind injectJudge(const std::string &Src, bool Promote,
                       const OptOptions *Opts, FaultId Id,
                       std::uint32_t Seed, bool OneLine,
                       std::string &Unsound) {
  FaultInjector::arm(Id, Seed);
  std::vector<Violation> Vs = checkProgram(Src, Promote, Opts);
  FaultInjector::disarm();
  for (const Violation &V : Vs) {
    if (!isUnsoundViolation(V.Kind))
      continue;
    std::string Line = V.str();
    for (char &Ch : Line)
      if (OneLine && Ch == '\n')
        Ch = ' ';
    Unsound += Line + "\n";
  }
  if (!Unsound.empty())
    return InjectKind::Unsound;
  if (Vs.empty())
    return InjectKind::Clean;
  return isCompileFailure(Vs.front()) ? InjectKind::CompileError
                                      : InjectKind::Degraded;
}

/// One (seed, fault-point) unit's outcome.
struct InjectOutcome {
  InjectKind K = InjectKind::Clean;
  std::optional<CampaignFailure> F; ///< Crash/hang/unsound record.
};

InjectOutcome judgeInject(const InjectCampaignConfig &C,
                          const OptOptions *Opts, std::uint32_t Seed,
                          const std::string &Src, const FaultPoint &P) {
  InjectOutcome O;
  auto Judge = [&](const std::string &S, bool OneLine, std::string &Rep) {
    return injectJudge(S, C.Promote, Opts, P.Id, Seed, OneLine, Rep);
  };
  // Child-side protocol for an isolated check: the first report line
  // names the outcome, then one line per unsound violation.  Exit
  // status 1 iff unsound.
  ProbeFn Probe = [&](const std::string &S) {
    std::string Unsound;
    InjectKind K = Judge(S, /*OneLine=*/true, Unsound);
    return std::make_pair(
        K != InjectKind::Unsound,
        std::string(InjectKindNames[static_cast<int>(K)]) + "\n" + Unsound);
  };
  auto Record = [&]() -> CampaignFailure & {
    O.F = makeFailure(Seed, C.Promote, Src, C.Level, {});
    O.F->FaultName = P.Name;
    return *O.F;
  };

  std::string Report;
  if (!C.Isolate) {
    O.K = Judge(Src, /*OneLine=*/false, Report);
  } else {
    IsolatedOutcome IO = runIsolated(C.TimeoutMs, [&] { return Probe(Src); });
    Report = IO.Report;
    switch (IO.Status) {
    case IsolatedStatus::Ok:
      for (InjectKind K : {InjectKind::CompileError, InjectKind::Degraded})
        if (IO.Report.rfind(InjectKindNames[static_cast<int>(K)], 0) == 0)
          O.K = K;
      break;
    case IsolatedStatus::Violation:
      O.K = InjectKind::Unsound;
      break;
    case IsolatedStatus::Crash:
    case IsolatedStatus::Timeout:
      O.K = IO.Status == IsolatedStatus::Timeout ? InjectKind::Hang
                                                 : InjectKind::Crash;
      recordProcessFailure(Record(), IO, C.Shrink, C.TimeoutMs, Probe);
      return O;
    }
  }
  if (O.K != InjectKind::Unsound)
    return O;

  CampaignFailure &F = Record();
  F.Violations = {{ViolationKind::UnsoundCurrent, InvalidFunc, InvalidStmt,
                   "", Report}};
  if (C.Shrink)
    F.Reduced = reduceProgram(
        Src,
        [&](const std::string &Cand) {
          if (!C.Isolate) {
            std::string Unsound;
            return Judge(Cand, false, Unsound) == InjectKind::Unsound;
          }
          return runIsolated(C.TimeoutMs, [&] {
                   return Probe(Cand);
                 }).Status == IsolatedStatus::Violation;
        },
        /*MaxChecks=*/120);
  return O;
}

} // namespace

const char *sldb::rejudgeInjected(const std::string &Src, bool Promote,
                                  const OptOptions *Opts, FaultId Fault,
                                  std::uint32_t Seed, std::string &Unsound) {
  return InjectKindNames[static_cast<int>(
      injectJudge(Src, Promote, Opts, Fault, Seed, /*OneLine=*/false,
                  Unsound))];
}

InjectCampaignResult sldb::runInjectCampaign(const InjectCampaignConfig &Cfg) {
  InjectCampaignResult R;
  const LevelSpec *Level;
  if (!startCampaign(Cfg, R, Level))
    return R;
  InjectCampaignConfig C = Cfg;
  if (Level)
    C.Promote = Level->Promote;
  const OptOptions *Opts = Level ? &Level->Opts : nullptr;

  // Every *defended* fault point: the two undefended classifier faults
  // are the oracle's teeth (their whole purpose is to be caught as
  // unsound) and are exercised by the differential suite instead.
  std::vector<const FaultPoint *> Points;
  UnitOracle<InjectOutcome> O;
  O.UnitArg = "fault";
  O.Units.clear();
  for (const FaultPoint &P : FaultInjector::points())
    if (P.Defended) {
      Points.push_back(&P);
      O.Units.push_back(P.Name);
    }
  O.Judge = [&](std::uint32_t Seed, const std::string &Src, unsigned K) {
    return judgeInject(C, Opts, Seed, Src, *Points[K]);
  };
  unsigned *const Counters[] = {nullptr,        &R.CompileErrors,
                                &R.DegradedRuns, &R.UnsoundRuns,
                                &R.Crashes,      &R.Hangs};
  O.Fold = [&](InjectOutcome &I, FailureArchive &A) {
    ++R.Runs;
    if (unsigned *N = Counters[static_cast<int>(I.K)])
      ++*N;
    if (I.F)
      A.add(std::move(*I.F), C.FailureDir);
    return true;
  };
  runUnits(C, O, R);
  return R;
}
