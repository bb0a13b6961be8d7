//===- fuzz/CampaignDriver.cpp --------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/CampaignDriver.h"

#include "eval/Levels.h"
#include "fuzz/Reduce.h"
#include "support/Interrupt.h"
#include "support/Sharder.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <filesystem>
#include <fstream>
#include <limits>

using namespace sldb;

bool sldb::startCampaign(const CampaignSpec &S, CampaignTally &T,
                         const LevelSpec *&Level) {
  Level = nullptr;
  const std::uint64_t Last =
      static_cast<std::uint64_t>(S.Seed) + (S.Count ? S.Count - 1 : 0);
  if (Last > std::numeric_limits<std::uint32_t>::max())
    T.ConfigError =
        "seed range overflows 32 bits: --seed " + std::to_string(S.Seed) +
        " --count " + std::to_string(S.Count) + " reaches seed " +
        std::to_string(Last) +
        " > 4294967295; later seeds would wrap and re-run earlier "
        "programs (double-counting coverage) — split the range or "
        "lower --seed/--count";
  else if (S.ShardCount == 0)
    T.ConfigError = "shard count must be >= 1";
  else if (S.ShardIndex >= S.ShardCount)
    T.ConfigError = "shard index " + std::to_string(S.ShardIndex) +
                    " out of range for " + std::to_string(S.ShardCount) +
                    " shard(s)";
  else if (!S.Level.empty() && !(Level = findLevel(S.Level)))
    T.ConfigError = "unknown pipeline level: " + S.Level;
  else if (Level && !judgeable(*Level))
    T.ConfigError = "pipeline level '" + S.Level +
                    "' duplicates or splices statements and cannot be "
                    "judged by the lockstep oracle";
  return T.ConfigError.empty();
}

void FailureArchive::add(CampaignFailure F, const std::string &Dir) {
  if (Write) {
    std::error_code EC;
    std::filesystem::create_directories(Dir, EC);
    std::string Stem = Dir + "/seed-" + std::to_string(F.Seed) +
                       (F.Level.empty() ? "" : "-" + F.Level) +
                       (F.FaultName.empty() ? "" : "-" + F.FaultName) +
                       (F.Promote ? "-promote" : "-frame");
    F.Path = Stem + ".minic";
    for (unsigned N = 2; !UsedPaths.insert(F.Path).second; ++N)
      F.Path = Stem + "-" + std::to_string(N) + ".minic";
    std::ofstream Out(F.Path);
    Out << renderFailure(F);
  }
  Failures.push_back(std::move(F));
}

void sldb::detail::runUnits(
    const CampaignSpec &S, const char *UnitArg,
    const std::vector<std::string> &Units, CampaignTally &T,
    const std::function<void(std::size_t)> &Reserve,
    const std::function<void(std::size_t, std::uint32_t, const std::string &,
                             unsigned)> &Judge,
    const std::function<bool(std::size_t, FailureArchive &)> &Fold) {
  const ShardRange Shard = Sharder::slice(S.Count, S.ShardIndex, S.ShardCount);
  const std::size_t PerSeed = Units.size();
  const std::size_t NumUnits = Shard.size() * PerSeed;
  auto SeedOfUnit = [&](std::size_t U) {
    return static_cast<std::uint32_t>(S.Seed + Shard.Begin + U / PerSeed);
  };

  // The driver's half of each unit's slot; the oracle's outcome lives in
  // the parallel slot Reserve sized.
  struct Slot {
    bool Skipped = false;
    std::vector<TraceEvent> Trace;
  };
  std::vector<Slot> Slots(NumUnits);
  Reserve(NumUnits);

  ThreadPool Pool(S.Jobs ? S.Jobs : ThreadPool::hardwareJobs());
  std::vector<WorkerStats> WS =
      Pool.parallelFor(NumUnits, [&](std::size_t U, unsigned) {
        // Interrupt fast-drain: remaining units become no-ops so the
        // pool empties quickly and the merge below still flushes every
        // finished unit's reproducers (partial report, nothing lost).
        if (interruptRequested()) {
          Slots[U].Skipped = true;
          return;
        }
        Stats::counter("campaign.units").add();
        const std::uint32_t Seed = SeedOfUnit(U);
        const unsigned K = static_cast<unsigned>(U % PerSeed);
        auto Run = [&] { Judge(U, Seed, generateProgram(Seed, S.Gen), K); };
        if (!S.CollectTrace) {
          Run();
          return;
        }
        // Divert the worker's events for the unit's duration so the
        // merge can rebuild a deterministic, seed-major trace whatever
        // the pool's scheduling was.
        TraceCapture Cap;
        {
          TraceSpan Span("campaign.unit", "campaign");
          Span.arg("seed", static_cast<std::uint64_t>(Seed));
          if (UnitArg)
            Span.arg(UnitArg, Units[K]);
          Run();
        }
        Slots[U].Trace = Cap.take();
      });

  T.Workers.reserve(WS.size());
  for (const WorkerStats &W : WS) {
    CampaignWorkerStats C;
    C.Worker = W.Worker;
    C.Units = W.Tasks;
    C.Steals = W.Steals;
    C.InitialQueue = W.InitialQueue;
    C.BusyUs = W.BusyUs;
    C.SlowestUs = W.SlowestUs;
    if (W.SlowestIndex != SIZE_MAX)
      C.SlowestSeed = SeedOfUnit(W.SlowestIndex);
    T.Workers.push_back(C);
  }

  // Deterministic merge in unit order.
  FailureArchive Archive(S.WriteFailures, T.Failures);
  for (std::size_t First = 0; First < NumUnits; First += PerSeed) {
    for (std::size_t U = First; U < First + PerSeed; ++U)
      if (!Slots[U].Skipped) {
        ++T.Programs;
        break;
      }
    for (std::size_t U = First; U < First + PerSeed; ++U) {
      Slot &Sl = Slots[U];
      if (Sl.Skipped) {
        ++T.SkippedUnits;
        continue;
      }
      // Trace first: a fold that drops the seed's remaining units must
      // not drop this unit's events.
      for (TraceEvent &E : Sl.Trace) {
        E.Tid = static_cast<std::uint32_t>(U + 1);
        T.Trace.push_back(std::move(E));
      }
      if (!Fold(U, Archive))
        break;
    }
  }
}

CampaignFailure sldb::makeFailure(std::uint32_t Seed, bool Promote,
                                  const std::string &Src,
                                  const std::string &Level,
                                  std::vector<Violation> Vs) {
  CampaignFailure F;
  F.Seed = Seed;
  F.Promote = Promote;
  F.Source = Src;
  F.Level = Level;
  F.Violations = std::move(Vs);
  return F;
}

std::vector<Violation> sldb::compileFailure(std::string Detail) {
  return {{ViolationKind::LockstepDiverged, InvalidFunc, InvalidStmt, "",
           std::move(Detail)}};
}

bool sldb::isCompileFailure(const Violation &V) {
  return V.Detail.rfind("does not compile", 0) == 0;
}

std::string sldb::shrinkSameKind(
    const std::string &Src, ViolationKind Kind,
    const std::function<std::vector<Violation>(const std::string &)> &Check) {
  return reduceProgram(
      Src,
      [&](const std::string &Cand) {
        for (const Violation &V : Check(Cand))
          if (V.Kind == Kind && !isCompileFailure(V))
            return true;
        return false;
      },
      /*MaxChecks=*/400);
}

std::string sldb::renderFailure(const CampaignFailure &F) {
  std::string S;
  S += "// sldb-fuzz reproducer\n";
  S += "// seed: " + std::to_string(F.Seed) + "\n";
  S += "// promote-vars: " + std::string(F.Promote ? "on" : "off") + "\n";
  if (!F.FaultName.empty())
    S += "// injected-fault: " + F.FaultName + "\n";
  if (!F.Level.empty())
    S += "// level: " + F.Level + "\n";
  if (!F.ProcessOutcome.empty())
    S += "// process-outcome: " + F.ProcessOutcome + "\n";
  for (const Violation &V : F.Violations)
    S += "// violation: " + V.str() + "\n";
  S += "//\n";
  S += "// Reproduce: sldb-fuzz --repro <this file>";
  if (!F.Oracle.empty())
    S += " --oracle=" + F.Oracle;
  if (!F.Level.empty())
    S += " --level " + F.Level;
  S += F.Promote ? "\n" : " --no-promote\n";
  S += F.Reduced.empty() ? F.Source : F.Reduced;
  return S;
}
