//===- fuzz/Campaign.h - Differential fuzzing campaigns ---------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two lockstep value-oracle campaigns, as unit oracles of the
/// campaign driver (fuzz/CampaignDriver.h):
///
///  * Differential campaign — every seed through the lockstep oracle in
///    both codegen configurations (variables promoted to registers /
///    kept in frame slots), judged by the soundness checker, with the
///    optimizer coverage aggregated and any violation turned into a
///    minimized on-disk reproducer.
///
///  * Fault-injection campaign — every seed once per defended fault
///    point, judged against the weaker contract under injection.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FUZZ_CAMPAIGN_H
#define SLDB_FUZZ_CAMPAIGN_H

#include "fuzz/CampaignDriver.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sldb {

/// Differential campaign parameters.
struct CampaignConfig : CampaignSpec {
  /// Run each program twice: PromoteVars on (Figure 5(b)) and off
  /// (Figure 5(a)).  Off still exercises hoist/dead reach, on adds the
  /// residence tables.  A Level campaign runs the level's one mode.
  bool BothPromoteModes = true;

  /// Codegen configuration for single-mode campaigns (ignored when
  /// BothPromoteModes is set).
  bool Promote = true;

  unsigned MaxStops = 4000; ///< Per-run observation cap.

  /// Run every (seed, mode) check in a forked child under a wall-clock
  /// watchdog (fuzz/Isolation.h): a seed that crashes or hangs the
  /// compiler is recorded, reduced, and archived instead of killing the
  /// campaign.  Trades the in-process coverage accounting (stops /
  /// observations / pass firings) of passing runs for containment.
  /// Composes with Jobs: each worker forks its own watchdogged child.
  bool Isolate = false;
  unsigned TimeoutMs = 20'000; ///< Watchdog budget per isolated run.

  /// Where crash/hang reproducers are archived (isolated mode, with
  /// WriteFailures).
  std::string CrashDir = "fuzz-crashes";
};

/// How much of the optimizer the corpus actually exercised.
struct CampaignCoverage {
  /// Programs whose optimized build contains machine-level evidence of
  /// each endangering transformation.
  unsigned WithHoisted = 0;    ///< IsHoisted instructions (PRE/LICM).
  unsigned WithSunk = 0;       ///< IsSunk instructions (PDE).
  unsigned WithDeadMarks = 0;  ///< MDEAD markers (DCE/PDE eliminations).
  unsigned WithAvailMarks = 0; ///< MAVAIL markers (PRE originals).
  unsigned WithSRRecords = 0;  ///< IV strength-reduction recoveries.

  /// Per-pipeline-slot firing counts summed over all programs (slot
  /// order and names follow the pipeline).
  std::vector<PassFiring> Firings;

  /// Total times a pass with the given name fired, across all slots.
  unsigned fired(const std::string &PassName) const;
};

/// Aggregate differential-campaign outcome.
struct CampaignResult : CampaignTally {
  unsigned Runs = 0;          ///< Lockstep executions (<= 2x programs).
  unsigned FailedCompiles = 0;///< Generator bugs: must stay zero.
  std::uint64_t Stops = 0;    ///< Paired statement-boundary stops.
  std::uint64_t Observations = 0; ///< Variable observations judged.
  CampaignCoverage Coverage;

  bool sound() const {
    return Failures.empty() && FailedCompiles == 0 && ConfigError.empty();
  }
};

/// Runs a differential campaign: units are (seed, promote mode).
CampaignResult runCampaign(const CampaignConfig &C);

/// Fault-injection campaign parameters (`sldb-fuzz --inject`): every
/// seed is checked once per *defended* FaultInjector point, with the
/// fault armed for the optimized build only (the oracle build compiles
/// with injection suspended).  The contract under injection is weaker
/// than the clean campaign's — conservative degradation, compile errors,
/// and behavioral divergence from an injected VM trap are all acceptable
/// — but process crashes, hangs, and the three *unsound* violation kinds
/// (UnsoundCurrent, WrongRecovery, MissedUninitialized) never are.
/// Units are (seed, fault point); every record is archived in
/// FailureDir, which defaults to "fuzz-crashes" here.
struct InjectCampaignConfig : CampaignSpec {
  InjectCampaignConfig() { FailureDir = "fuzz-crashes"; }

  bool Promote = true;      ///< Codegen configuration for the runs.
  bool Isolate = true;      ///< Fork + watchdog per run (the default).
  unsigned TimeoutMs = 20'000;
};

/// Aggregate inject-campaign outcome.
struct InjectCampaignResult : CampaignTally {
  unsigned Runs = 0;           ///< seed x fault-point checks executed.
  unsigned CompileErrors = 0;  ///< Runs refused by the hardened pipeline.
  unsigned DegradedRuns = 0;   ///< Runs with only conservative findings.
  unsigned Crashes = 0;        ///< Child processes killed by a signal.
  unsigned Hangs = 0;          ///< Watchdog expirations.
  unsigned UnsoundRuns = 0;    ///< Runs with an unsound violation.

  /// The acceptance bar: no crash, no hang, no unsound verdict under
  /// any injected fault.
  bool sound() const {
    return Crashes == 0 && Hangs == 0 && UnsoundRuns == 0 &&
           ConfigError.empty();
  }
};

/// Runs the fault-injection campaign over all defended fault points.
InjectCampaignResult runInjectCampaign(const InjectCampaignConfig &C);

/// True for the violation kinds that remain failures under fault
/// injection (a conservative or divergent finding is the degradation
/// working as designed; these three are the debugger lying).
bool isUnsoundViolation(ViolationKind K);

/// Judges one program in one configuration with the lockstep value
/// oracle (the diff oracle's judge for `sldb-fuzz --repro` and the
/// shrinker's predicate).  \p Opts overrides the optimized build's pass
/// selection (level campaigns); null keeps the default lockstep set.
std::vector<Violation> checkProgram(const std::string &Src, bool Promote,
                                    const OptOptions *Opts = nullptr,
                                    unsigned MaxStops = 4000);

} // namespace sldb

#endif // SLDB_FUZZ_CAMPAIGN_H
