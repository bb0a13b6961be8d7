//===- fuzz/CampaignDriver.h - The one campaign driver ----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machinery every fuzzing campaign shares.  A campaign walks a seed
/// range; every seed expands to the same list of *units*, and a unit
/// oracle (diff, inject, step, crosslevel) supplies only three things:
///
///   * its units per seed, in canonical order;
///   * `judge(seed, program, unit) -> outcome`, run on a pool worker;
///   * `fold(outcome)` into its result, run in seed-major unit order.
///
/// The driver owns everything else: config validation (seed-range wrap,
/// shard spec, level resolution), the work-stealing pool and sharding,
/// the interrupt fast-drain, program generation, per-unit trace capture,
/// the deterministic seed-major merge, shrinking helpers, and the
/// reproducer archive.
///
/// Determinism: every unit's outcome lands in a slot indexed by its
/// position in seed-major order, and the merge walks the slots in that
/// order after the pool drains, so the result is byte-identical for any
/// Jobs value (1 runs inline without threads).  A unit does everything
/// on one worker thread — generate, arm a fault (FaultInjector state is
/// thread_local), compile, run, judge, shrink — so no unit observes
/// another's armed fault or PRNG stream.  Reproducers are written by the
/// merge, not the workers, so filename dedup needs no locking.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FUZZ_CAMPAIGNDRIVER_H
#define SLDB_FUZZ_CAMPAIGNDRIVER_H

#include "fuzz/DiffCheck.h"
#include "fuzz/ProgramGen.h"
#include "support/Trace.h"

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

namespace sldb {

struct LevelSpec;

/// Parameters every campaign shares.
struct CampaignSpec {
  std::uint32_t Seed = 1; ///< First seed; program i uses Seed + i.
  unsigned Count = 200;   ///< Number of generated programs.
  GenOptions Gen;

  /// Non-empty: run the whole campaign at this named pipeline level
  /// (eval/Levels.h) instead of the default lockstep set — one mode,
  /// with the level's own pass selection and promotion.  The name must
  /// resolve via findLevel() and the level must be judgeable(); the
  /// campaign refuses with a ConfigError otherwise.  The cross-level
  /// campaign sweeps every level itself and refuses any Level.
  std::string Level;

  /// Shrink each failing program to a minimal reproducer (greedy
  /// statement deletion preserving the failure).
  bool Shrink = true;

  /// Write reproducers (violation report + source) into FailureDir.
  bool WriteFailures = false;
  std::string FailureDir = "fuzz-failures";

  /// Worker threads fanning the campaign's units across a work-stealing
  /// pool (support/ThreadPool.h); 0 means all hardware cores.  The
  /// result is identical for every value.
  unsigned Jobs = 1;

  /// Distributed campaigns (`--shard i/k`): run only the i-th of k
  /// contiguous slices of the seed range.  Concatenating the k shard
  /// reports in shard order reproduces the unsharded campaign.
  unsigned ShardIndex = 0;
  unsigned ShardCount = 1;

  /// Capture each unit's trace events (support/Trace.h) and merge them
  /// into CampaignTally::Trace in seed-major unit order with the unit
  /// ordinal as the tid — the merged event *sequence* is identical for
  /// every Jobs value (timestamps remain wall clock).  Only effective
  /// while Trace::enabled(); isolated (forked) checks lose their events
  /// to the fork.
  bool CollectTrace = false;
};

/// One failing program.
struct CampaignFailure {
  std::uint32_t Seed = 0;
  bool Promote = true;
  std::string Source;  ///< Generated program.
  std::string Reduced; ///< Minimized reproducer (empty if not shrunk).
  std::vector<Violation> Violations;
  std::string Path;    ///< Written reproducer path (when writing).

  /// Process-level outcome ("crash (signal 11)", "timeout") for seeds
  /// caught by the isolation layer; empty for in-process failures.
  std::string ProcessOutcome;

  /// Fault point armed for the run (inject campaigns; empty otherwise).
  std::string FaultName;

  /// Pipeline level of the run (level and cross-level campaigns; empty
  /// for the default lockstep configuration).
  std::string Level;

  /// Oracle that judged the run when it is not the lockstep value
  /// oracle ("step"); named in the reproducer's `Reproduce:` line so
  /// `--repro` re-judges with the same oracle.
  std::string Oracle;
};

/// Per-worker campaign statistics (diagnostic only — wall-clock based
/// and therefore nondeterministic; never part of the campaign report).
struct CampaignWorkerStats {
  unsigned Worker = 0;
  unsigned Units = 0;         ///< Units run.
  unsigned Steals = 0;        ///< Units taken from a sibling's queue.
  unsigned InitialQueue = 0;  ///< Starting queue depth.
  std::uint64_t BusyUs = 0;
  std::uint32_t SlowestSeed = 0; ///< Seed of the slowest unit.
  std::uint64_t SlowestUs = 0;

  double unitsPerSec() const {
    return BusyUs ? 1e6 * static_cast<double>(Units) / BusyUs : 0.0;
  }
};

/// Outcome fields every campaign shares.
struct CampaignTally {
  unsigned Programs = 0; ///< Seeds with at least one unit run.
  std::vector<CampaignFailure> Failures;

  /// Non-empty when the campaign refused to run (seed-range overflow,
  /// bad shard spec, unknown or non-judgeable level).  Nothing else in
  /// the result is meaningful then.
  std::string ConfigError;

  /// Units fast-drained because an interrupt (SIGINT/SIGTERM, see
  /// support/Interrupt.h) arrived mid-campaign.  Nonzero marks the
  /// report as *partial*: aggregates cover only the units that ran, and
  /// every reproducer collected so far is still written.
  unsigned SkippedUnits = 0;

  /// One entry per pool worker (diagnostic; see CampaignWorkerStats).
  std::vector<CampaignWorkerStats> Workers;

  /// Captured trace events in seed-major unit order (CollectTrace);
  /// tid = 1-based unit ordinal.
  std::vector<TraceEvent> Trace;
};

/// Merge-time reproducer sink handed to an oracle's fold.
class FailureArchive {
public:
  FailureArchive(bool Write, std::vector<CampaignFailure> &Failures)
      : Write(Write), Failures(Failures) {}

  /// Appends \p F to the campaign's failures, first writing its
  /// reproducer into \p Dir when the campaign writes failures.  The
  /// file stem is `seed-N[-level][-fault]-mode`; a numeric suffix keeps
  /// a second record with the same stem instead of clobbering the first.
  void add(CampaignFailure F, const std::string &Dir);

private:
  bool Write;
  std::vector<CampaignFailure> &Failures;
  std::set<std::string> UsedPaths;
};

/// One campaign oracle.
template <class Outcome> struct UnitOracle {
  /// Trace-span argument naming a seed's units ("promote", "fault");
  /// null when every seed is a single unit.
  const char *UnitArg = nullptr;
  /// A seed's units in canonical order, by span-argument value.
  std::vector<std::string> Units = {""};
  /// Judges unit K of Seed, whose generated program is Src, on the
  /// calling pool worker.
  std::function<Outcome(std::uint32_t Seed, const std::string &Src,
                        unsigned K)>
      Judge;
  /// Folds a judged unit into the oracle's result, in seed-major unit
  /// order.  Returns false to drop the seed's remaining units.
  std::function<bool(Outcome &, FailureArchive &)> Fold;
};

/// Validates \p S before any unit runs.  Returns false, with
/// T.ConfigError set, when the campaign cannot run; otherwise \p Level
/// is the resolved pipeline level (null for the default lockstep set).
bool startCampaign(const CampaignSpec &S, CampaignTally &T,
                   const LevelSpec *&Level);

namespace detail {
void runUnits(const CampaignSpec &S, const char *UnitArg,
              const std::vector<std::string> &Units, CampaignTally &T,
              const std::function<void(std::size_t)> &Reserve,
              const std::function<void(std::size_t, std::uint32_t,
                                       const std::string &, unsigned)> &Judge,
              const std::function<bool(std::size_t, FailureArchive &)> &Fold);
} // namespace detail

/// Runs every unit of the campaign \p S (validated by startCampaign)
/// through \p O and merges the outcomes into \p T in seed-major order.
template <class Outcome>
void runUnits(const CampaignSpec &S, const UnitOracle<Outcome> &O,
              CampaignTally &T) {
  std::vector<Outcome> Out;
  detail::runUnits(
      S, O.UnitArg, O.Units, T, [&](std::size_t N) { Out.resize(N); },
      [&](std::size_t U, std::uint32_t Seed, const std::string &Src,
          unsigned K) { Out[U] = O.Judge(Seed, Src, K); },
      [&](std::size_t U, FailureArchive &A) { return O.Fold(Out[U], A); });
}

/// A failure record for one judged run; Reduced, Path and the process,
/// fault and oracle fields start empty.
CampaignFailure makeFailure(std::uint32_t Seed, bool Promote,
                            const std::string &Src, const std::string &Level,
                            std::vector<Violation> Vs);

/// A location-free LockstepDiverged violation carrying \p Detail: how a
/// program the pipeline refused is reported.
std::vector<Violation> compileFailure(std::string Detail);

/// True for the compile failure a single-program check reports (Detail
/// "does not compile: ...", see checkProgram).
bool isCompileFailure(const Violation &V);

/// Shrinks \p Src while \p Check still reports a violation of \p Kind
/// that is not a compile failure (any statement or variable — the
/// shrinker moves statement ids around).
std::string shrinkSameKind(
    const std::string &Src, ViolationKind Kind,
    const std::function<std::vector<Violation>(const std::string &)> &Check);

/// Renders a failure as the on-disk reproducer format: the violation
/// report as comments, then the (reduced, when available) source.
std::string renderFailure(const CampaignFailure &F);

} // namespace sldb

#endif // SLDB_FUZZ_CAMPAIGNDRIVER_H
