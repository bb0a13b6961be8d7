//===- fuzz/Oracle.h - Lockstep O0/optimized ground-truth oracle -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ground-truth half of the differential fuzzing harness.  A program is
/// compiled twice — unoptimized and unpromoted (the semantics oracle: every
/// variable lives in its frame slot and is updated in source order) and
/// optimized — and both builds run under their debuggers with a breakpoint
/// on every statement.  At each paired stop the oracle records, for every
/// in-scope variable, the *expected* value (unoptimized semantics) next to
/// everything the optimized debugger claims: its Figure-1 verdict, the
/// value it would display, and what the debug tables say about residence.
///
/// DiffCheck.h consumes these observations and asserts the soundness
/// contract; this header is only about faithfully collecting them.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FUZZ_ORACLE_H
#define SLDB_FUZZ_ORACLE_H

#include "core/Debugger.h"
#include "eval/Levels.h"

#include <string>
#include <string_view>
#include <vector>

namespace sldb {

/// One variable, observed at one paired stop.
struct VarObservation {
  /// What the unoptimized build's debugger reports (the expected value;
  /// its verdict is trivially sound because nothing was transformed).
  VarReport Expected;

  /// What the optimized build's debugger reports.
  VarReport Opt;

  /// Whether the optimized build's debug tables (Storage / ResidentAt)
  /// say the variable occupies a live location at the stop address —
  /// the ground truth the Nonresident verdict must agree with.
  bool OptTableResident = false;

  /// Whether the *unoptimized* build initializes the variable on every
  /// path to this stop (intersect-meet reaching of any definition).
  /// When true, an optimized-side Uninitialized verdict contradicts the
  /// source semantics.  (The some-path case is left alone: branch
  /// folding may legitimately remove a some-path definition.)
  bool ExpectedInitAllPaths = false;

  /// Raw contents of the variable's storage home in the optimized build,
  /// read with no residence check (Debugger::peekStorage) — what a naive
  /// debugger would have printed.  Feeds the conservatism metric: a
  /// Suspect/Nonresident verdict whose raw value nevertheless equals the
  /// expected value was conservative, not necessary.
  bool RawValid = false;
  bool RawIsDouble = false;
  std::int64_t RawInt = 0;
  double RawDouble = 0.0;

  /// Whether the variable has pointer type.  A pointer's value is a
  /// frame (or global) address, and the two builds lay frames out
  /// differently — so value comparisons between the builds are
  /// meaningless for pointers, while the classification verdicts
  /// (init / residence agreement) still apply.
  bool IsPtr = false;
};

/// One paired statement-boundary stop.
struct StopObservation {
  FuncId Func = InvalidFunc;
  StmtId Stmt = InvalidStmt;
  std::vector<VarObservation> Vars;
};

/// Lockstep configuration.
struct LockstepOptions {
  /// Optimizations for the non-oracle build.  Defaults to the heaviest
  /// pipeline whose statement structure can still be paired one-to-one:
  /// everything except loop peeling and unrolling, which duplicate
  /// statements and break the syntactic pairing (same restriction as the
  /// NeverMisleads suite).  Scheduling is likewise off — endangerment
  /// from instruction scheduling is the authors' PLDI'93 paper, out of
  /// scope here (paper §1.3).
  OptOptions Opts = lockstepOpts();

  /// Promote source variables to registers in the optimized build
  /// (Figure 5(b) configuration).  Running a corpus in both modes
  /// exercises the residence tables as well as the reach analyses.
  bool Promote = true;

  /// Collect at most this many paired stops.
  unsigned MaxStops = 4000;

  /// Execution fuel (VM step budget) for both builds.  A generated
  /// program that loops forever stops with StopReason::StepLimit and a
  /// trap message naming the budget instead of hanging the campaign.
  std::uint64_t Fuel = 50'000'000;

  /// The O2nl row's pass set.
  static OptOptions lockstepOpts() {
    return levelSpec(PipelineLevel::O2nl).Opts;
  }
};

/// Everything one lockstep run observed.
struct LockstepResult {
  bool Compiled = false;
  std::string CompileError;

  /// Non-empty when the two builds' stop sequences could not be paired
  /// (after skipping oracle-only stops for vanished statements).  Always
  /// a harness finding: the statement map lost a statement it shouldn't
  /// have, or the optimizer miscompiled control flow.
  std::string PairError;

  std::vector<StopObservation> Stops;

  /// End-state comparison (behavioral equivalence of the two builds).
  StopReason ExpectedEnd = StopReason::Running;
  StopReason OptEnd = StopReason::Running;
  std::int64_t ExpectedExit = 0, OptExit = 0;
  std::string ExpectedOutput, OptOutput;

  /// Pipeline firing counts, plus machine-level evidence of the paper's
  /// endangering transformations in the optimized build.
  std::vector<PassFiring> Firings;
  unsigned NumHoisted = 0;   ///< IsHoisted instructions (PRE/LICM).
  unsigned NumSunk = 0;      ///< IsSunk instructions (PDE).
  unsigned NumDeadMarks = 0; ///< MDEAD markers (eliminated assignments).
  unsigned NumAvailMarks = 0;///< MAVAIL markers (PRE originals).
  unsigned NumSRRecords = 0; ///< Strength-reduction/IV recovery records.
};

/// The two builds a lockstep oracle compares: the ground truth (the O0
/// row, unscheduled, built with fault injection suspended so an armed
/// fault only ever hits the build under test) and the build under test
/// (\p Opts / \p Promote, unscheduled).
struct LockstepBuilds {
  CompiledModule Oracle;
  CompiledModule Opt;
};

/// Compiles both builds of \p Src.  The error's message is the compile
/// error a lockstep result reports: the front end's diagnostics, or the
/// failing phase's error (prefixed "oracle build: " for the ground
/// truth's).  \p Stats, when given, receives the optimized pipeline's
/// per-slot activity.
Expected<LockstepBuilds> compileLockstepPair(std::string_view Src,
                                             const OptOptions &Opts,
                                             bool Promote,
                                             PipelineStats *Stats = nullptr);

/// Compiles \p Src twice and runs both builds in lockstep, recording one
/// StopObservation per paired stop.  Never asserts: all findings are in
/// the result for DiffCheck to judge.
LockstepResult runLockstep(std::string_view Src, const LockstepOptions &O);

} // namespace sldb

#endif // SLDB_FUZZ_ORACLE_H
