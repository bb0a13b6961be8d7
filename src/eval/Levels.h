//===- eval/Levels.h - The pipeline-configuration lattice -------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical table of optimization *levels*: named (OptOptions,
/// PromoteVars) configurations, and compileModule, the one driver that
/// builds source into machine code at a level.  Everything that compiles
/// a program — the oracles, the sweeps, the measurements, sldbc and
/// sldbd — names its pipeline by a row of this table and builds through
/// compileModule, so the build a test judges is the build a user
/// debugs: the label, the pass set, and the codegen mode are one fact
/// that cannot drift.
///
/// The table is a lattice under moreOptimized(): a level is more
/// optimized than another when it enables a superset of its passes and
/// at least its codegen promotion.  Single-pass levels are mutually
/// incomparable; O2ssa is the top.  (PipelineConfig in opt/Pass.h is the
/// *driver-knob* struct — verification, timing, caching — and is
/// orthogonal to the level table, hence the distinct name.)
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_EVAL_LEVELS_H
#define SLDB_EVAL_LEVELS_H

#include "codegen/MachineIR.h"
#include "opt/Pass.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace sldb {

/// Every named pipeline configuration, in canonical report order:
/// unoptimized, one level per single pass, then the combined pipelines.
enum class PipelineLevel : std::uint8_t {
  O0,        ///< No optimization, variables in frame slots.
  ConstProp, ///< One single pass each, frame slots ...
  CopyProp,
  CSE,
  PRE,
  LICM,
  PDE,
  DCE,
  BranchOpt,
  IVOpt,
  LoopPeel,
  LoopUnroll,
  O2nlFrame, ///< All passes minus peel/unroll (lockstep set), frame.
  O2nl,      ///< The lockstep set with register promotion.
  O2Frame,   ///< Everything pre-SSA, frame slots (Figure 5(a)).
  O2,        ///< Everything pre-SSA, promoted (Figure 5(b)).
  Ssa,       ///< SSA construct/destruct round trip alone, frame.
  Gvn,       ///< SSA bracket + global value numbering, frame.
  SparseProp, ///< SSA bracket + sparse copy/const propagation, frame.
  InlineLevel, ///< Leaf inlining alone, frame (static-sweep only).
  O2nlSsa,   ///< Lockstep set + the SSA tier, promoted; judgeable.
  O2Ssa,     ///< Everything including SSA tier and inlining; the top.
};

/// One row of the level table.
struct LevelSpec {
  PipelineLevel Level = PipelineLevel::O0;
  const char *Name = "O0"; ///< Report label ("O0", "pre", "O2-frame", ...).
  OptOptions Opts;         ///< IR pipeline pass selection.
  bool Promote = false;    ///< CodegenOptions::PromoteVars.
};

/// The full table, in canonical order (index == enum value).
const std::vector<LevelSpec> &pipelineLevels();

/// Row lookup by enum.
const LevelSpec &levelSpec(PipelineLevel L);

/// Row lookup by report label; nullptr when unknown.
const LevelSpec *findLevel(std::string_view Name);

/// Strict partial order of the lattice: \p A enables every pass of
/// \p B (and at least one more, or more promotion) and promotes at
/// least as much.  Single-pass levels are mutually incomparable.
bool moreOptimized(const LevelSpec &A, const LevelSpec &B);

/// Whether the lockstep ground-truth oracle can judge the level
/// dynamically: loop peeling/unrolling duplicate statements and
/// inlining splices whole callee bodies under the call statement, both
/// of which break the syntactic stop pairing, so levels enabling any of
/// them are static-sweep only.
bool judgeable(const LevelSpec &S);

/// A program built from source: the IR, which owns the ProgramInfo, and
/// the machine code, whose Info points into it.  Holding both in one
/// value keeps that pointer valid for as long as the machine code lives
/// (members are destroyed machine code first).
struct CompiledModule {
  std::unique_ptr<IRModule> IR;
  MachineModule MM;
};

/// How compileModule builds, beyond what the level row fixes.
struct CompileOptions {
  /// Run the local list scheduler.  Every build a user debugs or a check
  /// judges schedules.  The one unscheduled build is the lockstep
  /// oracles' reference (compileLockstepPair's O0 row): keeping it
  /// independent of the scheduler is what lets an oracle at the O0 row
  /// catch a scheduler that breaks statement order.
  bool Schedule = true;
  /// Arena for the IR and machine code (batch and service loads); null
  /// lets the modules own theirs.  When it has a limit, the budget is
  /// checked after each phase.
  Arena *A = nullptr;
  PipelineConfig Config = PipelineConfig::fromEnvironment();
  PipelineStats *Stats = nullptr; ///< Per-slot pass activity, if wanted.
};

/// The one source-to-machine build: front end + IRGen, the level's
/// pipeline, then the back end in the level's promotion mode.  Errors:
/// SourceError carrying the front end's diagnostics; the pipeline's and
/// the back end's own Status; ResourceExhausted "arena budget exceeded
/// during frontend|optimizer|codegen (limit N bytes)" when the arena
/// passed its limit in that phase.
Expected<CompiledModule> compileModule(std::string_view Source,
                                       const LevelSpec &L,
                                       const CompileOptions &O = {});

} // namespace sldb

#endif // SLDB_EVAL_LEVELS_H
