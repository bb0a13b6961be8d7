//===- opt/Pass.h - Optimization pass interface -----------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass interface and pipeline driver replicating cmcc's optimizer
/// (paper Table 1).  Every pass performs the debug bookkeeping of paper §3
/// as it transforms: hoisted/sunk flags, dead/avail markers, recovery
/// values.  Optimizations themselves ignore markers entirely — bookkeeping
/// never constrains optimization (the non-invasive model).
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_OPT_PASS_H
#define SLDB_OPT_PASS_H

#include "analysis/AnalysisManager.h"
#include "ir/IR.h"
#include "support/Status.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace sldb {

/// What one pass invocation did: the analyses it left intact (consumed
/// by the AnalysisManager at the pass boundary) and whether the IR
/// changed at all.  The two are distinct: a pass can mutate the IR while
/// keeping CFG-shape analyses valid (cfgShape), and a pass that created
/// a preheader mid-run (invalidating eagerly, then refetching) can
/// report Changed=false with everything preserved because its caches
/// are already current.
struct PassResult {
  PreservedAnalyses Preserved = PreservedAnalyses::none();
  bool Changed = false;

  static PassResult unchanged() {
    return {PreservedAnalyses::all(), false};
  }
};

/// Base class for function-level optimization passes.
class Pass {
public:
  virtual ~Pass() = default;

  /// Pass name for -debug style dumps and Table 1 reporting.
  virtual const char *name() const = 0;

  /// Transforms \p F, fetching analyses through \p AM (passes never
  /// construct CFGContext/Dominators/... directly).  Returns what was
  /// preserved plus a changed bit.
  virtual PassResult run(IRFunction &F, IRModule &M, AnalysisManager &AM) = 0;

  /// Convenience for standalone use (unit tests, experiments): runs with
  /// a throwaway analysis manager and returns the changed bit.
  bool run(IRFunction &F, IRModule &M);
};

/// Factory functions (one per Table 1 entry implemented at the IR level).
std::unique_ptr<Pass> createLocalSimplifyPass();
std::unique_ptr<Pass> createConstantPropagationPass();
std::unique_ptr<Pass> createCopyPropagationPass();
std::unique_ptr<Pass> createGlobalCSEPass();
std::unique_ptr<Pass> createPartialRedundancyElimPass();
std::unique_ptr<Pass> createLoopInvariantCodeMotionPass();
std::unique_ptr<Pass> createPartialDeadCodeElimPass();
std::unique_ptr<Pass> createDeadCodeEliminationPass();
std::unique_ptr<Pass> createBranchOptPass();
std::unique_ptr<Pass> createLoopPeelPass();
std::unique_ptr<Pass> createLoopUnrollPass();
std::unique_ptr<Pass> createInductionVariableOptPass();

/// SSA tier (constructed and destructed inside the pipeline; phis never
/// escape to codegen or the interpreter).
std::unique_ptr<Pass> createSsaConstructPass();
std::unique_ptr<Pass> createSsaDestructPass();
std::unique_ptr<Pass> createGVNPass();
std::unique_ptr<Pass> createSparsePropPass();
std::unique_ptr<Pass> createInlinePass();

/// Which optimizations to run (the paper's "global optimizations").
struct OptOptions {
  bool ConstProp = true;
  bool CopyProp = true;
  bool CSE = true;
  bool PRE = true;       ///< Code hoisting (endangers variables).
  bool LICM = true;
  bool PDE = true;       ///< Code sinking (endangers variables).
  bool DCE = true;       ///< Dead assignment elimination (endangers).
  bool BranchOpt = true;
  bool LoopPeel = true;
  bool LoopUnroll = true;
  bool IVOpt = true;
  // SSA tier: off by default so OptOptions::all() (the historical O2
  // pipeline) is unchanged; the SSA levels flip these explicitly.
  bool Ssa = false;        ///< Bracket the SSA passes (construct/destruct).
  bool GVN = false;        ///< SSA global value numbering (implies Ssa).
  bool SparseProp = false; ///< SSA sparse copy/const propagation (implies Ssa).
  bool Inline = false;     ///< Leaf-function inlining (pre-SSA slot).

  static OptOptions none() {
    OptOptions O;
    O.ConstProp = O.CopyProp = O.CSE = O.PRE = O.LICM = O.PDE = O.DCE =
        O.BranchOpt = O.LoopPeel = O.LoopUnroll = O.IVOpt = false;
    O.Ssa = O.GVN = O.SparseProp = O.Inline = false;
    return O;
  }
  /// The O2 row's pass set (eval/Levels.h): every pre-SSA pass, with no
  /// SSA tier and no inlining.  Name pipelines by their level row; this
  /// stays for pass-level tests and the benchmark's staged compile.
  static OptOptions all() { return OptOptions(); }
};

/// Driver knobs beyond pass selection.
struct PipelineConfig {
  bool TimePasses = false; ///< Collect per-slot wall time (needs Stats).
  bool VerifyEach = false; ///< Run the IR verifier after every pass; the
                           ///< first failure stops the pipeline and is
                           ///< returned as a VerifyFailure Status.
  bool VerifyAnnotations = true; ///< Check the debug-bookkeeping
                                 ///< invariants after every pass and
                                 ///< record findings on the function for
                                 ///< classifier degradation (cheap linear
                                 ///< scan; never stops the pipeline).
  bool FixpointPropagation = false; ///< Iterate the propagate→simplify
                                    ///< clusters to a fixed point
                                    ///< (bounded) instead of one sweep.
  bool DisableAnalysisCache = false; ///< Invalidate all analyses at every
                                     ///< pass boundary (models the
                                     ///< pre-manager pipeline; used by
                                     ///< the throughput bench as its
                                     ///< uncached reference).
  /// Called after each (pass, function) step; used by the stale-cache
  /// property test to compare cached analyses against fresh ones.
  std::function<void(IRFunction &F, IRModule &M, AnalysisManager &AM,
                     const char *PassName)>
      AfterPass;

  /// Default config with environment overrides applied
  /// (SLDB_VERIFY_EACH=1 enables VerifyEach), so test re-registrations
  /// can flip verification without plumbing flags through every caller.
  static PipelineConfig fromEnvironment();
};

/// Per-slot activity of one pipeline run.
struct PassSlotStats {
  std::string Name;
  unsigned Runs = 0;    ///< Function invocations.
  unsigned Changed = 0; ///< Invocations that reported a change.
  double WallMs = 0;    ///< Filled when PipelineConfig::TimePasses.
};

/// Aggregate observability of one pipeline run.
struct PipelineStats {
  std::vector<PassSlotStats> Slots;
  AnalysisStats Analyses; ///< Cache hits/misses of the shared manager.
  double TotalMs = 0;     ///< Filled when PipelineConfig::TimePasses.
};

/// Runs the cmcc-like pipeline over every function of \p M.  Passes are
/// ordered so that hoisting (PRE) runs before sinking (PDE), matching the
/// interaction the paper reports (§4: hoisted assignments that were
/// partially dead were subsequently sunk).  Analysis caching across passes,
/// optional per-pass timing/verification, optional fixpoint iteration of
/// the propagation clusters.  \p Stats may be null.  Returns a
/// VerifyFailure error (and stops transforming) when VerifyEach is on and
/// a pass broke the IR; the module must then be discarded.
Status runPipelineEx(IRModule &M, const OptOptions &Opts,
                     const PipelineConfig &Config,
                     PipelineStats *Stats = nullptr);

/// One pass's aggregate activity over a module: how many (function, pass
/// slot) runs reported a change.  Names repeat in pipeline order when a
/// pass appears in several pipeline slots.  The fuzzing harness uses it
/// to prove the generated corpus exercises every optimization.
struct PassFiring {
  std::string Name;
  unsigned Changed = 0; ///< Number of functions the slot transformed.
};

/// Returns the pipeline pass names in execution order (Table 1 bench).
std::vector<std::string> pipelinePassNames(const OptOptions &Opts);

class CFGContext;

/// Shared §3 bookkeeping for passes that *remove* an assignment to \p V
/// (DCE deletion, PDE sinking): every AvailMarker of V forward-reachable
/// from the removal site without an intervening real assignment to V
/// loses its "actual == expected here" certificate — it relied on the
/// removed store having filled V's location.  Keeping it would be
/// unsound (the marker kills V's dead reach, so the debugger presents a
/// stale or never-written location as Current).  Demotes each such
/// marker to a recovery-less DeadMarker: still an eliminated-assignment
/// record, now honestly stale.  DeadMarkers of V do not stop the walk
/// (an eliminated assignment restores nothing).
void demoteUnsoundAvailMarkers(CFGContext &CFG, unsigned Block,
                               InstrList::iterator Start, VarId V);

} // namespace sldb

#endif // SLDB_OPT_PASS_H
