//===- opt/Pipeline.cpp - cmcc-like pass pipeline ---------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "ir/Verifier.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

using namespace sldb;

bool Pass::run(IRFunction &F, IRModule &M) {
  AnalysisManager AM(*M.Info);
  return run(F, M, AM).Changed;
}

namespace {

/// One pipeline slot.  Slots sharing a Cluster id form a
/// propagate→simplify group the fixpoint driver may iterate.
struct Slot {
  std::unique_ptr<Pass> P;
  int Cluster = -1;
};

/// Builds the pipeline in execution order.
std::vector<Slot> buildPipeline(const OptOptions &O) {
  std::vector<Slot> P;
  auto Add = [&](bool Enabled, std::unique_ptr<Pass> Pass, int Cluster = -1) {
    if (Enabled)
      P.push_back({std::move(Pass), Cluster});
  };

  // Inlining first: it rewrites call sites into straight-line code, so
  // everything downstream (including the SSA bracket) sees the flattened
  // function.
  Add(O.Inline, createInlinePass());

  // Cleanup + early simplification (cluster 0: the first
  // propagate→simplify group).
  Add(O.BranchOpt, createBranchOptPass());
  Add(O.ConstProp, createLocalSimplifyPass(), 0);
  Add(O.ConstProp, createConstantPropagationPass(), 0);
  Add(O.ConstProp, createLocalSimplifyPass(), 0);
  Add(O.CopyProp, createCopyPropagationPass(), 0);
  Add(O.BranchOpt, createBranchOptPass());

  // Loop restructuring first: peeling exposes redundancy to PRE.
  Add(O.LoopPeel, createLoopPeelPass());
  Add(O.LoopUnroll, createLoopUnrollPass());

  // Redundancy removal: CSE, then the hoisting transformations.
  Add(O.CSE, createGlobalCSEPass());
  Add(O.PRE, createPartialRedundancyElimPass());
  Add(O.LICM, createLoopInvariantCodeMotionPass());
  Add(O.IVOpt, createInductionVariableOptPass());

  // Second propagation round (cluster 1) feeds dead-code elimination
  // (and builds the recovery chains of paper §2.5 / Figure 4).
  Add(O.ConstProp, createConstantPropagationPass(), 1);
  Add(O.ConstProp, createLocalSimplifyPass(), 1);
  Add(O.CopyProp, createCopyPropagationPass(), 1);

  // SSA bracket: construct, run the SSA-form passes, destruct.  Placed
  // after the propagation round (so GVN sees canonical operands) and
  // before PDE/DCE (so the copies SSA destruction leaves behind are
  // cleaned up by the existing dead-code sweep).
  const bool WantSsa = O.Ssa || O.GVN || O.SparseProp;
  Add(WantSsa, createSsaConstructPass());
  Add(O.GVN, createGVNPass());
  Add(O.SparseProp, createSparsePropPass());
  Add(WantSsa, createSsaDestructPass());

  // Sinking after hoisting (paper §4: hoisted assignments that are
  // partially dead get sunk back down), then full dead-code elimination.
  Add(O.PDE, createPartialDeadCodeElimPass());
  Add(O.DCE, createDeadCodeEliminationPass());
  Add(O.BranchOpt, createBranchOptPass());
  return P;
}

/// Caps fixpoint iteration of one cluster (safety net; the propagation
/// passes converge quickly in practice).
constexpr unsigned MaxClusterRounds = 4;

Status verifyAfterPass(IRFunction &F, IRModule &M, const char *PassName) {
  static StatCounter &Verified =
      Stats::counter("pipeline.verify_each.functions");
  Verified.add();
  std::vector<std::string> Errors;
  if (verifyFunction(F, *M.Info, Errors))
    return Status::success();
  std::string Msg = "IR verification failed after pass '";
  Msg += PassName;
  Msg += "' on '" + F.Name + "'";
  for (const std::string &E : Errors) {
    Msg += "\n  ";
    Msg += E;
  }
  return Status::error(ErrorCode::VerifyFailure, std::move(Msg));
}

} // namespace

PipelineConfig PipelineConfig::fromEnvironment() {
  PipelineConfig C;
  const char *V = std::getenv("SLDB_VERIFY_EACH");
  if (V && *V && std::strcmp(V, "0") != 0)
    C.VerifyEach = true;
  return C;
}

Status sldb::runPipelineEx(IRModule &M, const OptOptions &Opts,
                           const PipelineConfig &Config,
                           PipelineStats *Stats) {
  using Clock = std::chrono::steady_clock;
  TraceSpan PipeSpan("runPipeline", "pipeline");
  auto Pipeline = buildPipeline(Opts);
  AnalysisManager AM(*M.Info);

  if (Stats) {
    Stats->Slots.clear();
    for (const Slot &S : Pipeline)
      Stats->Slots.push_back({S.P->name(), 0, 0, 0});
  }

  const bool Timing = Config.TimePasses && Stats;
  auto RunStart = Timing ? Clock::now() : Clock::time_point();

  Status Err;
  auto RunSlot = [&](std::size_t I, IRFunction &F) {
    auto T0 = Timing ? Clock::now() : Clock::time_point();
    TraceSpan Span(Pipeline[I].P->name(), "pass");
    Span.arg("function", F.Name);
    PassResult R = Pipeline[I].P->run(F, M, AM);
    Span.arg("changed", R.Changed ? "true" : "false");
    Stats::counter("pipeline.pass.runs").add();
    if (R.Changed)
      Stats::counter("pipeline.pass.changed").add();
    AM.invalidate(F, R.Preserved);
    if (Config.DisableAnalysisCache)
      AM.invalidateAll(F);
    if (Config.VerifyEach && Err.ok())
      Err = verifyAfterPass(F, M, Pipeline[I].P->name());
    if (Config.VerifyAnnotations && Config.AfterPass) {
      // Recompute the debug-bookkeeping findings from scratch: damage is
      // structural, so whatever is still broken after the latest pass is
      // rediscovered, and the list cannot grow without bound.  Without an
      // AfterPass observer nothing reads the intermediate findings, so
      // the per-function sweep below computes them once at the end.
      F.AnnotationFindings.clear();
      verifyFunctionAnnotations(F, *M.Info, F.AnnotationFindings);
    }
    if (Config.AfterPass)
      Config.AfterPass(F, M, AM, Pipeline[I].P->name());
    if (Stats) {
      PassSlotStats &S = Stats->Slots[I];
      ++S.Runs;
      S.Changed += R.Changed;
      if (Timing)
        S.WallMs +=
            std::chrono::duration<double, std::milli>(Clock::now() - T0)
                .count();
    }
    return R.Changed;
  };

  // Function-major order: with the fixpoint driver off, the transformed
  // module is bit-identical to the historical one-sweep pipeline.
  for (auto &F : M.Funcs) {
    std::size_t I = 0;
    while (I < Pipeline.size() && Err.ok()) {
      int Cluster = Pipeline[I].Cluster;
      if (Cluster < 0 || !Config.FixpointPropagation) {
        RunSlot(I, *F);
        ++I;
        continue;
      }
      std::size_t End = I;
      while (End < Pipeline.size() && Pipeline[End].Cluster == Cluster)
        ++End;
      bool Again = true;
      for (unsigned Round = 0;
           Again && Err.ok() && Round < MaxClusterRounds; ++Round) {
        Again = false;
        for (std::size_t K = I; K < End; ++K)
          Again |= RunSlot(K, *F);
      }
      I = End;
    }
    if (Config.VerifyAnnotations && Err.ok() && !Config.AfterPass) {
      // Final-state findings only; identical to verifying after every
      // pass since each verification starts from scratch.
      F->AnnotationFindings.clear();
      verifyFunctionAnnotations(*F, *M.Info, F->AnnotationFindings);
    }
    if (!Err.ok())
      break;
  }

  if (Stats) {
    Stats->Analyses = AM.stats();
    if (Timing)
      Stats->TotalMs =
          std::chrono::duration<double, std::milli>(Clock::now() - RunStart)
              .count();
  }
  return Err;
}

std::vector<std::string> sldb::pipelinePassNames(const OptOptions &Opts) {
  std::vector<std::string> Names;
  for (auto &S : buildPipeline(Opts))
    Names.emplace_back(S.P->name());
  return Names;
}
