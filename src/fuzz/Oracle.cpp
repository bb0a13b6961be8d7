//===- fuzz/Oracle.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "analysis/Dataflow.h"
#include "support/FaultInjector.h"

#include <unordered_map>

using namespace sldb;

namespace {

//===----------------------------------------------------------------------===//
// All-paths initialization over the unoptimized build
//===----------------------------------------------------------------------===//

/// Intersect-meet variant of the classifier's init reach, computed on the
/// oracle (unoptimized) machine code: a set bit means every path from
/// entry to the block performs the definition.  The unoptimized build has
/// no markers, so the GEN sets reduce to real assignments.
class AllPathsInit {
public:
  AllPathsInit(const MachineFunction &MF, const ProgramInfo &Info) : MF(MF) {
    unsigned NumBlocks = static_cast<unsigned>(MF.Blocks.size());
    std::vector<std::vector<unsigned>> Preds(NumBlocks), Succs(NumBlocks);
    std::vector<unsigned> Exits;
    for (unsigned B = 0; B < NumBlocks; ++B) {
      for (unsigned S : MF.Blocks[B].Succs)
        Succs[B].push_back(S);
      for (unsigned P : MF.Blocks[B].Preds)
        Preds[B].push_back(P);
      if (!MF.Blocks[B].Insts.empty() &&
          MF.Blocks[B].Insts.back().Op == MOp::RET)
        Exits.push_back(B);
    }
    for (VarId V : Info.func(MF.Id).Locals)
      if (Info.var(V).isScalar() && !VarIdx.count(V)) {
        VarIdx[V] = static_cast<unsigned>(Vars.size());
        Vars.push_back(V);
      }

    DataflowProblem P;
    P.Dir = FlowDir::Forward;
    P.Meet = FlowMeet::Intersect;
    P.Universe = static_cast<unsigned>(Vars.size());
    P.Gen.assign(NumBlocks, BitVector(P.Universe));
    P.Kill.assign(NumBlocks, BitVector(P.Universe));
    P.Boundary = BitVector(P.Universe);
    for (unsigned B = 0; B < NumBlocks; ++B)
      for (const MInstr &I : MF.Blocks[B].Insts)
        if (I.DestVar != InvalidVar) {
          auto It = VarIdx.find(I.DestVar);
          if (It != VarIdx.end())
            P.Gen[B].set(It->second);
        }
    In = solveDataflowGeneric(NumBlocks, Preds, Succs, Exits, P).In;
  }

  /// Whether every path to (and through the block prefix before) \p Addr
  /// defines \p V.  Globals count as initialized.
  bool at(std::uint32_t Addr, VarId V) const {
    auto It = VarIdx.find(V);
    if (It == VarIdx.end())
      return false; // Unknown local: never provably initialized.
    unsigned B = 0;
    while (B + 1 < MF.Blocks.size() && MF.BlockAddr[B + 1] <= Addr)
      ++B;
    BitVector State = In[B];
    std::uint32_t A = MF.BlockAddr[B];
    for (const MInstr &I : MF.Blocks[B].Insts) {
      if (A >= Addr)
        break;
      if (I.DestVar != InvalidVar) {
        auto DIt = VarIdx.find(I.DestVar);
        if (DIt != VarIdx.end())
          State.set(DIt->second);
      }
      ++A;
    }
    return State.test(It->second);
  }

private:
  const MachineFunction &MF;
  std::unordered_map<VarId, unsigned> VarIdx;
  std::vector<VarId> Vars;
  std::vector<BitVector> In;
};

/// What the optimized build's debug tables claim about residence at an
/// address — the ground truth the Nonresident verdict is checked against
/// (same rule as the classifier's residence step, recomputed here
/// independently of the verdict).
bool tableResident(const MachineFunction &MF, const ProgramInfo &Info,
                   std::uint32_t Addr, VarId V) {
  if (Info.var(V).Storage == StorageKind::Global)
    return true;
  auto SIt = MF.Storage.find(V);
  if (SIt == MF.Storage.end() || SIt->second.K == VarStorage::Kind::None)
    return false;
  if (SIt->second.K != VarStorage::Kind::InReg)
    return true; // Frame/global memory: resident once initialized.
  auto RIt = MF.ResidentAt.find(V);
  return RIt != MF.ResidentAt.end() && Addr < RIt->second.size() &&
         RIt->second.test(Addr);
}

} // namespace

Expected<LockstepBuilds> sldb::compileLockstepPair(std::string_view Src,
                                                   const OptOptions &Opts,
                                                   bool Promote,
                                                   PipelineStats *Stats) {
  CompileOptions Unscheduled;
  Unscheduled.Schedule = false;
  auto Fail = [](const Status &S, const char *Prefix) {
    std::string Msg = S.code() == ErrorCode::SourceError
                          ? S.message()
                          : Prefix + S.str();
    return Status::error(S.code(), std::move(Msg));
  };

  FaultInjector::suspend();
  Expected<CompiledModule> Oracle =
      compileModule(Src, levelSpec(PipelineLevel::O0), Unscheduled);
  FaultInjector::resume();
  if (!Oracle)
    return Fail(Oracle.status(), "oracle build: ");

  const LevelSpec Tested{PipelineLevel::O2nl, "lockstep", Opts, Promote};
  Unscheduled.Stats = Stats;
  Expected<CompiledModule> Opt = compileModule(Src, Tested, Unscheduled);
  if (!Opt)
    return Fail(Opt.status(), "");
  return LockstepBuilds{std::move(*Oracle), std::move(*Opt)};
}

LockstepResult sldb::runLockstep(std::string_view Src,
                                 const LockstepOptions &O) {
  LockstepResult R;
  PipelineStats PS;
  Expected<LockstepBuilds> B =
      compileLockstepPair(Src, O.Opts, O.Promote, &PS);
  for (const PassSlotStats &Slot : PS.Slots)
    R.Firings.push_back({Slot.Name, Slot.Changed});
  if (!B) {
    R.CompileError = B.status().message();
    return R;
  }
  MachineModule &MMO = B->Oracle.MM;
  MachineModule &MM2 = B->Opt.MM;
  R.Compiled = true;

  // Machine-level evidence of the endangering transformations.
  for (const MachineFunction &MF : MM2.Funcs)
    for (const MachineBlock &B : MF.Blocks)
      for (const MInstr &I : B.Insts) {
        if (I.IsHoisted)
          ++R.NumHoisted;
        if (I.IsSunk)
          ++R.NumSunk;
        if (I.Op == MOp::MDEAD)
          ++R.NumDeadMarks;
        if (I.Op == MOp::MAVAIL)
          ++R.NumAvailMarks;
      }
  for (const auto &F : B->Opt.IR->Funcs)
    R.NumSRRecords += static_cast<unsigned>(F->SRRecords.size());

  // Suspend faults around the oracle debugger's construction too: the
  // VM-trap fault arms at Machine construction and must not fire in the
  // ground-truth run.
  FaultInjector::suspend();
  Debugger Expected(MMO, O.Fuel);
  FaultInjector::resume();
  Debugger Opt(MM2, O.Fuel);
  Expected.breakEverywhere();
  Opt.breakEverywhere();

  std::vector<std::unique_ptr<AllPathsInit>> Init(MMO.Funcs.size());

  StopReason RO = Expected.run();
  StopReason R2 = Opt.run();
  // The iteration bound also covers oracle-only stops (vanished
  // statements), which do not produce observations.
  unsigned Iter = 0, IterMax = O.MaxStops * 4 + 64;
  while (RO == StopReason::Breakpoint && R2 == StopReason::Breakpoint &&
         R.Stops.size() < O.MaxStops && ++Iter < IterMax) {
    auto SO = Expected.currentStmt();
    auto S2 = Opt.currentStmt();
    if (!SO || !S2) {
      R.PairError = "breakpoint stop without a statement mapping";
      break;
    }
    if (Expected.currentFunction() != Opt.currentFunction() || *SO != *S2) {
      // Statements whose code vanished entirely from the optimized build
      // (folded branches, merged blocks) stop only the oracle; skip them.
      const MachineFunction &OptF =
          Opt.module().Funcs[Expected.currentFunction()];
      bool Vanished =
          *SO >= OptF.StmtAddr.size() || OptF.StmtAddr[*SO] < 0;
      if (!Vanished) {
        R.PairError = "stop sequences diverged: oracle at " +
                      MMO.Funcs[Expected.currentFunction()].Name + " s" +
                      std::to_string(*SO) + ", optimized at " +
                      MM2.Funcs[Opt.currentFunction()].Name + " s" +
                      std::to_string(*S2);
        break;
      }
      RO = Expected.resume();
      continue;
    }

    StopObservation Stop;
    Stop.Func = Expected.currentFunction();
    Stop.Stmt = *SO;

    std::vector<VarReport> ScopeO = Expected.reportScope();
    std::vector<VarReport> Scope2 = Opt.reportScope();
    if (ScopeO.size() != Scope2.size()) {
      R.PairError = "scope size mismatch at s" + std::to_string(*SO);
      break;
    }

    std::uint32_t AddrO = Expected.machine().pc().Local;
    std::uint32_t Addr2 = Opt.machine().pc().Local;
    const MachineFunction &MFO = MMO.Funcs[Stop.Func];
    const MachineFunction &MF2 = MM2.Funcs[Stop.Func];
    if (!Init[Stop.Func])
      Init[Stop.Func] = std::make_unique<AllPathsInit>(MFO, *MMO.Info);

    for (std::size_t I = 0; I < Scope2.size(); ++I) {
      if (ScopeO[I].Var != Scope2[I].Var) {
        R.PairError = "scope variable mismatch at s" + std::to_string(*SO);
        break;
      }
      VarObservation VO;
      VO.Expected = ScopeO[I];
      VO.Opt = Scope2[I];
      VO.OptTableResident =
          tableResident(MF2, *MM2.Info, Addr2, Scope2[I].Var);
      VO.ExpectedInitAllPaths = Init[Stop.Func]->at(AddrO, ScopeO[I].Var);
      VO.RawValid = Opt.peekStorage(Scope2[I].Var, VO.RawIsDouble,
                                    VO.RawInt, VO.RawDouble);
      VO.IsPtr = MM2.Info->var(Scope2[I].Var).Ty.Kind == TypeKind::Ptr;
      Stop.Vars.push_back(std::move(VO));
    }
    if (!R.PairError.empty())
      break;
    R.Stops.push_back(std::move(Stop));

    RO = Expected.resume();
    R2 = Opt.resume();
  }

  // Drain to completion so the end states compare program behavior, not
  // the observation cap.  (A run still at a breakpoint after the drain
  // bound is reported as-is.)
  for (unsigned G = 0; RO == StopReason::Breakpoint && G < 200000; ++G)
    RO = Expected.resume();
  for (unsigned G = 0; R2 == StopReason::Breakpoint && G < 200000; ++G)
    R2 = Opt.resume();

  R.ExpectedEnd = RO;
  R.OptEnd = R2;
  R.ExpectedExit = Expected.machine().exitValue();
  R.OptExit = Opt.machine().exitValue();
  R.ExpectedOutput = Expected.machine().outputText();
  R.OptOutput = Opt.machine().outputText();
  return R;
}
