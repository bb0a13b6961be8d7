//===- core/Classifier.cpp ------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Classifier.h"

#include "analysis/Dataflow.h"
#include "core/AnnotationVerifier.h"
#include "ir/IRPrinter.h"
#include "support/Casting.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cstdio>
#include <map>
#include <unordered_set>

using namespace sldb;

namespace {
/// The two deliberately *unsound* classifier faults (the fuzzing
/// oracle's teeth — see support/FaultInjector.h).  Read at analysis and
/// transfer time so arming mid-session takes effect after a cache flush.
bool suppressHoistGen() {
  return FaultInjector::armed(FaultId::ClassifierSuppressHoistGen);
}
bool suppressDeadAssignKill() {
  return FaultInjector::armed(FaultId::ClassifierSuppressDeadAssignKill);
}
} // namespace

const char *sldb::varClassName(VarClass C) {
  switch (C) {
  case VarClass::Uninitialized:
    return "uninitialized";
  case VarClass::Nonresident:
    return "nonresident";
  case VarClass::Noncurrent:
    return "noncurrent";
  case VarClass::Suspect:
    return "suspect";
  case VarClass::Current:
    return "current";
  }
  return "?";
}

const char *sldb::endangerCauseName(EndangerCause C) {
  switch (C) {
  case EndangerCause::None:
    return "none";
  case EndangerCause::Premature:
    return "premature";
  case EndangerCause::MaybePremature:
    return "maybe-premature";
  case EndangerCause::Stale:
    return "stale";
  case EndangerCause::MaybeStale:
    return "maybe-stale";
  }
  return "?";
}

Classifier::Classifier(const MachineFunction &MF, const ProgramInfo &Info,
                       bool EnableRecovery)
    : MF(MF), Info(Info), EnableRecovery(EnableRecovery) {
  NumBlocks = static_cast<unsigned>(MF.Blocks.size());
  Preds.resize(NumBlocks);
  Succs.resize(NumBlocks);
  for (unsigned B = 0; B < NumBlocks; ++B) {
    for (unsigned S : MF.Blocks[B].Succs)
      Succs[B].push_back(S);
    for (unsigned P : MF.Blocks[B].Preds)
      Preds[B].push_back(P);
    if (!MF.Blocks[B].Insts.empty() &&
        MF.Blocks[B].Insts.back().Op == MOp::RET)
      Exits.push_back(B);
  }

  // Track this function's scalar locals (the paper's figures measure
  // local variables; globals are conservatively "initialized" and always
  // memory-resident).
  Rows.resize(Info.Vars.size() + 1);
  for (VarId V : Info.func(MF.Id).Locals)
    if (Info.var(V).isScalar() && Rows[V].InitBit < 0) {
      Rows[V].InitBit = static_cast<int>(Vars.size());
      Vars.push_back(V);
    }

  buildMasks();
  buildInitReach();
  buildHoistReach();
  buildDeadReach();
  buildFrameRecoveryValidity();

  // Fault containment: re-verify the debug bookkeeping the verdicts rest
  // on, and fold in whatever damage the pipeline already recorded.  A
  // finding attributed to a variable degrades that variable; a
  // whole-function finding (Var == InvalidVar) degrades them all — a
  // conservative SUSPECT/NONRESIDENT answer beats a crash or a false
  // CURRENT built on corrupt annotations.
  Findings = MF.IntegrityFindings;
  verifyMachineAnnotations(MF, Info, Findings);
  for (const AnnotationFinding &F : Findings) {
    if (F.Var == InvalidVar)
      DegradeAll = true;
    else
      DegradedVars.insert(F.Var);
  }
}

Classifier::AddrPos Classifier::position(std::uint32_t Addr) const {
  unsigned B = 0;
  while (B + 1 < NumBlocks && MF.BlockAddr[B + 1] <= Addr)
    ++B;
  return {B, Addr - MF.BlockAddr[B]};
}

//===----------------------------------------------------------------------===//
// Analyses
//===----------------------------------------------------------------------===//

void Classifier::buildMasks() {
  // Enumerate marker instances.  A marker's identity is its address (the
  // same variable/statement pair may be duplicated by unrolling).
  std::uint32_t Addr = 0;
  for (unsigned B = 0; B < NumBlocks; ++B)
    for (const MInstr &I : MF.Blocks[B].Insts) {
      if (I.Op == MOp::MDEAD)
        Markers.push_back({I.MarkVar, I.MarkStmt, Addr, I.Recovery});
      ++Addr;
    }

  const unsigned NK = static_cast<unsigned>(MF.HoistKeys.size());
  const unsigned NM = static_cast<unsigned>(Markers.size());
  auto SlotOf = [&](VarId V) {
    int &Slot = Rows[std::min<std::size_t>(V, Rows.size() - 1)].Slot;
    if (Slot < 0) {
      Slot = static_cast<int>(KeyMask.size());
      KeyMask.emplace_back(NK);
      MarkerMask.emplace_back(NM);
    }
    return Slot;
  };
  for (unsigned K = 0; K < NK; ++K)
    KeyMask[SlotOf(MF.HoistKeys[K].V)].set(K);
  for (unsigned M = 0; M < NM; ++M)
    MarkerMask[SlotOf(Markers[M].V)].set(M);

  Bits.resize(Addr);
  Addr = 0;
  int Marker = 0;
  for (unsigned B = 0; B < NumBlocks; ++B)
    for (const MInstr &I : MF.Blocks[B].Insts) {
      InstrBits &IB = Bits[Addr++];
      const bool IsMark = I.Op == MOp::MDEAD || I.Op == MOp::MAVAIL;
      VarId Def = I.DestVar;
      if (Def == InvalidVar && IsMark)
        Def = I.MarkVar; // Represents an eliminated source assignment.
      if (Def != InvalidVar)
        IB.InitBit = row(Def).InitBit;
      if (I.DestVar != InvalidVar)
        IB.DestSlot = row(I.DestVar).Slot;
      if (IsMark)
        IB.MarkSlot = row(I.MarkVar).Slot;
      if (I.Op == MOp::MDEAD)
        IB.Marker = Marker++;
    }
}

void Classifier::buildInitReach() {
  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Meet = FlowMeet::Union;
  P.Universe = static_cast<unsigned>(Vars.size());
  P.Gen.assign(NumBlocks, BitVector(P.Universe));
  P.Kill.assign(NumBlocks, BitVector(P.Universe));
  P.Boundary = BitVector(P.Universe);

  for (unsigned B = 0; B < NumBlocks; ++B) {
    const std::uint32_t Base = MF.BlockAddr[B];
    for (std::size_t Idx = 0; Idx < MF.Blocks[B].Insts.size(); ++Idx)
      if (int Bit = Bits[Base + Idx].InitBit; Bit >= 0)
        P.Gen[B].set(static_cast<unsigned>(Bit));
  }
  InitIn = solveDataflowGeneric(NumBlocks, Preds, Succs, Exits, P).In;
}

void Classifier::buildHoistReach() {
  const unsigned U = static_cast<unsigned>(MF.HoistKeys.size());
  KeyStmt.assign(U, InvalidStmt);

  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Meet = FlowMeet::Union;
  P.Universe = U;
  P.Gen.assign(NumBlocks, BitVector(U));
  P.Kill.assign(NumBlocks, BitVector(U));
  P.Boundary = BitVector(U);

  for (unsigned B = 0; B < NumBlocks; ++B) {
    std::uint32_t Addr = MF.BlockAddr[B];
    for (const MInstr &I : MF.Blocks[B].Insts) {
      const InstrBits &IB = Bits[Addr++];
      // Kills first: an assignment to V kills every key assigning V; an
      // avail marker kills its own key.  The hoisted instance itself is
      // processed as gen *after* its kill (it is an assignment to V).
      if (IB.DestSlot >= 0) {
        P.Gen[B].subtract(KeyMask[IB.DestSlot]);
        P.Kill[B] |= KeyMask[IB.DestSlot];
      }
      // Keys are bounds-checked (not asserted): a corrupted annotation
      // must degrade the verdict, not index out of the bit vectors.
      if (I.Op == MOp::MAVAIL && I.HoistKey != InvalidHoistKey &&
          I.HoistKey < U) {
        P.Gen[B].reset(I.HoistKey);
        P.Kill[B].set(I.HoistKey);
      }
      if (I.IsHoisted && I.DestVar != InvalidVar &&
          I.HoistKey != InvalidHoistKey && I.HoistKey < U) {
        if (!suppressHoistGen()) {
          P.Gen[B].set(I.HoistKey);
          P.Kill[B].reset(I.HoistKey);
        }
        if (KeyStmt[I.HoistKey] == InvalidStmt)
          KeyStmt[I.HoistKey] = I.Stmt;
      }
    }
  }

  HoistSomeIn = solveDataflowGeneric(NumBlocks, Preds, Succs, Exits, P).In;
  P.Meet = FlowMeet::Intersect;
  HoistAllIn = solveDataflowGeneric(NumBlocks, Preds, Succs, Exits, P).In;
}

void Classifier::buildDeadReach() {
  const unsigned U = static_cast<unsigned>(Markers.size());

  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Meet = FlowMeet::Union;
  P.Universe = U;
  P.Gen.assign(NumBlocks, BitVector(U));
  P.Kill.assign(NumBlocks, BitVector(U));
  P.Boundary = BitVector(U);

  for (unsigned B = 0; B < NumBlocks; ++B) {
    std::uint32_t Addr = MF.BlockAddr[B];
    for (const MInstr &I : MF.Blocks[B].Insts) {
      const InstrBits &IB = Bits[Addr++];
      // Real assignments to V kill V's markers; avail markers for V kill
      // too (at that point actual == expected, see header comment).
      int Killed = -1;
      if (I.DestVar != InvalidVar && !suppressDeadAssignKill())
        Killed = IB.DestSlot;
      else if (I.Op == MOp::MAVAIL)
        Killed = IB.MarkSlot;
      if (Killed >= 0) {
        P.Gen[B].subtract(MarkerMask[Killed]);
        P.Kill[B] |= MarkerMask[Killed];
      }
      if (I.Op == MOp::MDEAD) {
        // The *last* eliminated assignment to V defines its expected
        // value (Definition 2): a newer marker supersedes (kills) every
        // other marker of the same variable.
        P.Gen[B].subtract(MarkerMask[IB.MarkSlot]);
        P.Kill[B] |= MarkerMask[IB.MarkSlot];
        P.Gen[B].set(static_cast<unsigned>(IB.Marker));
        P.Kill[B].reset(static_cast<unsigned>(IB.Marker));
      }
    }
  }

  DeadSomeIn = solveDataflowGeneric(NumBlocks, Preds, Succs, Exits, P).In;
  P.Meet = FlowMeet::Intersect;
  DeadAllIn = solveDataflowGeneric(NumBlocks, Preds, Succs, Exits, P).In;
}

void Classifier::buildFrameRecoveryValidity() {
  // Recovery validity per marker.  Constants are always recoverable;
  // register recoveries come from the register allocator's table.
  const unsigned U = static_cast<unsigned>(Markers.size());
  const std::uint32_t Total = MF.numInstrs();
  RecoveryValid.assign(U, BitVector(Total));
  std::vector<unsigned> FrameMarkers; ///< Taint bit -> marker index.
  for (unsigned M = 0; M < U; ++M) {
    const MarkerInfo &MI = Markers[M];
    switch (MI.Recovery.K) {
    case MRecovery::Kind::None:
      break;
    case MRecovery::Kind::Imm:
    case MRecovery::Kind::FImm:
      RecoveryValid[M].set();
      break;
    case MRecovery::Kind::InReg: {
      auto It = MF.RecoveryValidAt.find(MI.Addr);
      if (It != MF.RecoveryValidAt.end())
        RecoveryValid[M] = It->second;
      break;
    }
    case MRecovery::Kind::InFrame:
      FrameMarkers.push_back(M);
      break;
    }
  }
  if (FrameMarkers.empty())
    return;

  // Frame/global recoveries: valid at A iff *no* path from the marker to
  // A crosses a write to the slot / global after the marker
  // (IV-invariant relations survive updates).  This must be a may-taint
  // data flow, not a single forward walk: with a loop whose body writes
  // the slot, the head is reachable both write-free (first entry) and
  // through the write (back edge), and one tainted path already makes
  // the recovered value a lie on some execution (found by the
  // differential fuzzer: `v2 = v4` eliminated before a loop that
  // reassigns v4).  Re-executing the marker re-binds the recovery to the
  // slot's current value, so the marker clears the taint.  All frame
  // recoveries share one union-meet problem, one bit per marker, with
  // per-slot / per-global write masks.
  const unsigned NF = static_cast<unsigned>(FrameMarkers.size());
  std::vector<int> TaintBit(U, -1);
  std::map<std::int32_t, BitVector> SlotWrites;
  std::map<VarId, BitVector> GlobalWrites;
  BitVector AnyIndirect(NF), CallWrites(NF);
  for (unsigned J = 0; J < NF; ++J) {
    const MRecovery &R = Markers[FrameMarkers[J]].Recovery;
    TaintBit[FrameMarkers[J]] = static_cast<int>(J);
    if (R.IsIV)
      continue; // Never tainted.
    // Register-indirect stores may alias any slot/global; a callee may
    // write any global.
    AnyIndirect.set(J);
    if (R.Frame < 0) {
      GlobalWrites.try_emplace(static_cast<VarId>(R.Imm), NF)
          .first->second.set(J);
      CallWrites.set(J);
    } else {
      SlotWrites.try_emplace(R.Frame, NF).first->second.set(J);
    }
  }
  // Taint generated by one instruction, or null for none.
  BitVector Scratch(NF);
  auto Writes = [&](const MInstr &CI) -> const BitVector * {
    if (CI.Op == MOp::JAL)
      return &CallWrites;
    if (CI.Op != MOp::SW && CI.Op != MOp::SD)
      return nullptr;
    Scratch.reset();
    if (auto It = SlotWrites.find(CI.FrameSlot); It != SlotWrites.end())
      Scratch |= It->second;
    if (auto It = GlobalWrites.find(CI.GlobalVar); It != GlobalWrites.end())
      Scratch |= It->second;
    if (CI.AddrReg.isValid())
      Scratch |= AnyIndirect;
    return &Scratch;
  };
  // Per instruction: a marker clears its own taint; a write taints.
  // Each bit is set, reset or kept independently of the input, so a
  // block's Gen = f(0) and Kill = ~f(1) summarize it exactly.
  auto Transfer = [&](const MInstr &CI, std::uint32_t A, BitVector &S) {
    int Own = Bits[A].Marker >= 0 ? TaintBit[Bits[A].Marker] : -1;
    if (Own >= 0)
      S.reset(static_cast<unsigned>(Own));
    else if (const BitVector *W = Writes(CI))
      S |= *W;
  };

  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Meet = FlowMeet::Union;
  P.Universe = NF;
  P.Gen.assign(NumBlocks, BitVector(NF));
  P.Kill.assign(NumBlocks, BitVector(NF));
  P.Boundary = BitVector(NF);
  for (unsigned B = 0; B < NumBlocks; ++B) {
    BitVector Flow(NF, true), Zero(NF);
    std::uint32_t A = MF.BlockAddr[B];
    for (const MInstr &CI : MF.Blocks[B].Insts) {
      Transfer(CI, A, Flow);
      Transfer(CI, A, Zero);
      ++A;
    }
    P.Gen[B] = Zero;
    P.Kill[B] = Flow;
    P.Kill[B].flip();
    P.Kill[B].subtract(P.Gen[B]);
  }
  std::vector<BitVector> TaintIn =
      solveDataflowGeneric(NumBlocks, Preds, Succs, Exits, P).In;

  // Stop-before semantics: validity at A reflects the state before the
  // instruction at A executes.
  for (unsigned B = 0; B < NumBlocks; ++B) {
    BitVector S = TaintIn[B];
    std::uint32_t A = MF.BlockAddr[B];
    for (const MInstr &CI : MF.Blocks[B].Insts) {
      for (unsigned J = 0; J < NF; ++J)
        if (!S.test(J))
          RecoveryValid[FrameMarkers[J]].set(A);
      Transfer(CI, A, S);
      ++A;
    }
  }
  for (unsigned M : FrameMarkers)
    RecoveryValid[M].set(Markers[M].Addr);
}

//===----------------------------------------------------------------------===//
// Per-address transfer functions and query cache
//===----------------------------------------------------------------------===//

void Classifier::initTransfer(std::uint32_t Addr, BitVector &S) const {
  if (int Bit = Bits[Addr].InitBit; Bit >= 0)
    S.set(static_cast<unsigned>(Bit));
}

void Classifier::hoistTransfer(const MInstr &I, std::uint32_t Addr,
                               BitVector &S) const {
  const unsigned NumKeys = static_cast<unsigned>(MF.HoistKeys.size());
  if (int Slot = Bits[Addr].DestSlot; Slot >= 0)
    S.subtract(KeyMask[Slot]);
  if (I.Op == MOp::MAVAIL && I.HoistKey != InvalidHoistKey &&
      I.HoistKey < NumKeys)
    S.reset(I.HoistKey);
  if (I.IsHoisted && I.DestVar != InvalidVar &&
      I.HoistKey != InvalidHoistKey && I.HoistKey < NumKeys &&
      !suppressHoistGen())
    S.set(I.HoistKey);
}

void Classifier::deadTransfer(const MInstr &I, std::uint32_t Addr,
                              BitVector &S) const {
  const InstrBits &IB = Bits[Addr];
  // Real assignments to V kill V's markers; avail markers for V kill too
  // (at that point actual == expected).
  int Killed = -1;
  if (I.DestVar != InvalidVar && !suppressDeadAssignKill())
    Killed = IB.DestSlot;
  else if (I.Op == MOp::MAVAIL)
    Killed = IB.MarkSlot;
  if (Killed >= 0)
    S.subtract(MarkerMask[Killed]);
  if (I.Op == MOp::MDEAD) {
    // This marker supersedes all others of V.
    S.subtract(MarkerMask[IB.MarkSlot]);
    S.set(static_cast<unsigned>(IB.Marker));
  }
}

void Classifier::enterBlock(unsigned B, AddrState &S) const {
  S.Init = InitIn[B];
  S.HoistSome = HoistSomeIn[B];
  S.HoistAll = HoistAllIn[B];
  S.DeadSome = DeadSomeIn[B];
  S.DeadAll = DeadAllIn[B];
}

void Classifier::advance(const MInstr &I, std::uint32_t Addr,
                         AddrState &S) const {
  initTransfer(Addr, S.Init);
  hoistTransfer(I, Addr, S.HoistSome);
  hoistTransfer(I, Addr, S.HoistAll);
  deadTransfer(I, Addr, S.DeadSome);
  deadTransfer(I, Addr, S.DeadAll);
}

const Classifier::AddrState &Classifier::stateAt(std::uint32_t Addr) const {
  // The transfers read the FaultInjector's classifier faults: a test
  // arming/disarming mid-session must see fresh walks, so tag entries
  // with the injector generation and flush when it moves.
  if (Cache.empty()) {
    Cache.resize(MF.numInstrs() + 1);
    CachedFaultGen = FaultInjector::generation();
  } else if (CachedFaultGen != FaultInjector::generation()) {
    Cache.assign(Cache.size(), AddrState());
    CachedFaultGen = FaultInjector::generation();
  }
  if (Addr >= Cache.size())
    Addr = static_cast<std::uint32_t>(Cache.size() - 1);
  AddrState &E = Cache[Addr];
  static StatCounter &HitCount = Stats::counter("classifier.cache.hits");
  static StatCounter &MissCount = Stats::counter("classifier.cache.misses");
  if (E.Valid) {
    ++CacheStats.Hits;
    HitCount.add();
    return E;
  }
  ++CacheStats.Misses;
  MissCount.add();
  AddrPos P = position(Addr);
  enterBlock(P.Block, E);
  const auto &Insts = MF.Blocks[P.Block].Insts;
  const std::size_t End = P.Index < Insts.size() ? P.Index : Insts.size();
  for (std::size_t Idx = 0; Idx < End; ++Idx)
    advance(Insts[Idx], MF.BlockAddr[P.Block] + static_cast<std::uint32_t>(Idx),
            E);
  E.Valid = true;
  return E;
}

//===----------------------------------------------------------------------===//
// Classification (Figure 1)
//===----------------------------------------------------------------------===//

Classification Classifier::classifyDegraded(std::uint32_t Addr, VarId V,
                                            Explanation *E) const {
  // Fail-safe path for variables whose bookkeeping failed verification.
  // Only facts a corrupt annotation cannot skew toward optimism are
  // used: initialization reach (losing a marker only *clears* a def,
  // erring toward Uninitialized) and the storage home's kind.  Hoist and
  // dead reach, residence bits, and recovery are all distrusted, so the
  // verdict is never Current and never Recoverable — memory-resident
  // homes answer Suspect, register homes and the rest Nonresident.
  Classification C;
  C.Degraded = true;
  const VarInfo &VI = Info.var(V);

  if (E) {
    E->DegradedPath = true;
    for (const AnnotationFinding &F : Findings)
      if (F.Var == V || F.Var == InvalidVar)
        E->Findings.push_back(F);
    E->Storage = renderStorage(V);
  }
  auto Done = [&](const char *Rule) {
    if (E) {
      E->Rule = Rule;
      E->Result = C;
    }
    return C;
  };

  if (VI.Storage != StorageKind::Global) {
    const int Bit = row(V).InitBit;
    bool Tracked = Bit >= 0;
    bool Reached =
        Tracked && stateAt(Addr).Init.test(static_cast<unsigned>(Bit));
    if (E) {
      E->InitTracked = Tracked;
      E->InitReached = Reached;
    }
    if (!Reached) {
      C.Kind = VarClass::Uninitialized;
      return Done("degraded: init-reach (uninitialized)");
    }
  } else if (E) {
    E->GlobalAssumedInit = true;
  }

  if (VI.Storage == StorageKind::Global) {
    C.Kind = VarClass::Suspect;
    C.Cause = EndangerCause::MaybeStale;
    return Done("degraded: memory home (suspect)");
  }
  auto SIt = MF.Storage.find(V);
  if (SIt != MF.Storage.end() && SIt->second.K == VarStorage::Kind::Frame) {
    C.Kind = VarClass::Suspect;
    C.Cause = EndangerCause::MaybeStale;
    return Done("degraded: memory home (suspect)");
  }
  C.Kind = VarClass::Nonresident;
  return Done("degraded: register home (nonresident)");
}

Classification Classifier::classify(std::uint32_t Addr, VarId V,
                                    Explanation *E) const {
  // Registry lookups are a lock + map probe; resolve the counters once.
  static StatCounter &QueryCount = Stats::counter("classifier.queries");
  QueryCount.add();
  if (E) {
    E->V = V;
    E->Addr = Addr;
    E->RecoveryEnabled = EnableRecovery;
  }
  if (DegradeAll || DegradedVars.count(V) != 0) {
    static StatCounter &DegradedCount =
        Stats::counter("classifier.queries.degraded");
    DegradedCount.add();
    return classifyDegraded(Addr, V, E);
  }
  return decide(Addr, V, stateAt(Addr), E);
}

Classification Classifier::decide(std::uint32_t Addr, VarId V,
                                  const AddrState &AS,
                                  Explanation *E) const {
  Classification C;
  const VarInfo &VI = Info.var(V);
  // V's hoist keys and dead markers, ascending.
  static const BitVector NoBits;
  const int Slot = row(V).Slot;
  const BitVector &VKeys = Slot >= 0 ? KeyMask[Slot] : NoBits;
  const BitVector &VMarkers = Slot >= 0 ? MarkerMask[Slot] : NoBits;

  auto Done = [&](const char *Rule) {
    if (E) {
      E->Rule = Rule;
      E->Result = C;
    }
    return C;
  };

  // Provenance is recorded as pure reads of the same per-address state
  // the verdict uses; nothing below branches on E except the recording
  // itself, so explain mode cannot perturb the decision.
  if (E) {
    for (unsigned K : VKeys)
      E->Hoists.push_back({K, KeyStmt[K], renderHoistKeyExpr(K),
                           AS.HoistSome.test(K), AS.HoistAll.test(K)});
    for (unsigned M : VMarkers)
      E->Deads.push_back({M, Markers[M].Stmt, Markers[M].Addr,
                          AS.DeadSome.test(M), AS.DeadAll.test(M),
                          renderRecovery(Markers[M].Recovery),
                          Addr < RecoveryValid[M].size() &&
                              RecoveryValid[M].test(Addr)});
  }

  // 1. Initialization (locals only; globals assumed initialized).
  if (VI.Storage != StorageKind::Global) {
    // A variable the function never touches is in scope but was never
    // assigned (or its assignments were all optimized away with no
    // marker, which cannot happen) — uninitialized.
    const int Bit = row(V).InitBit;
    bool Tracked = Bit >= 0;
    bool Reached = Tracked && AS.Init.test(static_cast<unsigned>(Bit));
    if (E) {
      E->InitTracked = Tracked;
      E->InitReached = Reached;
    }
    if (!Reached) {
      C.Kind = VarClass::Uninitialized;
      return Done("init-reach (uninitialized)");
    }
  } else if (E) {
    E->GlobalAssumedInit = true;
  }

  // 2. Recovery (paper §2.5): if on *all* paths the expected value of V
  // stems from one eliminated assignment whose right-hand side survives
  // (in a temporary, a variable, or as a constant), the dead reach of V
  // is killed by the surviving expression and V's residence is the
  // expression's storage — the debugger displays the expected value with
  // no further warning ("these two variables are aliased").
  //
  // We therefore evaluate dead-reach-with-recovery before the residence
  // check: recovery supplies residence.
  bool DeadAll = false, DeadSome = false;
  int DeadAllMarker = -1;
  unsigned DeadAllCount = 0;
  for (unsigned M : VMarkers) {
    if (AS.DeadAll.test(M)) {
      DeadAll = true;
      DeadAllMarker = static_cast<int>(M);
      ++DeadAllCount;
    } else if (AS.DeadSome.test(M)) {
      DeadSome = true;
    }
  }
  if (EnableRecovery && DeadAll && DeadAllCount == 1 &&
      Markers[DeadAllMarker].Recovery.K != MRecovery::Kind::None &&
      Addr < RecoveryValid[DeadAllMarker].size() &&
      RecoveryValid[DeadAllMarker].test(Addr)) {
    if (E)
      E->RecoveryAttempted = true;
    // Variable-sourced recovery (`c = a` eliminated, recover c from a) is
    // only sound if `a` itself holds its expected value at the marker: if
    // any dead marker or hoisted instance of `a` can reach the marker,
    // the alias would launder an endangered value (the extreme case is a
    // deleted self-copy `v = v`).
    bool SrcSound = true;
    VarId Src = Markers[DeadAllMarker].Recovery.SrcVar;
    if (Src != InvalidVar) {
      std::uint32_t MAddr = Markers[DeadAllMarker].Addr;
      if (Src == V) {
        SrcSound = false; // Self-referential alias: never trustworthy.
        if (E)
          E->RecoveryNote = "rejected: self-referential alias";
      } else {
        // Marker addresses are fixed, so these states come from the same
        // per-address cache as the breakpoint's own.
        const AddrState &MS = stateAt(MAddr);
        if (int SrcSlot = row(Src).Slot; SrcSlot >= 0)
          SrcSound = !MS.DeadSome.anyCommon(MarkerMask[SrcSlot]) &&
                     !MS.HoistSome.anyCommon(KeyMask[SrcSlot]);
        if (!SrcSound && E)
          E->RecoveryNote = "rejected: source variable '" +
                            Info.var(Src).Name +
                            "' is itself endangered at the marker";
      }
    }
    if (SrcSound) {
      C.Kind = VarClass::Current;
      C.Recoverable = true;
      C.Recovery = Markers[DeadAllMarker].Recovery;
      C.CulpritStmt = Markers[DeadAllMarker].Stmt;
      return Done("recovery (paper 2.5)");
    }
  } else if (E && DeadAll) {
    if (!EnableRecovery)
      E->RecoveryNote = "not attempted: recovery disabled";
    else if (DeadAllCount != 1)
      E->RecoveryNote =
          "not attempted: multiple eliminated assignments reach on all paths";
    else if (Markers[DeadAllMarker].Recovery.K == MRecovery::Kind::None)
      E->RecoveryNote =
          "not attempted: the eliminated value survives nowhere";
    else
      E->RecoveryNote =
          "not attempted: the surviving copy is overwritten by this point";
  }

  // 3. Residence (the conservative live-range model of [3]).
  bool Resident = true;
  if (VI.Storage == StorageKind::Global) {
    Resident = true;
  } else {
    auto SIt = MF.Storage.find(V);
    if (SIt == MF.Storage.end() || SIt->second.K == VarStorage::Kind::None) {
      Resident = false;
    } else if (SIt->second.K == VarStorage::Kind::InReg) {
      auto RIt = MF.ResidentAt.find(V);
      Resident = RIt != MF.ResidentAt.end() && Addr < RIt->second.size() &&
                 RIt->second.test(Addr);
    }
  }
  if (E) {
    E->ResidenceConsulted = true;
    E->Resident = Resident;
    E->Storage = renderStorage(V);
  }
  if (!Resident) {
    C.Kind = VarClass::Nonresident;
    return Done("residence (nonresident)");
  }

  // 4. Hoist reach (Lemmas 2 and 3).
  bool HoistAll = false, HoistSome = false;
  StmtId HoistStmt = InvalidStmt;
  for (unsigned K : VKeys) {
    if (AS.HoistAll.test(K)) {
      HoistAll = true;
      HoistStmt = KeyStmt[K];
    } else if (AS.HoistSome.test(K)) {
      HoistSome = true;
      HoistStmt = KeyStmt[K];
    }
  }
  if (HoistAll) {
    C.Kind = VarClass::Noncurrent;
    C.Cause = EndangerCause::Premature;
    C.CulpritStmt = HoistStmt;
    return Done("hoist-all (Lemma 2)");
  }

  // 5. Dead reach without recovery (Lemmas 4 and 5).
  if (DeadAll) {
    C.Kind = VarClass::Noncurrent;
    C.Cause = EndangerCause::Stale;
    C.CulpritStmt = Markers[DeadAllMarker].Stmt;
    return Done("dead-all (Lemma 5)");
  }

  // 6. Suspect (Lemmas 3 and 6).
  if (HoistSome) {
    C.Kind = VarClass::Suspect;
    C.Cause = EndangerCause::MaybePremature;
    C.CulpritStmt = HoistStmt;
    return Done("hoist-some (Lemma 3)");
  }
  if (DeadSome) {
    C.Kind = VarClass::Suspect;
    C.Cause = EndangerCause::MaybeStale;
    return Done("dead-some (Lemma 6)");
  }

  C.Kind = VarClass::Current;
  return Done("current (no endangerment reaches)");
}

Explanation Classifier::explain(std::uint32_t Addr, VarId V) const {
  Explanation E;
  classify(Addr, V, &E);
  return E;
}

std::vector<Classification>
Classifier::classifyAll(std::uint32_t Addr,
                        const std::vector<VarId> &Vs) const {
  // Warm the per-address cache once, then every classify() in the sweep
  // is a pure bit-vector probe against the shared solution.
  (void)stateAt(Addr);
  std::vector<Classification> Cs;
  Cs.reserve(Vs.size());
  for (VarId V : Vs)
    Cs.push_back(classify(Addr, V));
  return Cs;
}

AvailabilitySweep
Classifier::availability(const std::vector<VarId> &Vs) const {
  const std::uint32_t N = MF.numInstrs();
  AvailabilitySweep Out;
  Out.Current.assign(Vs.size(), BitVector(N));

  // What decide() consults per variable, resolved once: the init bit,
  // the key/marker mask slot, and the residence source (always, the
  // register live-range bits, or never when both are unset).  Degraded
  // variables are never Current and stay all-zero.
  struct VarPlan {
    std::size_t Row;
    VarId V;
    bool Global;
    int InitBit;
    int Slot;
    bool AlwaysResident;
    const BitVector *ResBits;
  };
  std::vector<VarPlan> Plans;
  for (std::size_t Row = 0; Row < Vs.size(); ++Row) {
    VarId V = Vs[Row];
    if (degraded(V))
      continue;
    VarPlan P{Row, V, Info.var(V).Storage == StorageKind::Global,
              row(V).InitBit, row(V).Slot, true, nullptr};
    if (!P.Global && P.InitBit < 0)
      continue; // Untracked: Uninitialized everywhere.
    if (!P.Global) {
      auto SIt = MF.Storage.find(V);
      if (SIt == MF.Storage.end() || SIt->second.K == VarStorage::Kind::None) {
        P.AlwaysResident = false;
      } else if (SIt->second.K == VarStorage::Kind::InReg) {
        P.AlwaysResident = false;
        if (auto RIt = MF.ResidentAt.find(V); RIt != MF.ResidentAt.end())
          P.ResBits = &RIt->second;
      }
    }
    Plans.push_back(P);
  }

  AddrState S;
  for (unsigned B = 0; B < NumBlocks; ++B) {
    enterBlock(B, S);
    std::uint32_t A = MF.BlockAddr[B];
    for (const MInstr &I : MF.Blocks[B].Insts) {
      for (const VarPlan &P : Plans) {
        if (!P.Global && !S.Init.test(static_cast<unsigned>(P.InitBit)))
          continue; // Uninitialized.
        bool Current;
        if (P.Slot >= 0 && S.DeadAll.anyCommon(MarkerMask[P.Slot])) {
          // An eliminated assignment reaches on all paths: recovery
          // (§2.5) may still answer Current, so run the full decision.
          ++Out.Fallbacks;
          Current = decide(A, P.V, S, nullptr).Kind == VarClass::Current;
        } else {
          // Without an all-paths dead marker, Current means resident
          // and reached by neither a hoisted nor an eliminated
          // assignment on any path.
          Current = P.AlwaysResident ||
                    (P.ResBits && A < P.ResBits->size() &&
                     P.ResBits->test(A));
          if (Current && P.Slot >= 0)
            Current = !S.HoistSome.anyCommon(KeyMask[P.Slot]) &&
                      !S.HoistAll.anyCommon(KeyMask[P.Slot]) &&
                      !S.DeadSome.anyCommon(MarkerMask[P.Slot]);
        }
        if (Current)
          Out.Current[P.Row].set(A);
      }
      advance(I, A, S);
      ++A;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Explain mode: provenance rendering
//===----------------------------------------------------------------------===//

std::string Classifier::renderHoistKeyExpr(unsigned Key) const {
  const HoistKey &HK = MF.HoistKeys[Key];
  auto Operand = [&](const Value &Val) -> std::string {
    switch (Val.K) {
    case Value::Kind::None:
      return "";
    case Value::Kind::Temp:
      return "t" + std::to_string(Val.Id);
    case Value::Kind::Var:
      return Info.var(Val.Id).Name;
    case Value::Kind::ConstInt:
      return std::to_string(Val.IntVal);
    case Value::Kind::ConstDouble: {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%g", Val.DblVal);
      return Buf;
    }
    }
    return "";
  };
  std::string S = Info.var(HK.V).Name + " = " + opcodeName(HK.Op);
  std::string A = Operand(HK.A), B = Operand(HK.B);
  if (!A.empty())
    S += " " + A;
  if (!B.empty())
    S += ", " + B;
  return S;
}

std::string Classifier::renderRecovery(const MRecovery &R) const {
  std::string S;
  switch (R.K) {
  case MRecovery::Kind::None:
    return "";
  case MRecovery::Kind::Imm:
    S = "constant " + std::to_string(R.Imm);
    break;
  case MRecovery::Kind::FImm: {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "constant %g", R.FImm);
    S = Buf;
    break;
  }
  case MRecovery::Kind::InReg:
    S = "register " + R.R.str();
    break;
  case MRecovery::Kind::InFrame:
    if (R.Frame < 0)
      S = "global '" + Info.var(static_cast<VarId>(R.Imm)).Name + "'";
    else
      S = "frame slot " + std::to_string(R.Frame);
    break;
  }
  if (R.SrcVar != InvalidVar)
    S += " (variable '" + Info.var(R.SrcVar).Name + "')";
  if (R.Scale != 1)
    S += " scaled by 1/" + std::to_string(R.Scale);
  if (R.IsIV)
    S += " [loop-invariant relation]";
  return S;
}

std::string Classifier::renderStorage(VarId V) const {
  if (Info.var(V).Storage == StorageKind::Global)
    return "global memory";
  auto It = MF.Storage.find(V);
  if (It != MF.Storage.end()) {
    switch (It->second.K) {
    case VarStorage::Kind::InReg:
      return "register " + It->second.R.str();
    case VarStorage::Kind::Frame:
      return "frame slot " + std::to_string(It->second.Frame);
    case VarStorage::Kind::GlobalMem:
      return "global memory";
    case VarStorage::Kind::None:
      break;
    }
  }
  return "no storage home (never materialized)";
}

std::string Classifier::renderExplainText(const Explanation &X) const {
  const std::string &Name = Info.var(X.V).Name;
  const FuncInfo &FI = Info.func(MF.Id);
  std::string S;

  S += "explain '" + Name + "' at " + MF.Name + "+" + std::to_string(X.Addr);
  for (StmtId St = 0; St < MF.StmtAddr.size(); ++St)
    if (MF.StmtAddr[St] >= 0 &&
        MF.StmtAddr[St] == static_cast<std::int32_t>(X.Addr)) {
      S += " (stmt " + std::to_string(St);
      if (St < FI.Stmts.size() && FI.Stmts[St].Loc.isValid())
        S += ", line " + std::to_string(FI.Stmts[St].Loc.Line);
      S += ")";
      break;
    }
  S += "\n";

  S += "verdict: ";
  S += varClassName(X.Result.Kind);
  if (X.Result.Cause != EndangerCause::None) {
    S += " (";
    S += endangerCauseName(X.Result.Cause);
    S += ")";
  }
  if (X.Result.Recoverable)
    S += " [recoverable]";
  if (X.Result.Degraded)
    S += " [degraded]";
  S += "\n";

  S += "provenance:\n";

  if (X.DegradedPath) {
    S += "  degraded: the debug annotations for this variable failed "
         "integrity verification; fail-safe path used\n";
    for (const AnnotationFinding &F : X.Findings)
      S += "    finding: " + F.Message + "\n";
  }

  if (X.GlobalAssumedInit)
    S += "  init-reach: '" + Name + "' is a global, assumed initialized\n";
  else if (!X.InitTracked)
    S += "  init-reach: the function never assigns '" + Name + "'\n";
  else if (!X.InitReached)
    S += "  init-reach: no definition of '" + Name +
         "' reaches this point\n";
  else
    S += "  init-reach: a definition of '" + Name + "' reaches this point\n";

  if (X.DegradedPath) {
    // Degraded verdicts come from the storage table alone; the normal
    // chain below was distrusted wholesale.
    S += "  storage: " + X.Storage + "\n";
    S += "  hoist-reach, dead-reach, residence, recovery: distrusted "
         "(annotations failed verification)\n";
  } else {
    const bool InitDecided = X.Result.Kind == VarClass::Uninitialized;

    S += "  recovery (paper 2.5): ";
    if (InitDecided) {
      S += "not consulted (decided at init-reach)";
    } else if (X.Result.Recoverable) {
      S += "expected value recovered";
      for (const Explanation::DeadFact &D : X.Deads)
        if (D.AllPath && !D.Recovery.empty()) {
          S += " from " + D.Recovery;
          break;
        }
    } else if (!X.RecoveryNote.empty()) {
      S += X.RecoveryNote;
    } else if (!X.RecoveryEnabled) {
      S += "disabled";
    } else {
      S += "no eliminated assignment of '" + Name +
           "' reaches on all paths";
    }
    S += "\n";

    S += "  residence: ";
    if (X.Result.Recoverable)
      S += "supplied by the recovery source";
    else if (!X.ResidenceConsulted)
      S += "not consulted (decided earlier)";
    else
      S += X.Storage + (X.Resident ? " -- resident here"
                                   : " -- not resident here");
    S += "\n";

    if (X.Hoists.empty()) {
      S += "  hoist-reach: no hoisted assignment of '" + Name +
           "' exists\n";
    } else {
      S += "  hoist-reach:\n";
      for (const Explanation::HoistFact &H : X.Hoists) {
        S += "    key#" + std::to_string(H.Key) + " '" + H.Expr + "'";
        if (H.Stmt != InvalidStmt)
          S += " (stmt " + std::to_string(H.Stmt) + ")";
        S += ": ";
        if (H.AllPath)
          S += "hoisted instance reaches on ALL paths [Lemma 2]";
        else if (H.SomePath)
          S += "hoisted instance reaches on SOME paths [Lemma 3]";
        else
          S += "no hoisted instance reaches";
        S += "\n";
      }
    }

    if (X.Deads.empty()) {
      S += "  dead-reach: no eliminated assignment of '" + Name +
           "' exists\n";
    } else {
      S += "  dead-reach:\n";
      for (const Explanation::DeadFact &D : X.Deads) {
        S += "    marker@" + MF.Name + "+" + std::to_string(D.MarkerAddr);
        if (D.Stmt != InvalidStmt)
          S += " (stmt " + std::to_string(D.Stmt) + ")";
        S += ": ";
        if (D.AllPath)
          S += "eliminated assignment reaches on ALL paths [Lemma 5]";
        else if (D.SomePath)
          S += "eliminated assignment reaches on SOME paths [Lemma 6]";
        else
          S += "does not reach";
        if (!D.Recovery.empty()) {
          S += "; value survives in " + D.Recovery;
          S += D.RecoveryValidHere ? " (valid here)" : " (not valid here)";
        }
        S += "\n";
      }
    }
  }

  S += "rule: " + X.Rule + "\n";
  std::string W = warningText(X.Result, X.V);
  S += "warning: " + (W.empty() ? std::string("none") : W) + "\n";
  return S;
}

std::string Classifier::renderExplainJson(const Explanation &X) const {
  std::string S = "{";
  auto Raw = [&S](const char *K, const std::string &V) {
    appendJsonString(S, K);
    S += ':';
    S += V;
  };
  auto Str = [&S](const char *K, const std::string &V) {
    appendJsonString(S, K);
    S += ':';
    appendJsonString(S, V);
  };
  auto Bool = [&Raw](const char *K, bool V) { Raw(K, V ? "true" : "false"); };
  auto Stmt = [](StmtId St) {
    return St == InvalidStmt ? std::string("-1") : std::to_string(St);
  };

  Str("var", Info.var(X.V).Name);
  S += ',';
  Raw("varId", std::to_string(X.V));
  S += ',';
  Str("function", MF.Name);
  S += ',';
  Raw("addr", std::to_string(X.Addr));
  S += ',';

  S += "\"verdict\":{";
  Str("class", varClassName(X.Result.Kind));
  S += ',';
  Str("cause", endangerCauseName(X.Result.Cause));
  S += ',';
  Raw("culpritStmt", Stmt(X.Result.CulpritStmt));
  S += ',';
  Bool("recoverable", X.Result.Recoverable);
  S += ',';
  Bool("degraded", X.Result.Degraded);
  S += ',';
  Str("warning", warningText(X.Result, X.V));
  S += "},";

  Bool("degradedPath", X.DegradedPath);
  S += ',';
  S += "\"findings\":[";
  for (std::size_t I = 0; I < X.Findings.size(); ++I) {
    if (I)
      S += ',';
    appendJsonString(S, X.Findings[I].Message);
  }
  S += "],";

  S += "\"init\":{";
  Bool("globalAssumed", X.GlobalAssumedInit);
  S += ',';
  Bool("tracked", X.InitTracked);
  S += ',';
  Bool("reached", X.InitReached);
  S += "},";

  S += "\"recovery\":{";
  Bool("enabled", X.RecoveryEnabled);
  S += ',';
  Bool("attempted", X.RecoveryAttempted);
  S += ',';
  Str("note", X.RecoveryNote);
  S += "},";

  S += "\"residence\":{";
  Bool("consulted", X.ResidenceConsulted);
  S += ',';
  Bool("resident", X.Resident);
  S += ',';
  Str("storage", X.Storage);
  S += "},";

  S += "\"hoistReach\":[";
  for (std::size_t I = 0; I < X.Hoists.size(); ++I) {
    const Explanation::HoistFact &H = X.Hoists[I];
    if (I)
      S += ',';
    S += '{';
    Raw("key", std::to_string(H.Key));
    S += ',';
    Raw("stmt", Stmt(H.Stmt));
    S += ',';
    Str("expr", H.Expr);
    S += ',';
    Bool("somePath", H.SomePath);
    S += ',';
    Bool("allPath", H.AllPath);
    S += '}';
  }
  S += "],";

  S += "\"deadReach\":[";
  for (std::size_t I = 0; I < X.Deads.size(); ++I) {
    const Explanation::DeadFact &D = X.Deads[I];
    if (I)
      S += ',';
    S += '{';
    Raw("marker", std::to_string(D.Marker));
    S += ',';
    Raw("stmt", Stmt(D.Stmt));
    S += ',';
    Raw("addr", std::to_string(D.MarkerAddr));
    S += ',';
    Bool("somePath", D.SomePath);
    S += ',';
    Bool("allPath", D.AllPath);
    S += ',';
    Str("recovery", D.Recovery);
    S += ',';
    Bool("validHere", D.RecoveryValidHere);
    S += '}';
  }
  S += "],";

  Str("rule", X.Rule);
  S += '}';
  return S;
}

std::string Classifier::warningText(const Classification &C, VarId V) const {
  const std::string &Name = Info.var(V).Name;
  auto StmtRef = [&](StmtId S) {
    return S == InvalidStmt ? std::string("an optimized statement")
                            : "statement " + std::to_string(S);
  };
  if (C.Degraded)
    return "'" + Name + "' is " + varClassName(C.Kind) +
           " (conservative: the debug annotations for this variable "
           "failed integrity verification)";
  switch (C.Kind) {
  case VarClass::Current:
    return "";
  case VarClass::Uninitialized:
    return "'" + Name + "' is uninitialized here";
  case VarClass::Nonresident:
    return "value of '" + Name +
           "' is unavailable (register reused by the allocator)";
  case VarClass::Noncurrent:
    if (C.Cause == EndangerCause::Premature)
      return "'" + Name + "' is noncurrent: the assignment at " +
             StmtRef(C.CulpritStmt) + " has already executed (hoisted)";
    if (C.Recoverable)
      return "'" + Name + "' is noncurrent: the assignment at " +
             StmtRef(C.CulpritStmt) +
             " was eliminated; expected value recovered from a temporary";
    return "'" + Name + "' is noncurrent: the assignment at " +
           StmtRef(C.CulpritStmt) +
           " was eliminated; the displayed value is stale";
  case VarClass::Suspect:
    if (C.Cause == EndangerCause::MaybePremature)
      return "'" + Name + "' is suspect: the assignment at " +
             StmtRef(C.CulpritStmt) +
             " may have executed prematurely on the path taken";
    return "'" + Name +
           "' is suspect: an eliminated assignment may make this value "
           "stale on the path taken";
  }
  return "";
}
