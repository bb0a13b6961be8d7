//===- codegen/RegAlloc.cpp -----------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/RegAlloc.h"

#include "analysis/Dataflow.h"
#include "support/Casting.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace sldb;

std::vector<Reg> sldb::minstrUses(const MInstr &I) {
  std::vector<Reg> Uses;
  forEachMUse(I, [&](const Reg &R) { Uses.push_back(R); });
  return Uses;
}

std::vector<Reg> sldb::minstrDefs(const MInstr &I) {
  std::vector<Reg> Defs;
  forEachMDef(I, [&](const Reg &R) { Defs.push_back(R); });
  return Defs;
}

namespace {

/// Register allocator state for one class within one function.
class Allocator {
public:
  Allocator(MachineFunction &MF, const ProgramInfo &Info) : MF(MF) {
    (void)Info;
    // Variable-homing vregs must not coalesce: their live range *is* the
    // debugger's residence information.
    for (const auto &[V, S] : MF.Storage)
      if (S.K == VarStorage::Kind::InReg)
        NoCoalesce.insert(key(S.R));
    // Recovery-source vregs must not coalesce either.  Coalescing
    // rewrites move-related vregs in the code itself, so once a marker's
    // recovery source merges with a sibling value, a def of the merged
    // register is indistinguishable from a def of the source and the
    // ownership analysis (computeDebugTables) certifies the recovery
    // while the register holds the sibling's value — the fuzzer found a
    // marker recovering another branch's constant this way.  Keeping the
    // source un-merged makes "def of the source's value" exactly "def
    // whose pre-rewrite destination is the source vreg"; every other
    // value colored into the register kills ownership.
    for (MachineBlock &B : MF.Blocks)
      for (MInstr &I : B.Insts) {
        if (I.Dest.isValid() && I.Dest.isVirtual())
          I.DestVreg = I.Dest;
        if (I.Recovery.K == MRecovery::Kind::InReg &&
            I.Recovery.R.isVirtual()) {
          I.Recovery.SrcVreg = I.Recovery.R;
          NoCoalesce.insert(key(I.Recovery.R));
        }
      }
  }

  /// Runs allocation for both classes; returns false if it failed to
  /// converge (should not happen).
  bool run();

  /// Per-address live sets of all virtual registers computed on the final
  /// (pre-rewrite) code; used for residence tables.  Valid after run().
  void computeDebugTables();

  /// Set when rewrite() met a virtual register the coloring never saw;
  /// the function's code is unusable and the caller must discard it.
  bool RewriteFailed = false;

private:
  static std::uint64_t key(const Reg &R) {
    return (static_cast<std::uint64_t>(R.Cls == RegClass::Fp) << 32) | R.N;
  }
  static unsigned numColors(RegClass Cls) {
    return Cls == RegClass::Int
               ? R3K::LastAllocInt - R3K::FirstAllocInt + 1
               : R3K::LastAllocFp - R3K::FirstAllocFp + 1;
  }
  static unsigned firstColor(RegClass Cls) {
    return Cls == RegClass::Int ? R3K::FirstAllocInt : R3K::FirstAllocFp;
  }

  bool allocateClass(RegClass Cls);
  void livenessPerBlock(
      RegClass Cls,
      const std::unordered_map<std::uint64_t, unsigned> &IdOf, unsigned NR,
      std::vector<BitVector> &LiveOut) const;
  void spill(const std::unordered_set<std::uint64_t> &ToSpill,
             RegClass Cls);
  void rewrite(const std::unordered_map<std::uint64_t, unsigned> &Color,
               RegClass Cls);

  MachineFunction &MF;
  std::unordered_set<std::uint64_t> NoCoalesce;
  std::unordered_map<std::uint64_t, std::int32_t> SpillSlot;
};

} // namespace

void Allocator::livenessPerBlock(
    RegClass Cls,
    const std::unordered_map<std::uint64_t, unsigned> &IdOf, unsigned NR,
    std::vector<BitVector> &LiveOut) const {
  const unsigned N = static_cast<unsigned>(MF.Blocks.size());
  // One instruction walk total: summarize each block as upward-exposed
  // uses and defs, then run the word-parallel fixpoint on the summaries
  // (In = Use ∪ (Out − Def), identical to the per-instruction backward
  // walk it replaces).
  std::vector<BitVector> Use(N, BitVector(NR)), Def(N, BitVector(NR));
  for (unsigned B = 0; B < N; ++B) {
    BitVector &U = Use[B], &D = Def[B];
    const auto &Insts = MF.Blocks[B].Insts;
    for (auto It = Insts.rbegin(); It != Insts.rend(); ++It) {
      forEachMDef(*It, [&](const Reg &R) {
        if (R.Cls == Cls) {
          unsigned Id = IdOf.at(key(R));
          U.reset(Id);
          D.set(Id);
        }
      });
      forEachMUse(*It, [&](const Reg &R) {
        if (R.Cls == Cls)
          U.set(IdOf.at(key(R)));
      });
    }
  }

  std::vector<BitVector> LiveIn(N, BitVector(NR));
  LiveOut.assign(N, BitVector(NR));
  BitVector Out(NR), In(NR);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned Step = 0; Step < N; ++Step) {
      unsigned B = N - 1 - Step;
      Out.reset();
      for (unsigned S : MF.Blocks[B].Succs)
        Out |= LiveIn[S];
      In = Out;
      In.subtract(Def[B]);
      In |= Use[B];
      if (In != LiveIn[B] || Out != LiveOut[B]) {
        std::swap(LiveIn[B], In);
        std::swap(LiveOut[B], Out);
        Changed = true;
      }
    }
  }
}

bool Allocator::allocateClass(RegClass Cls) {
  const unsigned K = numColors(Cls);

  for (int Round = 0; Round < 24; ++Round) {
    // --- Dense numbering of this class's registers.  All downstream
    // decision order is by register key (see the Virtuals sort), so the
    // enumeration order itself carries no meaning.
    std::unordered_map<std::uint64_t, unsigned> IdOf;
    std::vector<Reg> RegOf;
    auto Id = [&](const Reg &R) {
      auto [It, New] =
          IdOf.emplace(key(R), static_cast<unsigned>(RegOf.size()));
      if (New)
        RegOf.push_back(R);
      return It->second;
    };
    for (const MachineBlock &B : MF.Blocks)
      for (const MInstr &I : B.Insts) {
        forEachMDef(I, [&](const Reg &D) {
          if (D.Cls == Cls)
            Id(D);
        });
        forEachMUse(I, [&](const Reg &U) {
          if (U.Cls == Cls)
            Id(U);
        });
      }
    const unsigned NR = static_cast<unsigned>(RegOf.size());

    std::vector<BitVector> LiveOut;
    livenessPerBlock(Cls, IdOf, NR, LiveOut);

    // --- Interference graph as a dense adjacency bit-matrix.
    std::vector<BitVector> Adj(NR, BitVector(NR));
    std::vector<unsigned> Weight(NR, 0); // Spill cost.
    auto AddEdge = [&](unsigned A, unsigned B) {
      if (A == B)
        return;
      Adj[A].set(B);
      Adj[B].set(A);
    };

    std::vector<std::pair<unsigned, unsigned>> MoveEdges;
    for (unsigned B = 0; B < MF.Blocks.size(); ++B) {
      BitVector Live = LiveOut[B];
      auto &Insts = MF.Blocks[B].Insts;
      for (auto It = Insts.rbegin(); It != Insts.rend(); ++It) {
        const MInstr &I = *It;
        bool IsMove = (I.Op == MOp::MOV && Cls == RegClass::Int) ||
                      (I.Op == MOp::FMOV && Cls == RegClass::Fp);
        unsigned MoveSrc = ~0u, MoveDst = ~0u;
        if (IsMove && I.Src0.isValid())
          MoveSrc = IdOf.at(key(I.Src0));
        if (IsMove && I.Dest.isValid())
          MoveDst = IdOf.at(key(I.Dest));
        forEachMDef(I, [&](const Reg &D) {
          if (D.Cls != Cls)
            return;
          unsigned DK = IdOf.at(key(D));
          ++Weight[DK];
          for (unsigned L : Live)
            if (!(IsMove && L == MoveSrc && DK == MoveDst))
              AddEdge(DK, L);
        });
        forEachMDef(I, [&](const Reg &D) {
          if (D.Cls == Cls)
            Live.reset(IdOf.at(key(D)));
        });
        forEachMUse(I, [&](const Reg &U) {
          if (U.Cls != Cls)
            return;
          unsigned UK = IdOf.at(key(U));
          ++Weight[UK];
          Live.set(UK);
        });
        if (IsMove && I.Dest.isValid() && I.Src0.isValid() &&
            I.Dest.Cls == Cls && I.Dest.isVirtual() && I.Src0.isVirtual())
          MoveEdges.emplace_back(MoveDst, MoveSrc);
      }
    }

    // --- Briggs conservative coalescing.
    std::vector<unsigned> Alias(NR);
    for (unsigned N2 = 0; N2 < NR; ++N2)
      Alias[N2] = N2;
    auto Find = [&](unsigned X) {
      while (Alias[X] != X)
        X = Alias[X];
      return X;
    };
    std::vector<char> NoCo(NR, 0);
    for (unsigned N2 = 0; N2 < NR; ++N2)
      NoCo[N2] = NoCoalesce.count(key(RegOf[N2])) != 0;
    bool Coalesced = false;
    for (auto &[A0, B0] : MoveEdges) {
      unsigned A = Find(A0), B = Find(B0);
      if (A == B || NoCo[A] || NoCo[B])
        continue;
      if (Adj[A].test(B))
        continue;
      // Briggs: the merged node must have < K neighbors of significant
      // degree.
      BitVector Union = Adj[A];
      Union |= Adj[B];
      unsigned Significant = 0;
      for (unsigned N2 : Union)
        if (Adj[Find(N2)].count() >= K)
          ++Significant;
      if (Significant >= K)
        continue;
      // Merge B into A.  (A is not adjacent to B, so updating row A while
      // iterating row B is safe.)
      for (unsigned N2 : Adj[B]) {
        Adj[N2].reset(B);
        if (N2 != A) {
          Adj[N2].set(A);
          Adj[A].set(N2);
        }
      }
      Adj[B].reset();
      Weight[A] += Weight[B];
      Alias[B] = A;
      Coalesced = true;
    }
    if (Coalesced) {
      // Rewrite aliases in the code and delete identity moves, then
      // restart the round with a clean graph.
      for (MachineBlock &Blk : MF.Blocks) {
        for (auto It = Blk.Insts.begin(); It != Blk.Insts.end();) {
          auto Fix = [&](Reg &R) {
            if (!R.isValid() || R.Cls != Cls || !R.isVirtual())
              return;
            auto IIt = IdOf.find(key(R));
            if (IIt == IdOf.end())
              return; // Not in the graph (e.g. dead recovery source).
            R = RegOf[Find(IIt->second)];
          };
          Fix(It->Dest);
          Fix(It->Src0);
          Fix(It->Src1);
          Fix(It->AddrReg);
          if (It->Recovery.K == MRecovery::Kind::InReg)
            Fix(It->Recovery.R);
          bool IdentityMove =
              (It->Op == MOp::MOV || It->Op == MOp::FMOV) &&
              It->Dest == It->Src0 && It->DestVar == InvalidVar &&
              !It->IsHoisted && !It->IsSunk;
          if (IdentityMove)
            It = Blk.Insts.erase(It);
          else
            ++It;
        }
      }
      continue; // Next round rebuilds liveness and the graph.
    }

    // --- Simplify / select.
    std::vector<unsigned> Degree(NR, 0);
    for (unsigned N2 = 0; N2 < NR; ++N2)
      Degree[N2] = static_cast<unsigned>(Adj[N2].count());

    std::vector<unsigned> Stack;
    std::vector<char> Removed(NR, 0);
    // Decision order must stay keyed by register identity, not dense id.
    // Sorting (key, id) pairs directly beats an indirect comparator: the
    // keys are unique, so the order is the same.
    std::vector<std::pair<std::uint64_t, unsigned>> VKeys;
    for (unsigned N2 = 0; N2 < NR; ++N2)
      if (RegOf[N2].isVirtual())
        VKeys.emplace_back(key(RegOf[N2]), N2);
    std::sort(VKeys.begin(), VKeys.end());
    std::vector<unsigned> Virtuals;
    Virtuals.reserve(VKeys.size());
    for (const auto &[VK, N2] : VKeys)
      Virtuals.push_back(N2);

    auto RemoveNode = [&](unsigned N2) {
      Stack.push_back(N2);
      Removed[N2] = 1;
      for (unsigned M : Adj[N2])
        if (!Removed[M] && Degree[M] > 0)
          --Degree[M];
    };

    unsigned Pending = static_cast<unsigned>(Virtuals.size());
    while (Pending > 0) {
      bool Simplified = false;
      for (unsigned N2 : Virtuals) {
        if (Removed[N2] || Degree[N2] >= K)
          continue;
        RemoveNode(N2);
        --Pending;
        Simplified = true;
      }
      if (Simplified)
        continue;
      // Optimistic spill candidate: cheapest weight/degree.
      unsigned Best = ~0u;
      double BestCost = 1e300;
      for (unsigned N2 : Virtuals) {
        if (Removed[N2])
          continue;
        double Cost =
            static_cast<double>(Weight[N2]) / (Degree[N2] + 1.0);
        // Avoid re-spilling spill-code vregs (tiny ranges, huge cost).
        if (SpillSlot.count(key(RegOf[N2])))
          Cost = 1e290;
        if (Cost < BestCost) {
          BestCost = Cost;
          Best = N2;
        }
      }
      RemoveNode(Best);
      --Pending;
    }

    // Select colors.  Physical register numbers fit in a 64-bit mask.
    std::unordered_map<std::uint64_t, unsigned> Color;
    std::vector<int> ColorOf(NR, -1);
    std::unordered_set<std::uint64_t> Spilled;
    for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
      unsigned N2 = *It;
      std::uint64_t Used = 0;
      for (unsigned M : Adj[N2]) {
        if (ColorOf[M] >= 0) {
          Used |= 1ull << ColorOf[M];
          continue;
        }
        const Reg &MR = RegOf[M];
        if (!MR.isVirtual())
          Used |= 1ull << MR.N; // Precolored.
      }
      bool Assigned = false;
      for (unsigned C = firstColor(Cls); C < firstColor(Cls) + K; ++C)
        if (!(Used >> C & 1)) {
          ColorOf[N2] = static_cast<int>(C);
          Color[key(RegOf[N2])] = C;
          Assigned = true;
          break;
        }
      if (!Assigned)
        Spilled.insert(key(RegOf[N2]));
    }

    if (Spilled.empty()) {
      rewrite(Color, Cls);
      return true;
    }
    spill(Spilled, Cls);
  }
  return false;
}

void Allocator::spill(const std::unordered_set<std::uint64_t> &ToSpill,
                      RegClass Cls) {
  // Assign spill slots.
  std::unordered_map<std::uint64_t, std::int32_t> SlotOf;
  for (std::uint64_t N : ToSpill) {
    std::int32_t Slot = static_cast<std::int32_t>(MF.FrameSize++);
    SlotOf[N] = Slot;
    SpillSlot[N] = Slot;
  }
  std::uint32_t NextVReg = 1u << 20; // High range for spill temps.
  for (MachineBlock &B : MF.Blocks)
    for (std::size_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
      // Reloads before uses.  Re-reference after each insertion: the
      // instruction vector reallocates.
      auto SpillSlotOf = [&](const Reg &R) -> std::int32_t {
        if (!R.isValid() || R.Cls != Cls || !R.isVirtual())
          return -1;
        auto SIt = SlotOf.find(key(R));
        return SIt == SlotOf.end() ? -1 : SIt->second;
      };
      for (Reg MInstr::*Field :
           {&MInstr::Src0, &MInstr::Src1, &MInstr::AddrReg}) {
        std::int32_t Slot = SpillSlotOf(B.Insts[Idx].*Field);
        if (Slot < 0)
          continue;
        Reg Fresh = Reg::virt(Cls, NextVReg++ - Reg::VirtBase);
        MInstr Load;
        Load.Op = Cls == RegClass::Fp ? MOp::LD : MOp::LW;
        Load.Dest = Fresh;
        Load.FrameSlot = Slot;
        Load.Stmt = B.Insts[Idx].Stmt;
        B.Insts.insert(B.Insts.begin() + static_cast<std::ptrdiff_t>(Idx),
                       std::move(Load));
        ++Idx;
        B.Insts[Idx].*Field = Fresh;
      }
      // Marker recovery values held in a spilled register now live in the
      // spill slot.
      MInstr &I = B.Insts[Idx];
      if (I.Recovery.K == MRecovery::Kind::InReg &&
          I.Recovery.R.Cls == Cls && I.Recovery.R.isVirtual()) {
        auto SIt = SlotOf.find(key(I.Recovery.R));
        if (SIt != SlotOf.end()) {
          I.Recovery.K = MRecovery::Kind::InFrame;
          I.Recovery.Frame = SIt->second;
          I.Recovery.R = Reg::invalid();
        }
      }
      // Stores after defs.
      std::int32_t DefSlot = SpillSlotOf(B.Insts[Idx].Dest);
      if (DefSlot >= 0) {
        Reg Fresh = Reg::virt(Cls, NextVReg++ - Reg::VirtBase);
        B.Insts[Idx].Dest = Fresh;
        MInstr Store;
        Store.Op = Cls == RegClass::Fp ? MOp::SD : MOp::SW;
        Store.Src0 = Fresh;
        Store.FrameSlot = DefSlot;
        Store.Stmt = B.Insts[Idx].Stmt;
        B.Insts.insert(B.Insts.begin() + static_cast<std::ptrdiff_t>(Idx) +
                           1,
                       std::move(Store));
        ++Idx;
      }
    }

  // If a *variable-homing* vreg was spilled, the variable now lives in
  // its spill slot (always resident after init).
  for (auto &[V, S] : MF.Storage)
    if (S.K == VarStorage::Kind::InReg && S.R.isVirtual()) {
      auto SIt = SlotOf.find(key(S.R));
      if (SIt != SlotOf.end()) {
        S.K = VarStorage::Kind::Frame;
        S.Frame = SIt->second;
      }
    }
}

void Allocator::rewrite(
    const std::unordered_map<std::uint64_t, unsigned> &Color, RegClass Cls) {
  auto Fix = [&](Reg &R) {
    if (!R.isValid() || R.Cls != Cls || !R.isVirtual())
      return;
    auto It = Color.find(key(R));
    if (It == Color.end()) {
      // A vreg the coloring never saw: flag the failure and substitute an
      // in-range register so downstream passes stay memory-safe while the
      // caller discards the function.
      RewriteFailed = true;
      R = Reg::phys(Cls, Cls == RegClass::Int ? R3K::FirstAllocInt
                                              : R3K::FirstAllocFp);
      return;
    }
    R = Reg::phys(Cls, It->second);
  };
  for (MachineBlock &B : MF.Blocks)
    for (MInstr &I : B.Insts) {
      // Spill/reload code minted after construction has no recorded
      // identity yet; everything else keeps its pre-coalesce vreg.
      if (I.Dest.isValid() && I.Dest.Cls == Cls && I.Dest.isVirtual() &&
          !I.DestVreg.isValid())
        I.DestVreg = I.Dest;
      Fix(I.Dest);
      Fix(I.Src0);
      Fix(I.Src1);
      Fix(I.AddrReg);
      if (I.Recovery.K == MRecovery::Kind::InReg &&
          I.Recovery.R.Cls == Cls && I.Recovery.R.isVirtual()) {
        // A recovery value referenced only by the marker may have died
        // entirely (no node in the graph): the value is gone and the
        // expected value cannot be reconstructed (paper Â§2.5 only
        // recovers values that survive somewhere).
        auto It = Color.find(key(I.Recovery.R));
        if (It != Color.end()) {
          if (!I.Recovery.SrcVreg.isValid())
            I.Recovery.SrcVreg = I.Recovery.R;
          I.Recovery.R = Reg::phys(Cls, It->second);
        } else {
          I.Recovery = MRecovery();
        }
      }
    }
  // Storage table.
  for (auto &[V, S] : MF.Storage)
    if (S.K == VarStorage::Kind::InReg && S.R.isVirtual() &&
        S.R.Cls == Cls) {
      auto It = Color.find(key(S.R));
      if (It != Color.end())
        S.R = Reg::phys(Cls, It->second);
      else
        S.K = VarStorage::Kind::None; // Var never materialized.
    }
}

void Allocator::computeDebugTables() {
  // Layout: assign addresses.
  MF.BlockAddr.clear();
  std::uint32_t Addr = 0;
  for (MachineBlock &B : MF.Blocks) {
    MF.BlockAddr.push_back(Addr);
    Addr += static_cast<std::uint32_t>(B.Insts.size());
  }
  const std::uint32_t Total = Addr;
  const unsigned NB = static_cast<unsigned>(MF.Blocks.size());

  // Statement (syntactic breakpoint) addresses.  Preference order keeps
  // the breakpoint at the statement's *source* position even when code
  // moved (paper §5: the simple syntactic breakpoint model):
  //   1. the lowest-address instruction of the statement that was not
  //      itself hoisted or sunk — the statement's first surviving action
  //      (a call of `v = f(...)` whose dead store was eliminated must
  //      still anchor the stop *before* the call executes),
  //   2. a debug marker of the statement (the spot where an eliminated or
  //      moved assignment used to be) when nothing real survives,
  //   3. any instruction of the statement.
  MF.StmtAddr.assign(MF.NumStmts, -1);
  std::vector<int> StmtPrio(MF.NumStmts, 99);
  Addr = 0;
  for (MachineBlock &B : MF.Blocks)
    for (MInstr &I : B.Insts) {
      if (I.Stmt != InvalidStmt && I.Stmt < MF.NumStmts) {
        // Hoisted/sunk copies never define the syntactic position: if a
        // statement survives only as moved copies, it has no breakpoint
        // (it was optimized away from its source location).
        int Prio = 99;
        if (I.Op == MOp::MDEAD || I.Op == MOp::MAVAIL)
          Prio = 1;
        else if (!I.IsHoisted && !I.IsSunk && I.Op != MOp::J)
          Prio = 0; // Jumps stay at 99: structural glue, never an anchor.
        if (Prio < StmtPrio[I.Stmt]) {
          StmtPrio[I.Stmt] = Prio;
          MF.StmtAddr[I.Stmt] = static_cast<std::int32_t>(Addr);
        }
      }
      ++Addr;
    }

  // Residence of register-homed variables: V is resident at address A iff
  // every definition of V's physical register reaching A is an
  // instruction completing an assignment to V (DestVar == V).  This is a
  // forward all-paths ("must own") bit-vector problem, one bit per
  // register-homed variable — sound, and conservative at joins exactly
  // like the live-range model of [3].
  std::vector<VarId> RegVars;
  std::unordered_map<VarId, unsigned> RegVarIdx;
  for (const auto &[V, S] : MF.Storage)
    if (S.K == VarStorage::Kind::InReg) {
      RegVarIdx[V] = static_cast<unsigned>(RegVars.size());
      RegVars.push_back(V);
    }
  std::sort(RegVars.begin(), RegVars.end());
  for (unsigned Idx = 0; Idx < RegVars.size(); ++Idx)
    RegVarIdx[RegVars[Idx]] = Idx;
  const unsigned NV = static_cast<unsigned>(RegVars.size());

  std::vector<std::vector<unsigned>> Preds(NB), Succs(NB);
  std::vector<unsigned> Exits;
  for (unsigned B = 0; B < NB; ++B) {
    for (unsigned S : MF.Blocks[B].Succs)
      Succs[B].push_back(S);
    for (unsigned P : MF.Blocks[B].Preds)
      Preds[B].push_back(P);
    if (!MF.Blocks[B].Insts.empty() &&
        MF.Blocks[B].Insts.back().Op == MOp::RET)
      Exits.push_back(B);
  }

  auto RegKey = [](const Reg &R) {
    return (static_cast<std::uint64_t>(R.Cls == RegClass::Fp) << 32) | R.N;
  };

  // The three tables below are forward all-paths ("must") problems whose
  // per-instruction transfer sets, resets or keeps each bit independently
  // of the input.  Gen = f(0) and Kill = ~f(1) reproduce such a transfer
  // exactly: Out = (In - Kill) | Gen == In ? f(1) : f(0) per bit, so one
  // walk summarizes a block for every bit at once.  Walk() replays the
  // transfer from each block's entry solution and hands Visit the state
  // before each instruction (stop-before semantics).
  auto SolveMust = [&](unsigned U, const auto &Transfer) {
    DataflowProblem P;
    P.Dir = FlowDir::Forward;
    P.Meet = FlowMeet::Intersect;
    P.Universe = U;
    P.Gen.assign(NB, BitVector(U));
    P.Kill.assign(NB, BitVector(U));
    P.Boundary = BitVector(U);
    for (unsigned B = 0; B < NB; ++B) {
      BitVector Flow(U, true), Zero(U);
      std::uint32_t A = MF.BlockAddr[B];
      for (const MInstr &I : MF.Blocks[B].Insts) {
        Transfer(I, A, Flow);
        Transfer(I, A, Zero);
        ++A;
      }
      P.Gen[B] = Zero;
      P.Kill[B] = Flow;
      P.Kill[B].flip();
      P.Kill[B].subtract(P.Gen[B]);
    }
    return solveDataflowGeneric(NB, Preds, Succs, Exits, P).In;
  };
  auto Walk = [&](const std::vector<BitVector> &In, const auto &Transfer,
                  const auto &Visit) {
    for (unsigned B = 0; B < NB; ++B) {
      BitVector State = In[B];
      std::uint32_t A = MF.BlockAddr[B];
      for (const MInstr &I : MF.Blocks[B].Insts) {
        Visit(A, State);
        Transfer(I, A, State);
        ++A;
      }
    }
  };

  // The transfers below look definitions up by physical register, in
  // small per-register lists (after allocation every definition is
  // physical; anything else defines no tracked register).
  constexpr unsigned NumPhys = R3K::NumIntRegs + R3K::NumFpRegs;
  auto PhysSlot = [](const Reg &R) -> int {
    if (!R.isValid() || R.isVirtual())
      return -1;
    if (R.Cls == RegClass::Int)
      return R.N < R3K::NumIntRegs ? static_cast<int>(R.N) : -1;
    return R.N < R3K::NumFpRegs ? static_cast<int>(R3K::NumIntRegs + R.N)
                                : -1;
  };

  // Register-homed variables by home register: a definition of the
  // register sets the variable it assigns and resets the others.
  std::vector<std::vector<unsigned>> VarsOnReg(NumPhys);
  for (unsigned Idx = 0; Idx < NV; ++Idx)
    if (int P = PhysSlot(MF.Storage.at(RegVars[Idx]).R); P >= 0)
      VarsOnReg[P].push_back(Idx);
  auto OwnTransfer = [&](const MInstr &I, std::uint32_t, BitVector &Own) {
    forEachMDef(I, [&](const Reg &D) {
      int P = PhysSlot(D);
      if (P < 0)
        return;
      for (unsigned Idx : VarsOnReg[P]) {
        if (I.DestVar == RegVars[Idx] && D == I.Dest)
          Own.set(Idx);
        else
          Own.reset(Idx);
      }
    });
  };

  if (NV != 0) {
    // One walk of the code for all variables: expand the block-entry
    // solution instruction by instruction, scattering each live bit into
    // its variable's per-address residence map.
    std::vector<BitVector> Res(NV, BitVector(Total));
    Walk(SolveMust(NV, OwnTransfer), OwnTransfer,
         [&](std::uint32_t A, const BitVector &State) {
           for (unsigned Idx : State)
             Res[Idx].set(A);
         });
    for (unsigned Idx = 0; Idx < NV; ++Idx)
      MF.ResidentAt[RegVars[Idx]] = std::move(Res[Idx]);
  }

  // Recovery validity for markers whose recovery value lives in a
  // register.  Sound rule:
  //  * at the marker, the register must actually hold the recovery
  //    source's value ("ownership": the reaching definitions of the
  //    register are definitions of the source vreg), and
  //  * plain recoveries stay valid until *any* redefinition of the
  //    register (a new value of the source changes the expected value;
  //    another value recycled into the register destroys it), while
  //  * IV-invariant recoveries (paper §2.5 strength reduction) survive
  //    updates *of the source itself* but die when another value takes
  //    the register.
  // Two multi-bit problems decide every marker at once: ownership, one
  // bit per distinct (source vreg, physical register) pair, then
  // validity, one bit per plain marker that owns its register at the
  // marker.  Each costs one summary walk, one solve and one expansion
  // walk, O(code x words) plus the size of the tables.
  struct RegMarker {
    std::uint32_t Addr;
    bool IsIV;
    int Phys;      ///< PhysSlot of the recovery register.
    unsigned Pair; ///< Ownership bit.
  };
  std::vector<RegMarker> RegMarkers;
  std::map<std::pair<std::uint64_t, std::uint64_t>, unsigned> PairIdx;
  /// (source vreg key, pair) per physical register.
  std::vector<std::vector<std::pair<std::uint64_t, unsigned>>> PairsOnReg(
      NumPhys);
  std::vector<int> MarkerAt(Total, -1); ///< Address -> RegMarkers index.
  Addr = 0;
  for (const MachineBlock &B : MF.Blocks)
    for (const MInstr &I : B.Insts) {
      if (I.Op == MOp::MDEAD && I.Recovery.K == MRecovery::Kind::InReg) {
        const std::uint64_t Src = key(I.Recovery.SrcVreg);
        auto [It, New] =
            PairIdx.emplace(std::make_pair(Src, RegKey(I.Recovery.R)),
                            static_cast<unsigned>(PairIdx.size()));
        const int P = PhysSlot(I.Recovery.R);
        if (New && P >= 0)
          PairsOnReg[P].emplace_back(Src, It->second);
        MarkerAt[Addr] = static_cast<int>(RegMarkers.size());
        RegMarkers.push_back({Addr, I.Recovery.IsIV, P, It->second});
      }
      ++Addr;
    }
  if (RegMarkers.empty())
    return;
  const unsigned NP = static_cast<unsigned>(PairIdx.size());

  // Ownership of pair (Src, P) at an instruction defining P: set when
  // the definition is the source vreg's (pre-rewrite destination), reset
  // for any other value taking P.
  auto OwnershipTransfer = [&](const MInstr &CI, std::uint32_t,
                               BitVector &Own) {
    forEachMDef(CI, [&](const Reg &D) {
      int P = PhysSlot(D);
      if (P < 0)
        return;
      for (const auto &[Src, Pr] : PairsOnReg[P]) {
        if (key(CI.DestVreg) == Src && RegKey(CI.Dest) == RegKey(D))
          Own.set(Pr);
        else
          Own.reset(Pr);
      }
    });
  };

  // Expand ownership: record it at each marker, and per address for the
  // pairs IV markers read (their validity *is* ownership).
  std::vector<char> OwnsAtMarker(RegMarkers.size(), 0);
  std::vector<int> IVPairRow(NP, -1);
  std::vector<BitVector> IVOwnAt;
  for (const RegMarker &RM : RegMarkers)
    if (RM.IsIV && IVPairRow[RM.Pair] < 0) {
      IVPairRow[RM.Pair] = static_cast<int>(IVOwnAt.size());
      IVOwnAt.emplace_back(Total);
    }
  Walk(SolveMust(NP, OwnershipTransfer), OwnershipTransfer,
       [&](std::uint32_t A, const BitVector &Own) {
         if (MarkerAt[A] >= 0)
           OwnsAtMarker[MarkerAt[A]] = Own.test(RegMarkers[MarkerAt[A]].Pair);
         if (!IVOwnAt.empty())
           for (unsigned Pr : Own)
             if (IVPairRow[Pr] >= 0)
               IVOwnAt[IVPairRow[Pr]].set(A);
       });

  // Plain recovery: valid at an address iff on *every* path from the
  // function entry the marker has been passed and the register has not
  // been redefined since (a redefinition either changes the source's
  // value, altering the expected value, or recycles the register for
  // another value).  Gen at the marker, kill at any def of the register;
  // only markers that own their register at the marker take part.
  std::vector<int> ValidBit(RegMarkers.size(), -1);
  std::vector<unsigned> ValidMarker; ///< Validity bit -> RegMarkers index.
  for (unsigned M = 0; M < RegMarkers.size(); ++M)
    if (!RegMarkers[M].IsIV && OwnsAtMarker[M]) {
      ValidBit[M] = static_cast<int>(ValidMarker.size());
      ValidMarker.push_back(M);
    }
  const unsigned NVB = static_cast<unsigned>(ValidMarker.size());
  std::vector<std::vector<unsigned>> ValidOnReg(NumPhys);
  for (unsigned J = 0; J < NVB; ++J)
    if (int P = RegMarkers[ValidMarker[J]].Phys; P >= 0)
      ValidOnReg[P].push_back(J);
  auto ValidTransfer = [&](const MInstr &CI, std::uint32_t A,
                           BitVector &St) {
    if (MarkerAt[A] >= 0 && ValidBit[MarkerAt[A]] >= 0) {
      St.set(static_cast<unsigned>(ValidBit[MarkerAt[A]]));
      return;
    }
    forEachMDef(CI, [&](const Reg &D) {
      if (int P = PhysSlot(D); P >= 0)
        for (unsigned J : ValidOnReg[P])
          St.reset(J);
    });
  };
  std::vector<BitVector> Valid(RegMarkers.size(), BitVector(Total));
  if (NVB != 0)
    Walk(SolveMust(NVB, ValidTransfer), ValidTransfer,
         [&](std::uint32_t A, const BitVector &St) {
           for (unsigned J : St)
             Valid[ValidMarker[J]].set(A);
         });
  for (unsigned M = 0; M < RegMarkers.size(); ++M) {
    const RegMarker &RM = RegMarkers[M];
    MF.RecoveryValidAt[RM.Addr] =
        RM.IsIV ? IVOwnAt[IVPairRow[RM.Pair]] : std::move(Valid[M]);
  }
}

bool Allocator::run() {
  return allocateClass(RegClass::Int) && allocateClass(RegClass::Fp);
}

Status sldb::allocateRegistersE(MachineFunction &MF,
                                const ProgramInfo &Info) {
  Allocator A(MF, Info);
  if (!A.run())
    return Status::error(ErrorCode::RegAllocFailure,
                         "register allocation failed to converge on '" +
                             MF.Name + "'");
  if (A.RewriteFailed)
    return Status::error(ErrorCode::RegAllocFailure,
                         "uncolored virtual register in '" + MF.Name + "'");
  A.computeDebugTables();
  return Status::success();
}
