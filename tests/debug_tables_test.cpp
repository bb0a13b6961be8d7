//===- tests/debug_tables_test.cpp - Debug-table equivalence tests -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Equivalence tests for the linear-time debug tables:
///
///  * the export corpus digest: FNV-1a of renderDebugInfo() per (seed,
///    grammar, level) over a fixed generated corpus, checked against
///    tests/golden/debuginfo/corpus_digest.txt (regenerate deliberately
///    with SLDB_UPDATE_GOLDENS=1);
///  * the availability sweep against classify(): every address × local
///    must agree with `classify(A, V).Kind == Current`, also with every
///    variable degraded and with each fault point armed;
///  * the register allocator's batched recovery-validity and residence
///    tables against a reference model that solves one 1-bit problem per
///    marker (the straightforward formulation of the same rules).
///
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "codegen/ISel.h"
#include "codegen/RegAlloc.h"
#include "core/Classifier.h"
#include "core/DebugInfo.h"
#include "eval/Levels.h"
#include "fuzz/ProgramGen.h"
#include "ir/IRGen.h"
#include "opt/Pass.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

using namespace sldb;

namespace {

#ifndef SLDB_GOLDEN_DIR
#error "SLDB_GOLDEN_DIR must point at tests/golden"
#endif

/// One compiled corpus program; the IR owns the ProgramInfo the machine
/// module points at, so it outlives the machine code.
using Compiled = std::optional<CompiledModule>;

Compiled compileSeed(std::uint32_t Seed, bool Alias, const LevelSpec &L) {
  GenOptions G;
  G.Alias = Alias;
  Expected<CompiledModule> CM = compileModule(generateProgram(Seed, G), L);
  EXPECT_TRUE(CM.ok()) << "seed " << Seed << ": " << CM.status().str();
  if (!CM)
    return std::nullopt;
  return std::move(*CM);
}

const PipelineLevel CorpusLevels[] = {PipelineLevel::O2, PipelineLevel::O2Ssa,
                                      PipelineLevel::O2Frame};

std::uint64_t fnv1a(const std::string &S) {
  std::uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Export corpus digest
//===----------------------------------------------------------------------===//

TEST(DebugTables, ExportCorpusDigestIsStable) {
  // 100 seeds x {scalar, alias} x {O2, O2ssa, O2-frame}: one line per
  // export, so a mismatch names the (seed, grammar, level) that drifted.
  std::ostringstream Got;
  for (std::uint32_t Seed = 1; Seed <= 100; ++Seed)
    for (bool Alias : {false, true})
      for (PipelineLevel PL : CorpusLevels) {
        const LevelSpec &L = levelSpec(PL);
        Compiled C = compileSeed(Seed, Alias, L);
        ASSERT_TRUE(C.has_value());
        char Hex[17];
        std::snprintf(Hex, sizeof(Hex), "%016llx",
                      static_cast<unsigned long long>(
                          fnv1a(renderDebugInfo(C->MM))));
        Got << Seed << " " << (Alias ? "alias" : "scalar") << " " << L.Name
            << " " << Hex << "\n";
      }

  const std::string Path =
      std::string(SLDB_GOLDEN_DIR) + "/debuginfo/corpus_digest.txt";
  const char *Upd = std::getenv("SLDB_UPDATE_GOLDENS");
  if (Upd && *Upd && std::string(Upd) != "0") {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Got.str();
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In) << "missing golden file " << Path
                  << " (regenerate with SLDB_UPDATE_GOLDENS=1)";
  std::istringstream GotLines(Got.str());
  std::string Want, Have;
  unsigned Line = 0;
  while (std::getline(In, Want)) {
    ++Line;
    ASSERT_TRUE(static_cast<bool>(std::getline(GotLines, Have)))
        << "corpus ended early at golden line " << Line;
    EXPECT_EQ(Have, Want) << "export digest drifted at line " << Line;
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(GotLines, Have)))
      << "corpus has more exports than the golden";
}

//===----------------------------------------------------------------------===//
// Availability sweep == classify()
//===----------------------------------------------------------------------===//

/// Compiles seeds [1, Count] of both grammars at every corpus level and
/// hands each module to \p Fn.
template <typename Fn> void forEachCorpusModule(std::uint32_t Count, Fn &&F) {
  for (bool Alias : {false, true})
    for (std::uint32_t Seed = 1; Seed <= Count; ++Seed)
      for (PipelineLevel PL : CorpusLevels) {
        Compiled C = compileSeed(Seed, Alias, levelSpec(PL));
        ASSERT_TRUE(C.has_value());
        std::string Where = std::string(Alias ? "alias" : "scalar") +
                            " seed " + std::to_string(Seed) + " at " +
                            levelSpec(PL).Name;
        F(C->MM, Where);
      }
}

/// Checks every address x local of every function: the sweep's verdict
/// equals `classify(A, V).Kind == Current`.  Returns the number of
/// (address, local) pairs compared.
std::uint64_t expectSweepMatchesClassify(const MachineFunction &MF,
                                         const ProgramInfo &Info,
                                         const Classifier &C,
                                         const std::string &Where) {
  const std::vector<VarId> &Locals = Info.func(MF.Id).Locals;
  AvailabilitySweep S = C.availability(Locals);
  EXPECT_EQ(S.Current.size(), Locals.size()) << Where;
  std::uint64_t Pairs = 0;
  for (std::size_t I = 0; I < Locals.size(); ++I) {
    EXPECT_EQ(S.Current[I].size(), MF.numInstrs()) << Where;
    for (std::uint32_t A = 0; A < MF.numInstrs(); ++A, ++Pairs) {
      bool Want = C.classify(A, Locals[I]).Kind == VarClass::Current;
      if (S.Current[I].test(A) != Want) {
        ADD_FAILURE() << Where << ": " << MF.Name << " '"
                      << Info.var(Locals[I]).Name << "' at address " << A
                      << ": sweep says " << !Want << ", classify says "
                      << Want;
        return Pairs;
      }
    }
  }
  return Pairs;
}

TEST(DebugTables, AvailabilitySweepMatchesClassify) {
  std::uint64_t Pairs = 0, Current = 0;
  forEachCorpusModule(200, [&](const MachineModule &MM,
                               const std::string &Where) {
    for (const MachineFunction &MF : MM.Funcs) {
      Classifier C(MF, *MM.Info);
      Pairs += expectSweepMatchesClassify(MF, *MM.Info, C, Where);
      for (const BitVector &Row :
           C.availability(MM.Info->func(MF.Id).Locals).Current)
        Current += Row.count();
      // Degraded mode answers from the fail-safe path: never Current.
      C.degradeAllVariables();
      expectSweepMatchesClassify(MF, *MM.Info, C, Where + " (degraded)");
      for (const BitVector &Row :
           C.availability(MM.Info->func(MF.Id).Locals).Current)
        EXPECT_TRUE(Row.none()) << Where;
    }
  });
  // The corpus must exercise both verdicts heavily.
  EXPECT_GT(Pairs, 100000u);
  EXPECT_GT(Current, Pairs / 10);
  EXPECT_LT(Current, Pairs);
}

TEST(DebugTables, AvailabilitySweepMatchesClassifyUnderFaults) {
  // Every fault point the classifier can observe: the two undefended
  // classifier faults (read at analysis and transfer time) and the
  // defended annotation corruptions (applied after codegen; the
  // classifier must degrade the implicated variables).
  struct DisarmOnExit {
    ~DisarmOnExit() { FaultInjector::disarm(); }
  } Guard;
  for (const FaultPoint &FP : FaultInjector::points()) {
    if (FP.Id == FaultId::TrapVMMidRun)
      continue; // A VM fault; invisible to the classifier.
    for (bool Alias : {false, true})
      for (std::uint32_t Seed = 1; Seed <= 30; ++Seed)
        for (PipelineLevel PL : CorpusLevels) {
          std::string Where = std::string(FP.Name) + ": " +
                              (Alias ? "alias" : "scalar") + " seed " +
                              std::to_string(Seed) + " at " +
                              levelSpec(PL).Name;
          FaultInjector::arm(FP.Id, Seed);
          Compiled Comp = compileSeed(Seed, Alias, levelSpec(PL));
          ASSERT_TRUE(Comp.has_value()) << Where;
          for (const MachineFunction &MF : Comp->MM.Funcs) {
            Classifier C(MF, *Comp->MM.Info);
            expectSweepMatchesClassify(MF, *Comp->MM.Info, C, Where);
            // Arming after construction: the transfers read the fault
            // state at query time, the block-entry solutions do not.
            FaultInjector::disarm();
            Classifier Clean(MF, *Comp->MM.Info);
            FaultInjector::arm(FP.Id, Seed);
            expectSweepMatchesClassify(MF, *Comp->MM.Info, Clean,
                                       Where + " (armed late)");
          }
          FaultInjector::disarm();
        }
  }
}

//===----------------------------------------------------------------------===//
// RegAlloc recovery-validity and residence tables vs a reference model
//===----------------------------------------------------------------------===//

std::uint64_t regKey(const Reg &R) {
  return (static_cast<std::uint64_t>(R.Cls == RegClass::Fp) << 32) | R.N;
}

/// Reference model: one forward all-paths 1-bit problem over MF's final
/// code, expanded per address (stop-before semantics).  \p Transfer
/// updates the bit across one instruction.
template <typename TransferFn>
BitVector solveOneBit(const MachineFunction &MF, TransferFn &&Transfer) {
  const unsigned NB = static_cast<unsigned>(MF.Blocks.size());
  std::vector<std::vector<unsigned>> Preds(NB), Succs(NB);
  std::vector<unsigned> Exits;
  for (unsigned B = 0; B < NB; ++B) {
    Succs[B] = MF.Blocks[B].Succs;
    Preds[B] = MF.Blocks[B].Preds;
    if (!MF.Blocks[B].Insts.empty() &&
        MF.Blocks[B].Insts.back().Op == MOp::RET)
      Exits.push_back(B);
  }
  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Meet = FlowMeet::Intersect;
  P.Universe = 1;
  P.Gen.assign(NB, BitVector(1));
  P.Kill.assign(NB, BitVector(1));
  P.Boundary = BitVector(1);
  for (unsigned B = 0; B < NB; ++B) {
    BitVector Flow(1, true), Zero(1);
    for (const MInstr &I : MF.Blocks[B].Insts) {
      Transfer(I, Flow);
      Transfer(I, Zero);
    }
    P.Gen[B] = Zero;
    P.Kill[B] = Flow;
    P.Kill[B].flip();
    P.Kill[B].subtract(P.Gen[B]);
  }
  DataflowResult R = solveDataflowGeneric(NB, Preds, Succs, Exits, P);
  BitVector Expanded(MF.numInstrs());
  for (unsigned B = 0; B < NB; ++B) {
    BitVector State = R.In[B];
    std::uint32_t A = MF.BlockAddr[B];
    for (const MInstr &I : MF.Blocks[B].Insts) {
      if (State.test(0))
        Expanded.set(A);
      Transfer(I, State);
      ++A;
    }
  }
  return Expanded;
}

/// Residence of one register-homed variable: every definition of its
/// register reaching A completes an assignment to it.
BitVector referenceResidence(const MachineFunction &MF, VarId V,
                             const Reg &Home) {
  return solveOneBit(MF, [&](const MInstr &I, BitVector &Own) {
    forEachMDef(I, [&](const Reg &D) {
      if (regKey(D) != regKey(Home))
        return;
      if (I.DestVar == V && D == I.Dest)
        Own.set(0);
      else
        Own.reset(0);
    });
  });
}

/// Recovery validity of the register-recovery marker \p Marker at
/// address \p MarkerAddr: ownership of the register by the source vreg
/// (IV recoveries: validity is ownership), then for plain recoveries,
/// marker passed and register not redefined since — one 1-bit solve
/// each, per marker.
BitVector referenceRecoveryValid(const MachineFunction &MF,
                                 const MInstr &Marker,
                                 std::uint32_t MarkerAddr) {
  const Reg Src = Marker.Recovery.SrcVreg;
  const std::uint64_t PK = regKey(Marker.Recovery.R);
  auto Defines = [&](const MInstr &CI) {
    bool DefinesP = false;
    forEachMDef(CI, [&](const Reg &D) { DefinesP |= regKey(D) == PK; });
    return DefinesP;
  };
  BitVector OwnAt = solveOneBit(MF, [&](const MInstr &CI, BitVector &Own) {
    if (!Defines(CI))
      return;
    if (CI.DestVreg == Src && regKey(CI.Dest) == PK)
      Own.set(0);
    else
      Own.reset(0);
  });
  if (Marker.Recovery.IsIV)
    return OwnAt;
  if (!OwnAt.test(MarkerAddr))
    return BitVector(MF.numInstrs());
  return solveOneBit(MF, [&](const MInstr &CI, BitVector &St) {
    if (&CI == &Marker)
      St.set(0);
    else if (Defines(CI))
      St.reset(0);
  });
}

TEST(DebugTables, RegAllocTablesMatchPerMarkerReference) {
  unsigned RegMarkers = 0, ValidSomewhere = 0;
  auto Check = [&](const MachineModule &MM, const std::string &Where) {
    for (const MachineFunction &MF : MM.Funcs) {
      for (const auto &[V, St] : MF.Storage) {
        if (St.K != VarStorage::Kind::InReg)
          continue;
        auto It = MF.ResidentAt.find(V);
        ASSERT_NE(It, MF.ResidentAt.end()) << Where;
        EXPECT_TRUE(It->second == referenceResidence(MF, V, St.R))
            << Where << ": residence of '" << MM.Info->var(V).Name << "'";
      }
      std::size_t Expected = 0;
      std::uint32_t A = 0;
      for (const MachineBlock &B : MF.Blocks)
        for (const MInstr &I : B.Insts) {
          if (I.Op == MOp::MDEAD && I.Recovery.K == MRecovery::Kind::InReg) {
            ++Expected;
            ++RegMarkers;
            auto It = MF.RecoveryValidAt.find(A);
            ASSERT_NE(It, MF.RecoveryValidAt.end()) << Where;
            BitVector Want = referenceRecoveryValid(MF, I, A);
            ValidSomewhere += Want.any();
            EXPECT_TRUE(It->second == Want)
                << Where << ": recovery validity of the marker at " << A;
          }
          ++A;
        }
      EXPECT_EQ(MF.RecoveryValidAt.size(), Expected) << Where;
    }
  };
  forEachCorpusModule(200, Check);
  EXPECT_GT(RegMarkers, 200u);
  EXPECT_GT(ValidSomewhere, RegMarkers / 4);
}

} // namespace
