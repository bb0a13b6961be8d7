//===- examples/opt_report.cpp - Compiler-explorer style dump ---*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Shows the compiler's work: the IR after each optimization pass (with
// the paper's §3 bookkeeping — hoisted/sunk flags and dead/avail markers
// visible inline), then the final annotated R3K machine code with the
// statement map and per-variable storage.
//
// Build & run:  ./build/examples/opt_report
//
//===----------------------------------------------------------------------===//

#include "codegen/ISel.h"
#include "codegen/MachineIR.h"
#include "eval/Levels.h"
#include "ir/IRGen.h"
#include "ir/IRPrinter.h"
#include "opt/Pass.h"

#include <cstdio>

using namespace sldb;

int main() {
  const char *Source = R"(
    int main() {
      int u = 7; int v = 3; int y = 2; int z = 4;
      int x = u - v;
      if (u > v) {
        x = y + z;
      } else {
        u = u + 1;
      }
      x = y + z;
      int waste = x * 2;     // dead: never used
      print(x);
      print(u);
      return 0;
    }
  )";

  DiagnosticEngine Diags;
  auto Module = compileToIR(Source, Diags);
  if (!Module) {
    std::fprintf(stderr, "compile error:\n%s", Diags.str().c_str());
    return 1;
  }

  std::printf("==== IR as generated ====\n%s\n",
              printModule(*Module).c_str());

  // Run the interesting passes one at a time and dump after each.
  struct Step {
    const char *Title;
    std::unique_ptr<Pass> P;
  };
  Step Steps[] = {
      {"constant propagation + folding", createConstantPropagationPass()},
      {"local simplification", createLocalSimplifyPass()},
      {"copy propagation", createCopyPropagationPass()},
      {"partial redundancy elimination (hoisting)",
       createPartialRedundancyElimPass()},
      {"partial dead code elimination (sinking)",
       createPartialDeadCodeElimPass()},
      {"dead assignment elimination", createDeadCodeEliminationPass()},
      {"branch optimizations", createBranchOptPass()},
  };
  for (Step &S : Steps) {
    bool Changed = false;
    for (auto &F : Module->Funcs)
      Changed |= S.P->run(*F, *Module);
    if (!Changed)
      continue;
    std::printf("==== after %s ====\n%s\n", S.Title,
                printModule(*Module).c_str());
  }

  Expected<MachineModule> Machine =
      compileToMachineE(*Module, CodegenOptions());
  if (!Machine) {
    std::fprintf(stderr, "codegen error: %s\n",
                 Machine.status().str().c_str());
    return 1;
  }
  const MachineModule &MM = *Machine;
  const MachineFunction &MF = *MM.findFunc("main");
  std::printf("==== final R3K code ====\n%s\n",
              printMachineFunction(MF, MM.Info).c_str());

  std::printf("==== statement map (syntactic breakpoints) ====\n");
  for (StmtId S = 0; S < MF.StmtAddr.size(); ++S) {
    if (MF.StmtAddr[S] >= 0)
      std::printf("  s%-3u -> address %d\n", S, MF.StmtAddr[S]);
    else
      std::printf("  s%-3u -> (optimized away)\n", S);
  }

  std::printf("\n==== variable storage ====\n");
  for (VarId V : MM.Info->func(MF.Id).Locals) {
    auto It = MF.Storage.find(V);
    std::printf("  %-8s : ", MM.Info->var(V).Name.c_str());
    if (It == MF.Storage.end() ||
        It->second.K == VarStorage::Kind::None) {
      std::printf("no runtime storage (optimized away)\n");
      continue;
    }
    switch (It->second.K) {
    case VarStorage::Kind::InReg:
      std::printf("register %s\n", It->second.R.str().c_str());
      break;
    case VarStorage::Kind::Frame:
      std::printf("frame slot %d\n", It->second.Frame);
      break;
    default:
      std::printf("global memory\n");
    }
  }
  return 0;
}
