//===- codegen/ISel.h - Instruction selection --------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers optimized IR to R3K machine code with virtual registers,
/// transferring all debug annotations (paper §3: "during code selection,
/// annotations are transferred from nodes in the machine-independent IR to
/// the selected instructions; IR marker nodes are lowered to special
/// marker instructions").
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_CODEGEN_ISEL_H
#define SLDB_CODEGEN_ISEL_H

#include "codegen/MachineIR.h"
#include "ir/IR.h"
#include "support/Status.h"

namespace sldb {

/// Code generation options.
struct CodegenOptions {
  /// Promote eligible source variables to registers (global register
  /// allocation of user variables).  Off reproduces the paper's Figure
  /// 5(a) configuration: every variable lives in its frame slot and is
  /// always resident; on reproduces Figure 5(b).
  bool PromoteVars = true;

  /// Run the local list scheduler.
  bool Schedule = true;
};

/// Selects machine code (virtual registers) for the whole module.
/// \p CodeArena, when given, backs the instruction buffers (batch mode:
/// share the IR module's arena and reset once per corpus entry);
/// otherwise the machine module creates its own.
MachineModule selectModule(const IRModule &M, const CodegenOptions &Opts,
                           Arena *CodeArena = nullptr);

/// Full back end: selection, optional scheduling, register allocation,
/// layout, and residence-table construction.  Returns a structured error
/// (InvalidIR, RegAllocFailure) instead of asserting when the input has
/// no lowering or allocation fails; the armed FaultInjector machine
/// faults (if any) are applied to the finished module's annotations.
Expected<MachineModule> compileToMachineE(const IRModule &M,
                                          const CodegenOptions &Opts,
                                          Arena *CodeArena = nullptr);

} // namespace sldb

#endif // SLDB_CODEGEN_ISEL_H
