//===- codegen/Scheduler.h - Local list scheduling --------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Local (basic-block) list scheduling for the R3K pipeline model
/// (paper Table 1: "Instruction scheduling").  Annotations move with the
/// instructions they decorate.  Debug markers, branches, calls and
/// statement starts are scheduling barriers: instructions are reordered
/// only within one statement, so the gen/kill positions of the
/// debugger's analyses stay exact and a statement's breakpoint never
/// precedes an earlier statement's code.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_CODEGEN_SCHEDULER_H
#define SLDB_CODEGEN_SCHEDULER_H

#include "codegen/MachineIR.h"

namespace sldb {

/// Schedules every block of \p MF in place (virtual-register code;
/// run before register allocation).
void scheduleFunction(MachineFunction &MF);

} // namespace sldb

#endif // SLDB_CODEGEN_SCHEDULER_H
