//===- core/DebugInfo.h - DWARF-shaped debug-info export --------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exports the debug side-tables of a compiled module in a DWARF-shaped
/// JSON form (`sldbc --debug-info=FILE`): a line table (statement →
/// address), per-variable location lists (register / frame slot /
/// `<optimized-out>` per PC range, the moral equivalent of
/// DW_AT_location + DW_OP_reg / DW_OP_fbreg), and per-variable
/// *availability* ranges — the PC intervals where the classifier of
/// Figure 1 would answer "Current".
///
/// The availability ranges are not recomputed from scratch: they come
/// from the Classifier's own availability sweep, which advances the same
/// dataflow solutions with the same transfer functions as interactive
/// queries, so the export is consistent with interactive debugging by
/// construction (tests/debug_tables_test.cpp checks every address).  Consumers (schema: "sldb-dwarf-0") get half-open
/// [lo, hi) address ranges, strictly monotone and non-overlapping per
/// list, covering [0, num_instrs) for location lists.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_CORE_DEBUGINFO_H
#define SLDB_CORE_DEBUGINFO_H

#include "codegen/MachineIR.h"

#include <string>

namespace sldb {

/// Renders the module's debug information as a JSON document (schema
/// "sldb-dwarf-0").  Deterministic: depends only on the module contents,
/// never on map iteration order or pointer values.
std::string renderDebugInfo(const MachineModule &MM);

/// Writes renderDebugInfo() to \p Path.  Returns false on I/O failure.
bool writeDebugInfoFile(const MachineModule &MM, const std::string &Path);

} // namespace sldb

#endif // SLDB_CORE_DEBUGINFO_H
