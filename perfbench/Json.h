//===- perfbench/Json.h - Minimal JSON reader and writer helpers ----------===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Just enough JSON for the benchmark: a strict reader that checks the
/// shape of the "sldb-dwarf-0" debug-info export while the avail_ratio
/// metric is computed from it, and the escaping and number formatting the
/// result lines use.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_JSON_H
#define PERFBENCH_JSON_H

#include <string>
#include <string_view>

namespace perfbench {

/// Availability coverage of one debug-info export: the summed widths of
/// every variable's availability ranges, and the summed num_instrs x
/// variables of every function.
struct AvailCoverage {
  double AvailInstrs = 0;
  double TotalInstrs = 0;
};

/// Schema-checks an "sldb-dwarf-0" export and adds its coverage to
/// \p Cov.  Returns false when the text is not a well-formed export.
bool addAvailCoverage(std::string_view Export, AvailCoverage &Cov);

/// Quotes and escapes \p S as a JSON string.
std::string jsonQuote(std::string_view S);

/// Formats a metric value with all its significant digits.
std::string jsonNumber(double V);

} // namespace perfbench

#endif // PERFBENCH_JSON_H
