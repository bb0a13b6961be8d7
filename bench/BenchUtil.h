//===- bench/BenchUtil.h - Shared benchmark helpers -------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the per-table/per-figure benchmark binaries: each
/// binary first regenerates its table/figure (printed to stdout in the
/// paper's row format), then runs google-benchmark timings of the
/// machinery behind it.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_BENCH_BENCHUTIL_H
#define SLDB_BENCH_BENCHUTIL_H

#include "eval/Levels.h"
#include "ir/IRGen.h"

#include "bench/BenchSnapshot.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

namespace sldb::bench {

inline std::unique_ptr<IRModule> compile(std::string_view Src) {
  DiagnosticEngine Diags;
  auto M = compileToIR(Src, Diags);
  if (!M) {
    std::fprintf(stderr, "benchmark source failed to compile:\n%s\n",
                 Diags.str().c_str());
    std::abort();
  }
  return M;
}

/// Builds \p Src at \p Level; a benchmark source that does not build is
/// a library bug.
inline CompiledModule build(std::string_view Src, const LevelSpec &Level) {
  Expected<CompiledModule> CM = compileModule(Src, Level);
  if (!CM) {
    std::fprintf(stderr, "benchmark source failed to build at %s: %s\n",
                 Level.Name, CM.status().str().c_str());
    std::abort();
  }
  return std::move(*CM);
}

inline void rule(char C = '-', int Width = 72) {
  for (int I = 0; I < Width; ++I)
    std::putchar(C);
  std::putchar('\n');
}

/// Standard main: print the table (via \p PrintTable), then run timings.
/// Accepts --json=FILE (consumed before google-benchmark sees argv).
#define SLDB_BENCH_MAIN(PrintTable)                                           \
  int main(int argc, char **argv) {                                           \
    ::sldb::bench::parseSnapshotFlag(argc, argv);                             \
    PrintTable();                                                             \
    ::benchmark::Initialize(&argc, argv);                                     \
    ::benchmark::RunSpecifiedBenchmarks();                                    \
    return 0;                                                                 \
  }

} // namespace sldb::bench

#endif // SLDB_BENCH_BENCHUTIL_H
