//===- tests/eval_test.cpp - Benchmark programs + harness ------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "eval/Measure.h"
#include "ir/IRGen.h"
#include "ir/Interp.h"
#include "opt/Pass.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace sldb;

namespace {

class BenchProgramTest
    : public ::testing::TestWithParam<std::size_t> {};

} // namespace

TEST(BenchPrograms, EightProgramsInTableOrder) {
  const auto &Ps = benchmarkPrograms();
  ASSERT_EQ(Ps.size(), 8u);
  const char *Expected[] = {"li",     "eqntott",  "espresso", "gcc",
                            "alvinn", "compress", "ear",      "sc"};
  for (std::size_t I = 0; I < 8; ++I)
    EXPECT_STREQ(Ps[I].Name, Expected[I]);
}

TEST_P(BenchProgramTest, CompilesAndRuns) {
  const BenchProgram &P = benchmarkPrograms()[GetParam()];
  DiagnosticEngine Diags;
  auto M = compileToIR(P.Source, Diags);
  ASSERT_TRUE(M != nullptr) << P.Name << ": " << Diags.str();
  ExecResult R = interpretIR(*M);
  EXPECT_FALSE(R.Trapped) << P.Name << ": " << R.TrapMsg;
  EXPECT_FALSE(R.Output.empty()) << P.Name;
}

TEST_P(BenchProgramTest, OptimizationPreservesBehavior) {
  const BenchProgram &P = benchmarkPrograms()[GetParam()];
  CodeQuality Q = measureCodeQuality(P);
  EXPECT_TRUE(Q.OutputsMatch) << P.Name;
  EXPECT_LT(Q.InstrOptimized, Q.InstrUnoptimized)
      << P.Name << ": optimization must reduce dynamic instructions";
}

TEST_P(BenchProgramTest, SourceStatsSane) {
  const BenchProgram &P = benchmarkPrograms()[GetParam()];
  SourceStats S = sourceStats(P);
  EXPECT_GT(S.LinesOfCode, 40u) << P.Name;
  EXPECT_GE(S.Functions, 1u);
  EXPECT_GT(S.Breakpoints, 20u);
  EXPECT_GT(S.VarsPerBreakpoint, 0.5) << P.Name;
}

TEST_P(BenchProgramTest, ClassificationAveragesSane) {
  const BenchProgram &P = benchmarkPrograms()[GetParam()];
  // Figure 5(a) configuration: global optimizations, no register
  // allocation of user variables.
  ClassAverages A =
      measureClassification(P, levelSpec(PipelineLevel::O2Frame));
  EXPECT_GT(A.Breakpoints, 0u);
  // Without promotion every initialized variable is memory-resident.
  EXPECT_EQ(A.Nonresident, 0.0) << P.Name;
  EXPECT_GT(A.Current, 0.0) << P.Name;

  // Figure 5(b): with register allocation.
  ClassAverages B =
      measureClassification(P, levelSpec(PipelineLevel::O2));
  EXPECT_GT(B.Current + B.Nonresident + B.Uninitialized + B.endangered(),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, BenchProgramTest, ::testing::Range<std::size_t>(0, 8),
    [](const ::testing::TestParamInfo<std::size_t> &Info) {
      return std::string(benchmarkPrograms()[Info.param].Name);
    });

TEST(MeasureParallel, CorpusMeasurementMatchesSerial) {
  // The pooled corpus sweep must be bit-identical to the serial
  // per-program harness: each program's measurement is thread-confined,
  // so only scheduling differs.
  const auto &Ps = benchmarkPrograms();
  std::vector<ClassAverages> Par =
      measureClassificationAll(Ps, levelSpec(PipelineLevel::O2),
                               /*EnableRecovery=*/true, /*Jobs=*/3);
  ASSERT_EQ(Par.size(), Ps.size());
  for (std::size_t I = 0; I < Ps.size(); ++I) {
    ClassAverages Ser =
        measureClassification(Ps[I], levelSpec(PipelineLevel::O2));
    EXPECT_EQ(Par[I].Breakpoints, Ser.Breakpoints) << Ps[I].Name;
    EXPECT_EQ(Par[I].Uninitialized, Ser.Uninitialized) << Ps[I].Name;
    EXPECT_EQ(Par[I].Current, Ser.Current) << Ps[I].Name;
    EXPECT_EQ(Par[I].Recovered, Ser.Recovered) << Ps[I].Name;
    EXPECT_EQ(Par[I].Noncurrent, Ser.Noncurrent) << Ps[I].Name;
    EXPECT_EQ(Par[I].Suspect, Ser.Suspect) << Ps[I].Name;
    EXPECT_EQ(Par[I].Nonresident, Ser.Nonresident) << Ps[I].Name;
  }
}

TEST(Coverage, GoldenThreeLevelReport) {
  // Debuggability coverage: integer (breakpoint, variable) class counts
  // over the eval corpus at three configurations — unoptimized (O0),
  // optimized without register promotion (Figure 5(a)), and fully
  // optimized (Figure 5(b)).  The rendered report is golden so any
  // change to how much of the corpus stays Current/Recoverable vs
  // endangered is a visible, deliberate diff.
  const auto &Ps = benchmarkPrograms();
  std::vector<CoverageCounts> Rows = {
      measureCoverage(Ps, levelSpec(PipelineLevel::O0)),
      measureCoverage(Ps, levelSpec(PipelineLevel::O2Frame)),
      measureCoverage(Ps, levelSpec(PipelineLevel::O2)),
  };
  // Structural sanity before the byte diff: every level classifies the
  // same set of source points or fewer (optimization can only remove
  // code locations), and O0 endangers nothing.
  EXPECT_EQ(Rows[0].endangered(), 0u)
      << "unoptimized code must have no endangered variables";
  EXPECT_GT(Rows[1].endangered() + Rows[1].Nonresident, 0u)
      << "optimization endangered nothing: corpus lost its point";

  std::string Got = renderCoverageReport(Rows);
  const char *Update = std::getenv("SLDB_UPDATE_GOLDENS");
  std::string Path = std::string(SLDB_GOLDEN_DIR) + "/coverage.txt";
  if (Update && *Update && std::string(Update) != "0") {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Got;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In) << "missing golden " << Path
                  << " (regenerate with SLDB_UPDATE_GOLDENS=1)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Got, Buf.str())
      << "coverage report changed; regenerate tests/golden/coverage.txt "
         "deliberately if the optimizer/classifier change is intended";
}
