//===- tests/stepping_test.cpp - Stepping / line-table oracle ---*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for source-level stepping (Debugger::stepStmt /
/// Machine::startPaused) and the stepping fuzz oracle
/// (fuzz/StepOracle.h, `sldb-fuzz --oracle=step`): the unoptimized step
/// sequence must follow source statement order, the optimized build must
/// never invent (phantom) or lose (vanished) anchored statement stops,
/// and the campaign report must be --jobs invariant.
///
//===----------------------------------------------------------------------===//

#include "codegen/ISel.h"
#include "core/Debugger.h"
#include "eval/Levels.h"
#include "fuzz/QualityCampaign.h"
#include "ir/IRGen.h"
#include "opt/Pass.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace sldb;

namespace {

// Figure programs as in tests/explain_golden_test.cpp.
const char *Fig2 = R"(
  int main() {
    int u = 7; int v = 3; int y = 2; int z = 4;
    int x = u - v;        // s4: E0
    if (u > v) {
      x = y + z;          // s6: E1
    } else {
      u = u + 1;          // s7 (hoisted E3 lands after this)
    }
    x = y + z;            // s8: E2 -> avail marker
    print(x);             // s9: Bkpt3
    print(u);
    return 0;
  }
)";

const char *Fig3 = R"(
  int main() {
    int u = 5; int v = 2; int y = 3; int z = 4;
    int x = y + z;       // s4: E0, partially dead -> sunk, marker here
    if (u > v) {
      x = u - v;         // s6: E1
      print(x);          // s7
    } else {
      print(x);          // s8 (sunk copy lands before this)
    }
    print(u);            // s9: join
    return 0;
  }
)";

const char *Fig4 = R"(
  int main() {
    int a = 7;
    int c = a;          // s1: dead (c never used) -> marker, recover=a
    print(a);           // s2
    return a;
  }
)";

/// The O0 row, unscheduled: every statement keeps its own code.
CompiledModule buildO0(std::string_view Src) {
  CompileOptions Unscheduled;
  Unscheduled.Schedule = false;
  Expected<CompiledModule> CM =
      compileModule(Src, levelSpec(PipelineLevel::O0), Unscheduled);
  EXPECT_TRUE(CM.ok()) << CM.status().str();
  return CM ? std::move(*CM) : CompiledModule();
}

//===----------------------------------------------------------------------===//
// Debugger::stepStmt unit behavior
//===----------------------------------------------------------------------===//

TEST(StepStmt, VisitsStatementsInSourceOrderAtO0) {
  const char *Src = R"(
    int main() {
      int a = 1;
      int b = 2;
      print(a + b);
      return 0;
    }
  )";
  CompiledModule Build = buildO0(Src);
  MachineModule &MM = Build.MM;
  Debugger Dbg(MM);

  // startPaused stops before executing anything, at the first statement.
  ASSERT_EQ(Dbg.startPaused(), StopReason::Breakpoint);
  std::vector<StmtId> Seq;
  auto S0 = Dbg.currentStmt();
  ASSERT_TRUE(S0.has_value());
  Seq.push_back(*S0);

  StopReason R = StopReason::Breakpoint;
  while ((R = Dbg.stepStmt()) == StopReason::Breakpoint) {
    auto S = Dbg.currentStmt();
    ASSERT_TRUE(S.has_value());
    Seq.push_back(*S);
    ASSERT_LT(Seq.size(), 64u) << "stepping never terminated";
  }
  EXPECT_EQ(R, StopReason::Exited);
  // Straight-line code: statements in source order, each exactly once.
  EXPECT_EQ(Seq, (std::vector<StmtId>{0, 1, 2, 3}));
}

TEST(StepStmt, LoopBodyVisitedOncePerIteration) {
  const char *Src = R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 3; i = i + 1) {
        s = s + i;
      }
      print(s);
      return 0;
    }
  )";
  CompiledModule Build = buildO0(Src);
  MachineModule &MM = Build.MM;
  Debugger Dbg(MM);
  ASSERT_EQ(Dbg.startPaused(), StopReason::Breakpoint);

  // Count visits per statement over the whole run.
  std::vector<unsigned> Visits(64, 0);
  auto S0 = Dbg.currentStmt();
  ASSERT_TRUE(S0.has_value());
  ++Visits[*S0];
  unsigned Steps = 0;
  StopReason R;
  while ((R = Dbg.stepStmt()) == StopReason::Breakpoint) {
    auto S = Dbg.currentStmt();
    ASSERT_TRUE(S.has_value());
    ++Visits[*S];
    ASSERT_LT(++Steps, 256u) << "stepping never terminated";
  }
  EXPECT_EQ(R, StopReason::Exited);
  // The body statement (`s = s + i`) must be visited exactly 3 times.
  const MachineFunction *MF = MM.findFunc("main");
  ASSERT_NE(MF, nullptr);
  const FuncInfo &FI = MM.Info->func(MF->Id);
  bool FoundBody = false;
  for (StmtId S = 0; S < FI.Stmts.size(); ++S)
    if (Visits[S] == 3)
      FoundBody = true;
  EXPECT_TRUE(FoundBody) << "no statement stepped exactly 3 times";
}

TEST(StepStmt, FollowsCallsIntoHelpers) {
  const char *Src = R"(
    int twice(int x) {
      return x + x;
    }
    int main() {
      int a = 5;
      print(twice(a));
      return 0;
    }
  )";
  CompiledModule Build = buildO0(Src);
  MachineModule &MM = Build.MM;
  Debugger Dbg(MM);
  ASSERT_EQ(Dbg.startPaused(), StopReason::Breakpoint);
  FuncId Main = Dbg.currentFunction();
  bool LeftMain = false;
  unsigned Steps = 0;
  StopReason R;
  while ((R = Dbg.stepStmt()) == StopReason::Breakpoint) {
    if (Dbg.currentFunction() != Main)
      LeftMain = true;
    ASSERT_LT(++Steps, 64u) << "stepping never terminated";
  }
  EXPECT_EQ(R, StopReason::Exited);
  EXPECT_TRUE(LeftMain) << "stepStmt never stopped inside the callee";
}

//===----------------------------------------------------------------------===//
// checkStepping verdict matrix (synthetic results)
//===----------------------------------------------------------------------===//

StepResult cleanResult() {
  StepResult R;
  R.Compiled = true;
  R.SrcEnd = R.OptEnd = StopReason::Exited;
  R.SrcExit = R.OptExit = 0;
  R.SrcOutput = R.OptOutput = "1\n";
  return R;
}

StepVisit visit(std::uint64_t SrcN, std::uint64_t OptN, bool HasCode,
                bool Anchored) {
  StepVisit V;
  V.Func = 0;
  V.Stmt = 2;
  V.Line = 3;
  V.SrcVisits = SrcN;
  V.OptVisits = OptN;
  V.OptHasCode = HasCode;
  V.OptAnchored = Anchored;
  return V;
}

TEST(CheckStepping, FlagsPhantomStopOnAnchoredStatement) {
  StepResult R = cleanResult();
  R.Visits.push_back(visit(1, 2, true, true));
  auto Vs = checkStepping(R);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Kind, ViolationKind::PhantomStop);
  EXPECT_EQ(Vs[0].Stmt, 2u);
}

TEST(CheckStepping, FlagsVanishedStopWhenCodeExists) {
  StepResult R = cleanResult();
  R.Visits.push_back(visit(3, 0, true, true));
  auto Vs = checkStepping(R);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Kind, ViolationKind::VanishedStop);
}

TEST(CheckStepping, HoistedAnchorIsExempt) {
  // A hoisted/sunk anchor may legally run a different number of times
  // (LICM preheader): not anchored, no phantom/vanished verdict.
  StepResult R = cleanResult();
  R.Visits.push_back(visit(1, 2, true, false));
  R.Visits.push_back(visit(3, 0, true, false));
  EXPECT_TRUE(checkStepping(R).empty());
}

TEST(CheckStepping, FoldedAwayStatementIsExempt) {
  // No code at all for the statement: legitimately optimized out.
  StepResult R = cleanResult();
  R.Visits.push_back(visit(2, 0, false, false));
  EXPECT_TRUE(checkStepping(R).empty());
}

TEST(CheckStepping, CappedRunJudgesNothing) {
  StepResult R = cleanResult();
  R.Capped = true;
  R.Visits.push_back(visit(1, 5, true, true));
  R.OptOutput = "different";
  EXPECT_TRUE(checkStepping(R).empty());
}

TEST(CheckStepping, FlagsBehaviorMismatch) {
  StepResult R = cleanResult();
  R.OptOutput = "2\n";
  auto Vs = checkStepping(R);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Kind, ViolationKind::BehaviorMismatch);
}

//===----------------------------------------------------------------------===//
// End-to-end oracle runs
//===----------------------------------------------------------------------===//

TEST(StepOracle, FigureProgramsStepClean) {
  for (const char *Src : {Fig2, Fig3, Fig4}) {
    for (bool Promote : {false, true}) {
      StepOracleOptions O;
      O.Promote = Promote;
      StepResult R = runStepLockstep(Src, O);
      ASSERT_TRUE(R.Compiled) << R.CompileError;
      EXPECT_FALSE(R.Capped);
      EXPECT_FALSE(R.Visits.empty());
      std::string Report;
      for (const Violation &V : checkStepping(R))
        Report += V.str() + "\n";
      EXPECT_TRUE(Report.empty()) << Report;
    }
  }
}

TEST(StepOracle, SingleStatementProgram) {
  StepOracleOptions O;
  StepResult R = runStepLockstep("int main() { return 0; }", O);
  ASSERT_TRUE(R.Compiled) << R.CompileError;
  EXPECT_TRUE(checkStepping(R).empty());
  EXPECT_EQ(R.SrcEnd, StopReason::Exited);
  EXPECT_EQ(R.OptEnd, StopReason::Exited);
}

TEST(StepCampaign, FuzzSliceIsSound) {
  StepCampaignConfig C;
  C.Seed = 1;
  C.Count = 40;
  C.Shrink = false;
  C.WriteFailures = false;
  C.Jobs = 2;
  StepCampaignResult R = runStepCampaign(C);
  EXPECT_TRUE(R.sound()) << renderStepCampaignReport(R);
  EXPECT_EQ(R.Programs, 40u);
  EXPECT_EQ(R.Runs, 80u); // Both promote modes.
  EXPECT_EQ(R.FailedCompiles, 0u);
  EXPECT_GT(R.StmtsChecked, 0u);
}

TEST(StepCampaign, ReportIsJobsInvariant) {
  StepCampaignConfig C;
  C.Seed = 11;
  C.Count = 12;
  C.Shrink = false;
  C.Jobs = 1;
  std::string R1 = renderStepCampaignReport(runStepCampaign(C));
  C.Jobs = 8;
  std::string R8 = renderStepCampaignReport(runStepCampaign(C));
  EXPECT_EQ(R1, R8);
}

TEST(StepCampaign, ShardsPartitionTheSeedRange) {
  StepCampaignConfig C;
  C.Seed = 1;
  C.Count = 10;
  C.Shrink = false;
  unsigned Programs = 0;
  for (unsigned I = 0; I < 3; ++I) {
    C.ShardIndex = I;
    C.ShardCount = 3;
    StepCampaignResult R = runStepCampaign(C);
    EXPECT_TRUE(R.ConfigError.empty()) << R.ConfigError;
    Programs += R.Programs;
  }
  EXPECT_EQ(Programs, 10u);
}

//===----------------------------------------------------------------------===//
// CLI surface: the sldbc REPL `s`/`step` command
//===----------------------------------------------------------------------===//

#ifdef SLDB_SLDBC_PATH

std::string runCommand(const std::string &Cmd) {
  std::string Out;
  FILE *P = popen(Cmd.c_str(), "r");
  EXPECT_TRUE(P != nullptr) << Cmd;
  if (!P)
    return Out;
  char Buf[4096];
  std::size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  pclose(P);
  return Out;
}

TEST(SldbcCli, StepCommandWalksStatements) {
  std::string Cmd = std::string("'") + SLDB_SLDBC_PATH +
                    "' --debug --cmd s --cmd s --cmd s --cmd q '"
                    SLDB_INPUT_DIR "/recovery.mc' 2>/dev/null";
  std::string Out = runCommand(Cmd);
  // First `s` starts paused at main's first statement; the next two
  // advance one statement each.
  EXPECT_NE(Out.find("stopped in main() at statement 0"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("stopped in main() at statement 1"), std::string::npos)
      << Out;
}

#endif // SLDB_SLDBC_PATH

} // namespace
