//===- tests/robustness_test.cpp - Fault-tolerance tier-1 tests -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// The failure-model contract (DESIGN.md "Failure model"):
//
//  * hostile or degenerate input produces diagnostics, never signals —
//    every file in tests/crashes/ must run through the sldbc binary to a
//    normal process exit;
//  * resource exhaustion is budgeted: parser recursion depth, VM stack,
//    and VM fuel all trap with a message naming the limit;
//  * corrupted debug annotations degrade the classifier to conservative
//    verdicts (Suspect/Nonresident, never Current, never Recoverable)
//    with a diagnostic finding, instead of asserting;
//  * the degraded path is never *less* conservative than the fault-free
//    path for the same (breakpoint, variable) query;
//  * the sldb-fuzz CLI refuses flags the chosen oracle would ignore
//    (exit 2 with a message), a stepping reproducer's printed command
//    re-judges it with the stepping oracle, and an injected-fault
//    reproducer re-judges under its fault;
//  * sldbc's -O0/-O2/--no-promote select rows of the level table, and
//    SLDB_VERIFY_EACH verifies every build.
//
//===----------------------------------------------------------------------===//

#include "codegen/ISel.h"
#include "core/Classifier.h"
#include "fuzz/CampaignDriver.h"
#include "fuzz/ProgramGen.h"
#include "ir/IRGen.h"
#include "opt/Pass.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <vector>

using namespace sldb;

namespace {

std::vector<std::string> crashCorpus() {
  std::vector<std::string> Files;
  DIR *D = opendir(SLDB_CRASH_DIR);
  if (!D)
    return Files;
  while (dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > 6 && Name.rfind(".minic") == Name.size() - 6)
      Files.push_back(std::string(SLDB_CRASH_DIR) + "/" + Name);
  }
  closedir(D);
  return Files;
}

/// Runs sldbc on \p File, returns the raw wait status (-1 on spawn
/// failure).  Output is discarded; only the exit discipline matters.
int runSldbc(const std::string &File, const std::string &ExtraArgs) {
  std::string Cmd = std::string("'") + SLDB_SLDBC_PATH + "' " + ExtraArgs +
                    " '" + File + "' > /dev/null 2>&1";
  return std::system(Cmd.c_str());
}

/// Runs \p Tool with \p Args, capturing stdout and stderr into \p Out.
/// Returns the exit status, or -1 when the process did not exit.
int runTool(const char *Tool, const std::string &Args, std::string &Out) {
  std::string Cmd = std::string("'") + Tool + "' " + Args + " 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return -1;
  char Buf[256];
  while (std::fgets(Buf, sizeof(Buf), P))
    Out += Buf;
  int St = pclose(P);
  return WIFEXITED(St) ? WEXITSTATUS(St) : -1;
}

int runFuzz(const std::string &Args, std::string &Out) {
  return runTool(SLDB_FUZZ_PATH, Args, Out);
}

int captureSldbc(const std::string &Args, std::string &Out) {
  return runTool(SLDB_SLDBC_PATH, Args, Out);
}

/// Compiles \p Src at -O2 with register promotion, the configuration
/// where every annotation kind (markers, hoist keys, recoveries) is
/// live.  Fails the surrounding test on any compile error.
std::unique_ptr<IRModule> compileOpt(const char *Src) {
  DiagnosticEngine Diags;
  auto M = compileToIR(Src, Diags);
  if (!M) {
    ADD_FAILURE() << "test program failed to compile: " << Diags.str();
    return nullptr;
  }
  Status PS = runPipelineEx(*M, OptOptions::all(), PipelineConfig());
  if (!PS.ok()) {
    ADD_FAILURE() << "pipeline failed: " << PS.str();
    return nullptr;
  }
  return M;
}

Expected<MachineModule> machineOf(const IRModule &M) {
  CodegenOptions CG;
  CG.PromoteVars = true;
  CG.Schedule = false;
  return compileToMachineE(M, CG);
}

// A program where dead-assignment elimination leaves an MDEAD marker
// with a copy recovery (same shape as the fuzz teeth tests).
const char *MarkerProgram = R"(
  int main() {
    int a = 5;
    int s = 0;
    for (int i = 0; i < 3; i = i + 1) { s = s + i; }
    int v = a;
    v = s + 1;
    print(v);
    print(a);
    return 0;
  }
)";

/// Conservativeness rank of a verdict: how little the debugger claims to
/// know.  Degrading may only move a verdict toward *higher* rank (less
/// knowledge); Noncurrent and Suspect both display a warned actual
/// value, Uninitialized and Nonresident display nothing.
int rank(const Classification &C) {
  switch (C.Kind) {
  case VarClass::Current:
    return 0;
  case VarClass::Noncurrent:
  case VarClass::Suspect:
    return 1;
  case VarClass::Uninitialized:
  case VarClass::Nonresident:
    return 2;
  }
  return 2;
}

} // namespace

//===----------------------------------------------------------------------===//
// Crash corpus: hostile input through the real driver binary
//===----------------------------------------------------------------------===//

TEST(Robustness, CrashCorpusExitsCleanly) {
  std::vector<std::string> Files = crashCorpus();
  ASSERT_FALSE(Files.empty()) << "crash corpus missing at " SLDB_CRASH_DIR;
  for (const std::string &F : Files) {
    for (const char *Mode : {"-O0", "-O2"}) {
      // The fuel bound keeps the adversarial loop/recursion programs
      // terminating; compile-error programs never reach the VM.
      int St = runSldbc(F, std::string(Mode) + " --fuel 200000");
      ASSERT_NE(St, -1) << "failed to spawn sldbc for " << F;
      EXPECT_TRUE(WIFEXITED(St))
          << F << " (" << Mode << ") killed sldbc with signal "
          << (WIFSIGNALED(St) ? WTERMSIG(St) : 0)
          << " — hostile input must produce a diagnostic, not a crash";
    }
  }
}

TEST(Robustness, FuelTrapNamesBudget) {
  std::string Cmd = std::string("'") + SLDB_SLDBC_PATH + "' -O0 --fuel 5000 '" +
                    SLDB_CRASH_DIR + "/infinite-loop.minic' 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  ASSERT_NE(P, nullptr);
  std::string Out;
  char Buf[256];
  while (std::fgets(Buf, sizeof(Buf), P))
    Out += Buf;
  int St = pclose(P);
  ASSERT_TRUE(WIFEXITED(St));
  EXPECT_EQ(WEXITSTATUS(St), 1) << Out;
  EXPECT_NE(Out.find("fuel budget 5000"), std::string::npos)
      << "trap message must name the exhausted budget, got: " << Out;
}

//===----------------------------------------------------------------------===//
// Parser recursion guard
//===----------------------------------------------------------------------===//

TEST(Robustness, ParserRecursionGuardReportsDiagnostic) {
  std::string Deep = "int main() {\n  return " + std::string(400, '(') +
                     "1" + std::string(400, ')') + ";\n}\n";
  DiagnosticEngine Diags;
  auto M = compileToIR(Deep, Diags);
  EXPECT_EQ(M, nullptr);
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("recursion limit"), std::string::npos)
      << Diags.str();
}

TEST(Robustness, ShallowNestingStillParses) {
  std::string Ok = "int main() {\n  return " + std::string(50, '(') + "1" +
                   std::string(50, ')') + ";\n}\n";
  DiagnosticEngine Diags;
  EXPECT_NE(compileToIR(Ok, Diags), nullptr) << Diags.str();
}

//===----------------------------------------------------------------------===//
// Structured errors instead of asserts
//===----------------------------------------------------------------------===//

TEST(Robustness, TooManyCallArgsIsStatusNotAssert) {
  const char *Src = R"(
    int wide(int a, int b, int c, int d, int e, int f, int g,
             int h, int i, int j) {
      return a + j;
    }
    int main() { return wide(1, 2, 3, 4, 5, 6, 7, 8, 9, 10); }
  )";
  DiagnosticEngine Diags;
  auto M = compileToIR(Src, Diags);
  ASSERT_NE(M, nullptr) << Diags.str();
  CodegenOptions CG;
  Expected<MachineModule> MM = compileToMachineE(*M, CG);
  ASSERT_FALSE(static_cast<bool>(MM));
  EXPECT_FALSE(MM.status().str().empty());
}

//===----------------------------------------------------------------------===//
// Degraded mode: corrupted annotations yield conservative verdicts
//===----------------------------------------------------------------------===//

TEST(Robustness, CorruptedMarkerDegradesInsteadOfAsserting) {
  auto M = compileOpt(MarkerProgram);
  ASSERT_NE(M, nullptr);
  Expected<MachineModule> MME = machineOf(*M);
  ASSERT_TRUE(static_cast<bool>(MME)) << MME.status().str();
  MachineModule &MM = *MME;

  // Deliberately destroy one dead marker (the DropDeadMarker injection,
  // applied by hand): the census no longer matches, which is
  // unattributable damage, so the whole function must degrade.
  MachineFunction *Victim = nullptr;
  for (MachineFunction &MF : MM.Funcs)
    for (MachineBlock &B : MF.Blocks)
      for (MInstr &I : B.Insts)
        if (I.Op == MOp::MDEAD && !Victim) {
          I.Op = MOp::MNOP;
          I.MarkVar = InvalidVar;
          Victim = &MF;
        }
  ASSERT_NE(Victim, nullptr) << "program must produce an MDEAD marker";

  Classifier C(*Victim, *MM.Info);
  EXPECT_FALSE(C.annotationFindings().empty())
      << "the verifier must report the marker-census mismatch";

  unsigned Queries = 0;
  for (std::size_t S = 0; S < Victim->StmtAddr.size(); ++S) {
    if (Victim->StmtAddr[S] < 0)
      continue;
    auto Addr = static_cast<std::uint32_t>(Victim->StmtAddr[S]);
    for (VarId V : MM.Info->func(Victim->Id).Locals) {
      if (!MM.Info->var(V).isScalar())
        continue;
      Classification R = C.classify(Addr, V);
      ++Queries;
      EXPECT_TRUE(C.degraded(V));
      EXPECT_TRUE(R.Degraded);
      EXPECT_NE(R.Kind, VarClass::Current)
          << "degraded verdicts must never claim Current";
      EXPECT_FALSE(R.Recoverable)
          << "degraded verdicts must never trust recovery records";
    }
  }
  EXPECT_GT(Queries, 0u);
}

TEST(Robustness, CorruptedMarkerStmtDegradesOnlyItsVariable) {
  auto M = compileOpt(MarkerProgram);
  ASSERT_NE(M, nullptr);
  Expected<MachineModule> MME = machineOf(*M);
  ASSERT_TRUE(static_cast<bool>(MME)) << MME.status().str();
  MachineModule &MM = *MME;

  MachineFunction *Victim = nullptr;
  VarId Damaged = InvalidVar;
  for (MachineFunction &MF : MM.Funcs)
    for (MachineBlock &B : MF.Blocks)
      for (MInstr &I : B.Insts)
        if (I.Op == MOp::MDEAD && !Victim) {
          I.MarkStmt = 0xFFFF; // Out of the function's statement range.
          Damaged = I.MarkVar;
          Victim = &MF;
        }
  ASSERT_NE(Victim, nullptr);
  ASSERT_NE(Damaged, InvalidVar);

  Classifier C(*Victim, *MM.Info);
  EXPECT_FALSE(C.annotationFindings().empty());
  EXPECT_TRUE(C.degraded(Damaged))
      << "the marker's variable must enter degraded mode";
  bool OthersIntact = false;
  for (VarId V : MM.Info->func(Victim->Id).Locals)
    if (V != Damaged && !C.degraded(V))
      OthersIntact = true;
  EXPECT_TRUE(OthersIntact)
      << "attributable damage must not degrade unrelated variables";
}

//===----------------------------------------------------------------------===//
// Property: degrading never makes a verdict less conservative
//===----------------------------------------------------------------------===//

TEST(Robustness, DegradedNeverLessConservativeThanFaultFree) {
  unsigned Compared = 0;
  for (std::uint32_t Seed = 1; Seed <= 25; ++Seed) {
    std::string Src = generateProgram(Seed);
    DiagnosticEngine Diags;
    auto M = compileToIR(Src, Diags);
    ASSERT_NE(M, nullptr) << "seed " << Seed << ": " << Diags.str();
    Status PS = runPipelineEx(*M, OptOptions::all(), PipelineConfig());
    ASSERT_TRUE(PS.ok()) << PS.str();
    Expected<MachineModule> MME = machineOf(*M);
    ASSERT_TRUE(static_cast<bool>(MME)) << MME.status().str();
    MachineModule &MM = *MME;

    for (const MachineFunction &MF : MM.Funcs) {
      Classifier FaultFree(MF, *MM.Info);
      Classifier Degraded(MF, *MM.Info);
      Degraded.degradeAllVariables();
      ASSERT_TRUE(FaultFree.annotationFindings().empty())
          << "seed " << Seed << " " << MF.Name << ": "
          << FaultFree.annotationFindings().front().Message;

      for (std::size_t S = 0; S < MF.StmtAddr.size(); ++S) {
        if (MF.StmtAddr[S] < 0)
          continue;
        auto Addr = static_cast<std::uint32_t>(MF.StmtAddr[S]);
        for (VarId V : MM.Info->func(MF.Id).Locals) {
          if (!MM.Info->var(V).isScalar())
            continue;
          Classification A = FaultFree.classify(Addr, V);
          Classification B = Degraded.classify(Addr, V);
          ++Compared;
          EXPECT_GE(rank(B), rank(A))
              << "seed " << Seed << " " << MF.Name << " s" << S << " var "
              << MM.Info->var(V).Name << ": degraded "
              << varClassName(B.Kind) << " is less conservative than "
              << varClassName(A.Kind);
          EXPECT_FALSE(B.Recoverable);
          EXPECT_NE(B.Kind, VarClass::Current);
        }
      }
    }
  }
  EXPECT_GT(Compared, 1000u) << "property compared too few verdicts";
}

//===----------------------------------------------------------------------===//
// sldb-fuzz CLI: flags per oracle, and reproducers that reproduce
//===----------------------------------------------------------------------===//

TEST(Robustness, FuzzRefusesFlagsTheOracleIgnores) {
  const char *Ignored[] = {
      "--oracle=step --isolate",
      "--oracle=step --no-isolate",
      "--oracle=step --timeout-ms 100",
      "--oracle=crosslevel --isolate",
      "--oracle=crosslevel --timeout-ms 100",
      "--oracle=crosslevel --level O2nl",
      "--oracle=crosslevel --no-promote",
      "--oracle=crosslevel --level O2 --no-promote --isolate",
      "--oracle=step --inject",
      "--inject --oracle=crosslevel",
  };
  for (const char *Args : Ignored) {
    std::string Out;
    int St = runFuzz(std::string(Args) + " --seed 1 --count 1 --no-write",
                     Out);
    EXPECT_EQ(St, 2) << Args << ": " << Out;
    EXPECT_NE(Out.find("sldb-fuzz: "), std::string::npos)
        << Args << " must say which flag does not apply, got: " << Out;
  }
  // The same flags with an oracle that uses them still run.
  const char *Applied[] = {
      "--oracle=step --level O2nl --no-promote",
      "--inject --no-isolate --timeout-ms 100 --level O2nl",
      "--no-isolate --timeout-ms 100 --no-promote",
  };
  for (const char *Args : Applied) {
    std::string Out;
    EXPECT_EQ(runFuzz(std::string(Args) + " --seed 1 --count 1 --no-write",
                      Out),
              0)
        << Args << ": " << Out;
  }
}

TEST(Robustness, StepReproducerReJudgesWithTheStepOracle) {
  CampaignFailure F;
  F.Seed = 3;
  F.Promote = false;
  F.Oracle = "step";
  F.Source = "int main() {\n  int x = 2;\n  print(x);\n  return 0;\n}\n";
  F.Violations = {{ViolationKind::PhantomStop, 0, 1, "", "line 2"}};
  const std::string Path =
      (std::filesystem::temp_directory_path() / "sldb-step-repro.minic")
          .string();
  {
    std::ofstream Out(Path);
    Out << renderFailure(F);
  }

  // Run the command the reproducer prints, on the reproducer itself.
  std::ifstream In(Path);
  std::string Line, Args;
  const std::string Prefix = "// Reproduce: sldb-fuzz ";
  while (std::getline(In, Line))
    if (Line.rfind(Prefix, 0) == 0)
      Args = Line.substr(Prefix.size());
  ASSERT_FALSE(Args.empty()) << renderFailure(F);
  Args.replace(Args.find("<this file>"), 11, "'" + Path + "'");
  EXPECT_NE(Args.find("--oracle=step"), std::string::npos) << Args;

  std::string Out;
  EXPECT_EQ(runFuzz(Args, Out), 0) << Out;
  EXPECT_EQ(Out, "step, promote-vars off: 0 violation(s)\n");
  std::filesystem::remove(Path);
}

TEST(Robustness, InjectedFaultReproducerReJudgesUnderItsFault) {
  const std::string Path =
      (std::filesystem::temp_directory_path() / "sldb-inject-repro.minic")
          .string();
  {
    std::ofstream Out(Path);
    Out << "// sldb-fuzz reproducer\n// seed: 7\n// promote-vars: on\n"
           "// injected-fault: drop-dead-marker\n//\n"
           "// Reproduce: sldb-fuzz --repro <this file>\n"
        << MarkerProgram;
  }
  std::string Out;
  EXPECT_EQ(runFuzz("--repro '" + Path + "'", Out), 0) << Out;
  EXPECT_EQ(Out, "diff under injected fault drop-dead-marker (seed 7), "
                 "promote-vars on: degraded\n");

  std::string Unknown;
  {
    std::ofstream Bad(Path);
    Bad << "// seed: 7\n// injected-fault: no-such-fault\n" << MarkerProgram;
  }
  EXPECT_EQ(runFuzz("--repro '" + Path + "'", Unknown), 2) << Unknown;
  std::filesystem::remove(Path);
}

//===----------------------------------------------------------------------===//
// sldbc: flags name level rows; every build honours SLDB_VERIFY_EACH
//===----------------------------------------------------------------------===//

TEST(Robustness, SldbcOptimizationFlagsAreLevelRows) {
  const std::string In = std::string(" '") + SLDB_INPUT_DIR + "/recovery.mc'";
  const std::pair<const char *, const char *> Same[] = {
      {"-O2", "--level=O2"},
      {"", "--level=O2"},
      {"-O2 --no-promote", "--level=O2-frame"},
      {"-O0", "--level=O0"},
      {"-O0 --no-promote", "--level=O0"},
  };
  for (const auto &[Flags, Level] : Same) {
    std::string A, B;
    ASSERT_EQ(captureSldbc(std::string("--emit=asm ") + Flags + In, A), 0) << A;
    ASSERT_EQ(captureSldbc(std::string("--emit=asm ") + Level + In, B), 0) << B;
    EXPECT_EQ(A, B) << "'" << Flags << "' must build the " << Level
                    << " row";
  }
  std::string Out;
  EXPECT_EQ(captureSldbc("--no-promote --level=O2nl" + In, Out), 2) << Out;
  EXPECT_NE(Out.find("--no-promote"), std::string::npos) << Out;
}

TEST(Robustness, VerifyEachReachesTheDefaultBuild) {
  std::string Out;
  ASSERT_EQ(runTool("env",
                    std::string("SLDB_VERIFY_EACH=1 '") + SLDB_SLDBC_PATH +
                        "' --stats '" + SLDB_INPUT_DIR + "/recovery.mc'",
                    Out),
            7)
      << Out;
  const std::string Key = "pipeline.verify_each.functions";
  std::size_t At = Out.find(Key);
  ASSERT_NE(At, std::string::npos) << Out;
  EXPECT_GT(std::strtoull(Out.c_str() + At + Key.size(), nullptr, 10), 0u)
      << Out;
}
