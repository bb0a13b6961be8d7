//===- tests/codegen_test.cpp - Back end + VM tests ------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/ISel.h"
#include "codegen/MachineVerifier.h"
#include "codegen/RegAlloc.h"
#include "codegen/Scheduler.h"
#include "ir/IRGen.h"
#include "ir/IRPrinter.h"
#include "ir/Interp.h"
#include "opt/Pass.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <random>

using namespace sldb;

namespace {

std::unique_ptr<IRModule> compile(std::string_view Src, bool Optimize) {
  DiagnosticEngine Diags;
  auto M = compileToIR(Src, Diags);
  EXPECT_TRUE(M != nullptr) << Diags.str();
  if (M && Optimize) {
    Status PS =
        runPipelineEx(*M, OptOptions::all(), PipelineConfig::fromEnvironment());
    EXPECT_TRUE(PS.ok()) << PS.str();
  }
  return M;
}

/// The back end alone, on IR the test prepared.
MachineModule machineOf(const IRModule &M, const CodegenOptions &CG) {
  Expected<MachineModule> MM = compileToMachineE(M, CG);
  EXPECT_TRUE(MM.ok()) << MM.status().str();
  return MM ? std::move(*MM) : MachineModule();
}

/// Runs the source through the IR interpreter (oracle) and through the
/// full back end + VM in the given configuration; compares behavior.
void endToEnd(std::string_view Src, bool Optimize, CodegenOptions CG) {
  auto M = compile(Src, Optimize);
  ASSERT_TRUE(M);
  ExecResult Oracle = interpretIR(*M);
  ASSERT_FALSE(Oracle.Trapped) << Oracle.TrapMsg;

  MachineModule MM = machineOf(*M, CG);
  {
    std::vector<std::string> Errors;
    bool OK = verifyMachineModule(MM, Errors);
    std::string Joined;
    for (auto &E : Errors)
      Joined += E + "\n";
    ASSERT_TRUE(OK) << Joined;
  }
  Machine VM(MM);
  StopReason Stop = VM.run();
  std::string Code;
  for (const MachineFunction &F : MM.Funcs)
    Code += printMachineFunction(F, MM.Info);
  EXPECT_EQ(Stop, StopReason::Exited) << VM.trapMessage() << "\n" << Code;
  EXPECT_EQ(VM.outputText(), Oracle.outputText()) << Code;
  EXPECT_EQ(VM.exitValue(), Oracle.ExitValue) << Code;
}

void allConfigs(std::string_view Src) {
  for (bool Optimize : {false, true})
    for (bool Promote : {false, true})
      for (bool Sched : {false, true}) {
        SCOPED_TRACE(std::string("optimize=") + (Optimize ? "1" : "0") +
                     " promote=" + (Promote ? "1" : "0") +
                     " sched=" + (Sched ? "1" : "0"));
        CodegenOptions CG;
        CG.PromoteVars = Promote;
        CG.Schedule = Sched;
        endToEnd(Src, Optimize, CG);
      }
}

} // namespace

TEST(VM, MinimalReturn) {
  allConfigs("int main() { return 42; }");
}

TEST(VM, ArithmeticAndPrint) {
  allConfigs(R"(
    int main() {
      int a = 6; int b = 7;
      print(a * b);
      print(a - b);
      print(a % 4);
      return a + b;
    }
  )");
}

TEST(VM, ControlFlow) {
  allConfigs(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 20; i = i + 1) {
        if (i % 3 == 0) continue;
        if (i > 15) break;
        s = s + i;
      }
      print(s);
      return s;
    }
  )");
}

TEST(VM, CallsAndRecursion) {
  allConfigs(R"(
    int ack(int m, int n) {
      if (m == 0) return n + 1;
      if (n == 0) return ack(m - 1, 1);
      return ack(m - 1, ack(m, n - 1));
    }
    int main() {
      print(ack(2, 3));
      return 0;
    }
  )");
}

TEST(VM, ArraysAndPointers) {
  allConfigs(R"(
    int sum(int* p, int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) s = s + p[i];
      return s;
    }
    int main() {
      int a[12];
      for (int i = 0; i < 12; i = i + 1) a[i] = i * i;
      print(sum(a, 12));
      int* mid = &a[6];
      print(*mid);
      return 0;
    }
  )");
}

TEST(VM, GlobalsPersistAcrossCalls) {
  allConfigs(R"(
    int hits = 0;
    int tally[4];
    void record(int k) { hits = hits + 1; tally[k % 4] = tally[k % 4] + 1; }
    int main() {
      for (int i = 0; i < 10; i = i + 1) record(i);
      print(hits);
      print(tally[0]); print(tally[1]); print(tally[2]); print(tally[3]);
      return 0;
    }
  )");
}

TEST(VM, Doubles) {
  allConfigs(R"(
    double scale = 0.5;
    double mix(double a, double b) { return a * scale + b * (1.0 - scale); }
    int main() {
      double acc = 0.0;
      for (int i = 1; i <= 6; i = i + 1) {
        acc = mix(acc, i * 2.0);
        printd(acc);
      }
      print(acc > 5.0);
      return 0;
    }
  )");
}

TEST(VM, ManyLiveValuesForcesSpills) {
  // 30+ simultaneously live values exceed the 26 allocatable integer
  // registers and force spilling.
  std::string Src = "int main() {\n";
  for (int I = 0; I < 32; ++I)
    Src += "  int x" + std::to_string(I) + " = " + std::to_string(I * 3 + 1) +
           ";\n";
  Src += "  int s = 0;\n";
  for (int I = 0; I < 32; ++I)
    Src += "  s = s + x" + std::to_string(I) + ";\n";
  // Use everything again so all 32 are live across the first sum.
  for (int I = 0; I < 32; ++I)
    Src += "  s = s + x" + std::to_string(I) + " * 2;\n";
  Src += "  print(s);\n  return 0;\n}\n";
  allConfigs(Src);
}

TEST(VM, DivisionByZeroTraps) {
  auto M = compile("int main() { int z = 0; return 7 / z; }", false);
  MachineModule MM = machineOf(*M, CodegenOptions());
  Machine VM(MM);
  EXPECT_EQ(VM.run(), StopReason::Trapped);
  EXPECT_NE(VM.trapMessage().find("division"), std::string::npos);
}

TEST(VM, BreakpointStopsAndResumes) {
  auto M = compile(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 5; i = i + 1) s = s + i;
      print(s);
      return s;
    }
  )",
                   false);
  MachineModule MM = machineOf(*M, CodegenOptions());
  const MachineFunction *Main = MM.findFunc("main");
  ASSERT_NE(Main, nullptr);
  // Break at the `s = s + i` statement (id 2: s=0 is 0, i=0 is 1, for is
  // 2... statement ids: s=0 ->0, i=0 ->1, for ->2, s=s+i ->3, inc ->4,
  // print ->5, return ->6).
  ASSERT_GT(Main->StmtAddr.size(), 3u);
  std::int32_t Addr = Main->StmtAddr[3];
  ASSERT_GE(Addr, 0);
  Machine VM(MM);
  CodeAddr BP{static_cast<std::uint32_t>(Main - &MM.Funcs[0]),
              static_cast<std::uint32_t>(Addr)};
  VM.setBreakpoint(BP);
  unsigned Stops = 0;
  StopReason SR = VM.run();
  while (SR == StopReason::Breakpoint) {
    ++Stops;
    SR = VM.resume();
  }
  EXPECT_EQ(SR, StopReason::Exited);
  EXPECT_EQ(Stops, 5u); // Loop body executes 5 times.
  EXPECT_EQ(VM.exitValue(), 10);
}

TEST(VM, InstrCountLowerWithOptimization) {
  const char *Src = R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 50; i = i + 1) {
        int a = 3 + 4;
        int b = a * 2;
        s = s + b + i * 8;
      }
      return s;
    }
  )";
  auto M0 = compile(Src, false);
  auto M2 = compile(Src, true);
  MachineModule MM0 = machineOf(*M0, CodegenOptions());
  MachineModule MM2 = machineOf(*M2, CodegenOptions());
  Machine V0(MM0), V2(MM2);
  ASSERT_EQ(V0.run(), StopReason::Exited);
  ASSERT_EQ(V2.run(), StopReason::Exited);
  EXPECT_EQ(V0.exitValue(), V2.exitValue());
  EXPECT_LT(V2.instrCount(), V0.instrCount());
}

TEST(VM, NoPromotionMeansFrameStorage) {
  auto M = compile("int main() { int x = 3; int y = x + 1; return y; }",
                   false);
  CodegenOptions CG;
  CG.PromoteVars = false;
  MachineModule MM = machineOf(*M, CG);
  const MachineFunction *Main = MM.findFunc("main");
  unsigned FrameVars = 0;
  for (const auto &[V, S] : Main->Storage)
    if (S.K == VarStorage::Kind::Frame)
      ++FrameVars;
  EXPECT_EQ(FrameVars, 2u);
}

TEST(VM, PromotionKeepsScalarsInRegisters) {
  auto M = compile("int main() { int x = 3; int y = x + 1; return y; }",
                   false);
  MachineModule MM = machineOf(*M, CodegenOptions());
  const MachineFunction *Main = MM.findFunc("main");
  unsigned RegVars = 0;
  for (const auto &[V, S] : Main->Storage)
    if (S.K == VarStorage::Kind::InReg) {
      ++RegVars;
      EXPECT_FALSE(S.R.isVirtual());
    }
  EXPECT_EQ(RegVars, 2u);
}

TEST(VM, ResidenceBitsCoverLiveRange) {
  auto M = compile(R"(
    int main() {
      int x = 3;
      int y = x + 1;
      int z = y * 2;
      return z;
    }
  )",
                   false);
  MachineModule MM = machineOf(*M, CodegenOptions());
  const MachineFunction *Main = MM.findFunc("main");
  // x must be resident somewhere (between def and last use) and
  // nonresident at the final return.
  VarId X = InvalidVar;
  for (VarId V = 0; V < MM.Info->Vars.size(); ++V)
    if (MM.Info->var(V).Name == "x")
      X = V;
  ASSERT_NE(X, InvalidVar);
  auto It = Main->ResidentAt.find(X);
  ASSERT_NE(It, Main->ResidentAt.end());
  EXPECT_TRUE(It->second.any());
  // The last instruction (ret) is past x's live range.
  EXPECT_FALSE(It->second.test(It->second.size() - 1));
}

TEST(Scheduler, PreservesSemantics) {
  const char *Src = R"(
    int main() {
      int a[8];
      int s = 0;
      for (int i = 0; i < 8; i = i + 1) { a[i] = i * 5; }
      for (int i = 0; i < 8; i = i + 1) { s = s + a[i] * a[7 - i]; }
      print(s);
      return 0;
    }
  )";
  for (bool Sched : {false, true}) {
    auto M = compile(Src, true);
    CodegenOptions CG;
    CG.Schedule = Sched;
    MachineModule MM = machineOf(*M, CG);
    Machine VM(MM);
    ASSERT_EQ(VM.run(), StopReason::Exited);
    EXPECT_EQ(VM.outputText(), "1400\n");
  }
}

//===----------------------------------------------------------------------===//
// Randomized end-to-end differential tests
//===----------------------------------------------------------------------===//

namespace {

/// Same generator as in opt_test, reused for the machine pipeline.
class ProgramGenerator {
public:
  explicit ProgramGenerator(unsigned Seed) : Rng(Seed) {}

  std::string generate() {
    Src.clear();
    Src += "int main() {\n";
    for (int V = 0; V < 6; ++V)
      Src += "  int v" + std::to_string(V) + " = " +
             std::to_string(static_cast<int>(Rng() % 20) - 10) + ";\n";
    genStmts(2, 8);
    for (int V = 0; V < 6; ++V)
      Src += "  print(v" + std::to_string(V) + ");\n";
    Src += "  return 0;\n}\n";
    return Src;
  }

private:
  std::string var() { return "v" + std::to_string(Rng() % 6); }

  std::string expr(int Depth) {
    if (Depth <= 0 || Rng() % 3 == 0) {
      if (Rng() % 2)
        return var();
      return std::to_string(static_cast<int>(Rng() % 10) - 5);
    }
    static const char *Ops[] = {"+", "-", "*", "<", ">", "==", "&", "|"};
    return "(" + expr(Depth - 1) + " " + Ops[Rng() % 8] + " " +
           expr(Depth - 1) + ")";
  }

  void genStmts(int Depth, int Count) {
    for (int S = 0; S < Count; ++S) {
      switch (Rng() % 5) {
      case 0:
      case 1:
        Src += "  " + var() + " = " + expr(2) + ";\n";
        break;
      case 2:
        if (Depth > 0) {
          Src += "  if (" + expr(1) + ") {\n";
          genStmts(Depth - 1, 2 + Rng() % 3);
          Src += "  } else {\n";
          genStmts(Depth - 1, 2 + Rng() % 3);
          Src += "  }\n";
          break;
        }
        Src += "  " + var() + " = " + expr(2) + ";\n";
        break;
      case 3:
        if (Depth > 0) {
          std::string I = "i" + std::to_string(LoopId++);
          Src += "  for (int " + I + " = 0; " + I + " < " +
                 std::to_string(1 + Rng() % 5) + "; " + I + " = " + I +
                 " + 1) {\n";
          genStmts(Depth - 1, 1 + Rng() % 3);
          Src += "  }\n";
          break;
        }
        Src += "  print(" + var() + ");\n";
        break;
      case 4:
        Src += "  print(" + expr(1) + ");\n";
        break;
      }
    }
  }

  std::mt19937 Rng;
  std::string Src;
  int LoopId = 0;
};

class RandomizedVMTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(RandomizedVMTest, MachinePipelinePreservesSemantics) {
  ProgramGenerator Gen(GetParam() + 1000);
  std::string Src = Gen.generate();
  SCOPED_TRACE(Src);
  allConfigs(Src);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedVMTest, ::testing::Range(0u, 40u));
