//===- tests/golden_test.cpp -----------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Refactor-safety goldens: the optimized IR of the eight eval programs
/// and the verdict digest of a fixed-seed differential-fuzzing campaign,
/// captured before the pass/analysis-manager refactor and checked in
/// under tests/golden/.  Any infrastructure change that alters what the
/// optimizer produces — not just whether it crashes — fails here with a
/// diff.  Regenerate deliberately (see tests/golden/README note in
/// DESIGN.md §7) only when an *optimization* change is intended.
///
//===----------------------------------------------------------------------===//

#include "codegen/ISel.h"
#include "eval/Programs.h"
#include "fuzz/Campaign.h"
#include "ir/IRGen.h"
#include "ir/IRPrinter.h"
#include "opt/Pass.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace sldb;

namespace {

#ifndef SLDB_GOLDEN_DIR
#error "SLDB_GOLDEN_DIR must point at tests/golden"
#endif

std::string goldenPath(const std::string &Name) {
  return std::string(SLDB_GOLDEN_DIR) + "/" + Name;
}

std::string readGolden(const std::string &Name) {
  std::ifstream In(goldenPath(Name));
  EXPECT_TRUE(In) << "missing golden file " << goldenPath(Name);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(Golden, OptimizedIRofEvalPrograms) {
  for (const BenchProgram &P : benchmarkPrograms()) {
    DiagnosticEngine Diags;
    auto M = compileToIR(P.Source, Diags);
    ASSERT_TRUE(M) << P.Name << ": " << Diags.str();
    Status PS =
        runPipelineEx(*M, OptOptions::all(), PipelineConfig::fromEnvironment());
    ASSERT_TRUE(PS.ok()) << P.Name << ": " << PS.str();
    std::string Got = printModule(*M);
    std::string Want = readGolden(std::string(P.Name) + ".ir");
    EXPECT_EQ(Got, Want)
        << "optimized IR of eval program '" << P.Name
        << "' changed; if the optimizer change is intentional, regenerate "
           "tests/golden/";
  }
}

TEST(Golden, FixedSeedCampaignDigest) {
  CampaignConfig C;
  C.Seed = 7;
  C.Count = 40;
  C.Shrink = false;
  C.WriteFailures = false;
  CampaignResult R = runCampaign(C);

  std::ostringstream Dig;
  Dig << "programs " << R.Programs << "\n"
      << "runs " << R.Runs << "\n"
      << "failed_compiles " << R.FailedCompiles << "\n"
      << "stops " << R.Stops << "\n"
      << "observations " << R.Observations << "\n"
      << "failures " << R.Failures.size() << "\n"
      << "with_hoisted " << R.Coverage.WithHoisted << "\n"
      << "with_sunk " << R.Coverage.WithSunk << "\n"
      << "with_dead_marks " << R.Coverage.WithDeadMarks << "\n"
      << "with_avail_marks " << R.Coverage.WithAvailMarks << "\n"
      << "with_sr_records " << R.Coverage.WithSRRecords << "\n";
  for (const PassFiring &F : R.Coverage.Firings)
    Dig << "firing " << F.Name << " " << F.Changed << "\n";

  EXPECT_EQ(Dig.str(), readGolden("campaign_digest.txt"))
      << "fixed-seed campaign digest changed: the refactor altered "
         "optimizer decisions or debugger verdicts";
}

// Wider net for storage-layer refactors: 200 generated programs instead
// of 40, captured before the arena/instruction-pool rework.  The digest
// summarizes optimizer firings and debugger verdicts, so it is sensitive
// to any behavioral drift in IR storage, pass order, or classification —
// while staying byte-stable across pure memory-layout changes.
TEST(Golden, ArenaRefactorCampaignDigest200) {
  CampaignConfig C;
  C.Seed = 1;
  C.Count = 200;
  C.Shrink = false;
  C.WriteFailures = false;
  CampaignResult R = runCampaign(C);

  std::ostringstream Dig;
  Dig << "programs " << R.Programs << "\n"
      << "runs " << R.Runs << "\n"
      << "failed_compiles " << R.FailedCompiles << "\n"
      << "stops " << R.Stops << "\n"
      << "observations " << R.Observations << "\n"
      << "failures " << R.Failures.size() << "\n"
      << "with_hoisted " << R.Coverage.WithHoisted << "\n"
      << "with_sunk " << R.Coverage.WithSunk << "\n"
      << "with_dead_marks " << R.Coverage.WithDeadMarks << "\n"
      << "with_avail_marks " << R.Coverage.WithAvailMarks << "\n"
      << "with_sr_records " << R.Coverage.WithSRRecords << "\n";
  for (const PassFiring &F : R.Coverage.Firings)
    Dig << "firing " << F.Name << " " << F.Changed << "\n";

  EXPECT_EQ(Dig.str(), readGolden("campaign_digest_200.txt"))
      << "200-seed campaign digest changed: the arena/instruction-pool "
         "refactor altered optimizer decisions or debugger verdicts";
}

} // namespace
