//===- tests/campaign_driver_test.cpp --------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign driver's contract (fuzz/CampaignDriver.h), checked once
/// per unit oracle — diff, inject, step and crosslevel:
///
///  * the result is identical for --jobs 1 and --jobs 4;
///  * three shards concatenate to the whole campaign: additive counters
///    sum, ordered records (failures, judged regressions) concatenate;
///  * seed-range overflow, bad shard specs and unknown levels are
///    refused before any unit runs;
///  * an interrupt before the run drains every unit: nothing is judged,
///    nothing is written, and every unit is counted as skipped.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"
#include "fuzz/QualityCampaign.h"
#include "support/FaultInjector.h"
#include "support/Interrupt.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace sldb;

namespace {

/// A campaign result reduced to what the driver must preserve: additive
/// counters (summed across shards) and ordered records (concatenated
/// across shards), plus the shared tally fields.
struct Digest {
  std::vector<std::uint64_t> Counts;
  std::vector<std::string> Records;
  unsigned Programs = 0;
  unsigned SkippedUnits = 0;
  std::string ConfigError;

  void tally(const CampaignTally &T) {
    Programs = T.Programs;
    SkippedUnits = T.SkippedUnits;
    ConfigError = T.ConfigError;
    Counts.push_back(T.Programs);
    for (const CampaignFailure &F : T.Failures)
      Records.push_back("failure " + std::to_string(F.Seed) + " " +
                        std::to_string(F.Promote) + " " + F.FaultName + " " +
                        F.Level + " " + F.Violations.front().str());
  }
};

template <class Config> Config configFor(const CampaignSpec &S) {
  Config C;
  static_cast<CampaignSpec &>(C) = S;
  return C;
}

Digest runDiff(const CampaignSpec &S) {
  CampaignResult R = runCampaign(configFor<CampaignConfig>(S));
  Digest D;
  D.tally(R);
  D.Counts.insert(D.Counts.end(),
                  {R.Runs, R.FailedCompiles, R.Stops, R.Observations,
                   R.Coverage.WithHoisted, R.Coverage.WithSunk,
                   R.Coverage.WithDeadMarks, R.Coverage.WithAvailMarks,
                   R.Coverage.WithSRRecords});
  for (const PassFiring &F : R.Coverage.Firings)
    D.Counts.push_back(F.Changed);
  return D;
}

Digest runInject(const CampaignSpec &S) {
  auto C = configFor<InjectCampaignConfig>(S);
  C.Isolate = false; // In-process: concurrent armed faults per thread.
  InjectCampaignResult R = runInjectCampaign(C);
  Digest D;
  D.tally(R);
  D.Counts.insert(D.Counts.end(), {R.Runs, R.CompileErrors, R.DegradedRuns,
                                   R.Crashes, R.Hangs, R.UnsoundRuns});
  return D;
}

Digest runStep(const CampaignSpec &S) {
  StepCampaignResult R = runStepCampaign(configFor<StepCampaignConfig>(S));
  Digest D;
  D.tally(R);
  D.Counts.insert(D.Counts.end(),
                  {R.Runs, R.FailedCompiles, R.CappedRuns, R.StmtsChecked});
  return D;
}

Digest runCrossLevel(const CampaignSpec &S) {
  CrossLevelCampaignResult R =
      runCrossLevelCampaign(configFor<CrossLevelCampaignConfig>(S));
  Digest D;
  D.tally(R);
  D.Counts.insert(D.Counts.end(), {R.CompileErrors, R.LockstepRuns,
                                   R.UnsoundRuns, R.Unexplained});
  for (const CoverageCounts &L : R.Levels)
    D.Counts.insert(D.Counts.end(),
                    {L.Points, L.Uninitialized, L.Nonresident, L.Noncurrent,
                     L.Suspect, L.Current, L.Recovered, L.SrcStmts,
                     L.CodeStmts, L.Degraded});
  for (const ConservatismCounts &C : R.Conservatism)
    D.Counts.insert(D.Counts.end(),
                    {C.Noncurrent, C.NoncurrentMatched, C.Suspect,
                     C.SuspectMatched, C.Nonresident, C.NonresidentMatched});
  for (const JudgedRegression &J : R.Regressions)
    D.Records.push_back(std::string(judgmentName(J.J)) + " " + J.R.str());
  return D;
}

unsigned defendedFaultPoints() {
  unsigned N = 0;
  for (const FaultPoint &P : FaultInjector::points())
    N += P.Defended;
  return N;
}

struct OracleCase {
  const char *Name;
  Digest (*Run)(const CampaignSpec &);
  unsigned (*UnitsPerSeed)();
};

void PrintTo(const OracleCase &C, std::ostream *OS) { *OS << C.Name; }

const OracleCase Oracles[] = {
    {"diff", runDiff, [] { return 2u; }},
    {"inject", runInject, defendedFaultPoints},
    {"step", runStep, [] { return 2u; }},
    {"crosslevel", runCrossLevel, [] { return 1u; }},
};

class CampaignDriver : public ::testing::TestWithParam<OracleCase> {
protected:
  static CampaignSpec smallSpec() {
    CampaignSpec S;
    S.Seed = 11;
    S.Count = 6;
    S.Shrink = false;
    S.WriteFailures = false;
    return S;
  }
};

TEST_P(CampaignDriver, ResultIsJobsInvariant) {
  CampaignSpec S = smallSpec();
  S.Jobs = 1;
  Digest One = GetParam().Run(S);
  S.Jobs = 4;
  Digest Four = GetParam().Run(S);
  ASSERT_TRUE(One.ConfigError.empty()) << One.ConfigError;
  EXPECT_EQ(One.Programs, S.Count);
  EXPECT_EQ(Four.Counts, One.Counts);
  EXPECT_EQ(Four.Records, One.Records);
}

TEST_P(CampaignDriver, ShardsConcatenateToWholeCampaign) {
  CampaignSpec S = smallSpec();
  S.Jobs = 2;
  Digest Whole = GetParam().Run(S);

  Digest Merged;
  for (unsigned I = 0; I < 3; ++I) {
    S.ShardIndex = I;
    S.ShardCount = 3;
    Digest Shard = GetParam().Run(S);
    ASSERT_TRUE(Shard.ConfigError.empty()) << Shard.ConfigError;
    if (Merged.Counts.empty())
      Merged.Counts.assign(Shard.Counts.size(), 0);
    ASSERT_EQ(Shard.Counts.size(), Merged.Counts.size());
    for (std::size_t K = 0; K < Shard.Counts.size(); ++K)
      Merged.Counts[K] += Shard.Counts[K];
    Merged.Records.insert(Merged.Records.end(), Shard.Records.begin(),
                          Shard.Records.end());
  }
  EXPECT_EQ(Merged.Counts, Whole.Counts);
  EXPECT_EQ(Merged.Records, Whole.Records);
}

TEST_P(CampaignDriver, BadConfigsAreRefused) {
  auto Refused = [&](const CampaignSpec &S) {
    Digest D = GetParam().Run(S);
    return !D.ConfigError.empty() && D.Programs == 0;
  };
  CampaignSpec S = smallSpec();
  S.Seed = 0xFFFFFFF0u;
  S.Count = 1000;
  EXPECT_TRUE(Refused(S)) << "seed-range overflow";

  S = smallSpec();
  S.ShardIndex = 3;
  S.ShardCount = 3;
  EXPECT_TRUE(Refused(S)) << "shard index out of range";
  S.ShardIndex = 0;
  S.ShardCount = 0;
  EXPECT_TRUE(Refused(S)) << "zero shards";

  S = smallSpec();
  S.Level = "no-such-level";
  EXPECT_TRUE(Refused(S)) << "unknown level";
}

TEST_P(CampaignDriver, InterruptDrainsEveryUnit) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("sldb-drain-" + std::string(GetParam().Name));
  std::filesystem::remove_all(Dir);
  CampaignSpec S = smallSpec();
  S.Jobs = 2;
  S.WriteFailures = true;
  S.FailureDir = Dir.string();

  requestInterrupt();
  Digest D = GetParam().Run(S);
  clearInterruptForTesting();

  EXPECT_TRUE(D.ConfigError.empty()) << D.ConfigError;
  EXPECT_EQ(D.SkippedUnits, S.Count * GetParam().UnitsPerSeed());
  EXPECT_EQ(D.Programs, 0u);
  EXPECT_TRUE(D.Records.empty());
  EXPECT_FALSE(std::filesystem::exists(Dir)) << "no reproducer is written";
}

INSTANTIATE_TEST_SUITE_P(
    AllOracles, CampaignDriver, ::testing::ValuesIn(Oracles),
    [](const ::testing::TestParamInfo<OracleCase> &I) {
      return std::string(I.param.Name);
    });

} // namespace
