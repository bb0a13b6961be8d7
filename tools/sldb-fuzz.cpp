//===- tools/sldb-fuzz.cpp - Differential fuzzing driver --------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the fuzzing oracles:
///
///   sldb-fuzz --seed 1 --count 200         # campaign (both codegen modes)
///   sldb-fuzz --oracle=step --count 200    # stepping/line-table oracle
///   sldb-fuzz --oracle=crosslevel --count 50 # pipeline-lattice sweep
///   sldb-fuzz --inject --count 200         # fault-injection campaign
///   sldb-fuzz --dump-seed 42               # print one generated program
///   sldb-fuzz --repro fuzz-failures/x.minic  # re-judge one reproducer
///
/// The options build one CampaignSpec (fuzz/CampaignDriver.h); the chosen
/// oracle's campaign runs on it and one shared epilogue prints the
/// report.  A flag the chosen oracle would ignore is a usage error.
///
/// Exit status: 0 when every run satisfies the soundness contract, 1 on
/// any violation (reproducers are written to --write-dir), 2 on usage
/// errors, 130 when an interrupt cut the campaign short.
///
//===----------------------------------------------------------------------===//

#include "eval/Levels.h"
#include "fuzz/Campaign.h"
#include "fuzz/QualityCampaign.h"
#include "support/FaultInjector.h"
#include "support/Interrupt.h"
#include "support/Sharder.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

using namespace sldb;

namespace {

struct Options {
  Options() { Spec.WriteFailures = true; }

  CampaignSpec Spec; ///< Seeds, generator, level, shrink/write, pool, shard.
  bool Promote = true;
  bool BothModes = true;
  std::string ReproPath;
  long DumpSeed = -1;
  std::string Oracle = "diff"; ///< diff | step | crosslevel.
  bool Inject = false;
  int Isolate = -1;    ///< -1 default (on for --inject, off otherwise).
  long TimeoutMs = -1; ///< -1 default (20000).
  bool WorkerStats = false;
  std::string TraceJson; ///< --trace-json FILE.
};

void usage() {
  std::fprintf(
      stderr,
      "usage: sldb-fuzz [options]\n"
      "  --seed N        first seed (default 1)\n"
      "  --count M       number of generated programs (default 200)\n"
      "  --no-promote    only the frame-slot codegen configuration (not\n"
      "                  with crosslevel)\n"
      "  --no-shrink     keep reproducers unminimized\n"
      "  --no-write      do not write reproducer files\n"
      "  --write-dir D   reproducer directory (default fuzz-failures)\n"
      "  --alias         enable the aliasing generator grammar (arrays,\n"
      "                  pointers, address-taken locals, indirect stores)\n"
      "  --dump-seed N   print the program for seed N and exit\n"
      "  --repro FILE    re-judge a program/reproducer file with the diff\n"
      "                  or step oracle and exit\n"
      "  --oracle=K      which oracle drives the campaign (default diff):\n"
      "                  diff       variable-value lockstep soundness\n"
      "                  step       stepping/line-table oracle (phantom or\n"
      "                             vanished statement boundaries fail)\n"
      "                  crosslevel sweep every pipeline level, judge\n"
      "                             availability regressions against the\n"
      "                             lockstep ground truth, and measure\n"
      "                             per-level conservatism\n"
      "  --level NAME    run the diff/inject/step campaign at one named\n"
      "                  pipeline"
      " level (eval/Levels.h: O0, O2nl, O2nl-ssa, ...)\n"
      "                  instead of the default lockstep set; the level\n"
      "                  must be judgeable (no peel/unroll/inline)\n"
      "  --inject        fault-injection campaign: every seed is judged\n"
      "                  once per defended fault point; crashes, hangs,\n"
      "                  and unsound verdicts fail (diff oracle only)\n"
      "  --isolate       fork each check under a watchdog (default for\n"
      "                  --inject; diff and inject only)\n"
      "  --no-isolate    run checks in-process (diff and inject only)\n"
      "  --timeout-ms N  watchdog budget per isolated check (default\n"
      "                  20000; diff and inject only)\n"
      "  --jobs N        fan units across N worker threads (0 = all\n"
      "                  cores; default 1).  The report is byte-identical\n"
      "                  for every N; with --isolate each worker forks\n"
      "                  its own watchdogged child\n"
      "  --shard I/K     run only the I-th of K contiguous slices of the\n"
      "                  seed range (0-based; distributed campaigns)\n"
      "  --worker-stats  print per-worker throughput/steal/slowest-seed\n"
      "                  stats plus the campaign-wide cache-hit/query\n"
      "                  counters to stderr after the campaign\n"
      "  --trace-json F  write the merged per-unit trace (Chrome trace\n"
      "                  format, seed-major unit order, deterministic for\n"
      "                  every --jobs value) to F\n");
}

bool parseUnsigned(const char *S, unsigned long &Out) {
  char *End = nullptr;
  Out = std::strtoul(S, &End, 10);
  return End && *End == '\0' && End != S;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  CampaignSpec &S = O.Spec;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const char *V = nullptr; // The flag's value, once taken.
    auto Value = [&] { return V = I + 1 < Argc ? Argv[++I] : nullptr; };
    auto Num = [&](auto &Out) {
      unsigned long N = 0;
      if (!Value() || !parseUnsigned(V, N))
        return false;
      Out = static_cast<std::remove_reference_t<decltype(Out)>>(N);
      return true;
    };
    auto Str = [&](std::string &Out) {
      if (Value())
        Out = V;
      return V != nullptr;
    };
    bool Ok = true;
    if (A == "--seed")
      Ok = Num(S.Seed);
    else if (A == "--count")
      Ok = Num(S.Count);
    else if (A == "--no-promote")
      O.Promote = O.BothModes = false;
    else if (A == "--no-shrink")
      S.Shrink = false;
    else if (A == "--no-write")
      S.WriteFailures = false;
    else if (A == "--write-dir")
      Ok = Str(S.FailureDir);
    else if (A == "--dump-seed")
      Ok = Num(O.DumpSeed);
    else if (A == "--repro")
      Ok = Str(O.ReproPath);
    else if (A == "--oracle")
      Ok = Str(O.Oracle);
    else if (A.rfind("--oracle=", 0) == 0)
      O.Oracle = A.substr(9);
    else if (A == "--level")
      Ok = Str(S.Level);
    else if (A == "--inject")
      O.Inject = true;
    else if (A == "--isolate")
      O.Isolate = 1;
    else if (A == "--no-isolate")
      O.Isolate = 0;
    else if (A == "--timeout-ms")
      Ok = Num(O.TimeoutMs);
    else if (A == "--jobs")
      Ok = Num(S.Jobs);
    else if (A == "--shard")
      Ok = Value() && Sharder::parseSpec(V, S.ShardIndex, S.ShardCount);
    else if (A == "--alias")
      S.Gen.Alias = true;
    else if (A == "--worker-stats")
      O.WorkerStats = true;
    else if (A == "--trace-json")
      Ok = Str(O.TraceJson);
    else
      Ok = false;
    if (!Ok)
      return false;
  }
  return O.Oracle == "diff" || O.Oracle == "step" || O.Oracle == "crosslevel";
}

/// Flags the chosen oracle would silently ignore.  Returns the
/// complaint, or an empty string when every flag applies.
std::string ignoredFlags(const Options &O) {
  const bool Quality = O.Oracle != "diff";
  if (O.Inject && Quality)
    return "--inject runs the diff oracle under injected faults; it does "
           "not combine with --oracle=" +
           O.Oracle;
  if (Quality && (O.Isolate != -1 || O.TimeoutMs != -1))
    return "--isolate, --no-isolate and --timeout-ms apply to the diff and "
           "inject campaigns only, not --oracle=" +
           O.Oracle;
  if (O.Oracle == "crosslevel" && (!O.Spec.Level.empty() || !O.BothModes))
    return "--level and --no-promote do not apply to --oracle=crosslevel, "
           "which sweeps every pipeline level in its own promotion";
  if (!O.ReproPath.empty() && O.Inject)
    return "--repro does not replay injected faults; it re-judges with the "
           "diff or step oracle";
  if (!O.ReproPath.empty() && O.Oracle == "crosslevel")
    return "--repro re-judges with the diff or step oracle; a cross-level "
           "reproducer names its level (--repro FILE --level NAME)";
  return "";
}

int runRepro(const Options &O) {
  std::ifstream In(O.ReproPath);
  if (!In) {
    std::fprintf(stderr, "sldb-fuzz: cannot read '%s'\n",
                 O.ReproPath.c_str());
    return 2;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Src = SS.str();

  // A reproducer from a level campaign must be re-judged at that level,
  // which must resolve and be judgeable as for a campaign.
  CampaignTally Refusal;
  const LevelSpec *Spec;
  if (!startCampaign(O.Spec, Refusal, Spec)) {
    std::fprintf(stderr, "sldb-fuzz: %s\n", Refusal.ConfigError.c_str());
    return 2;
  }
  // Each oracle re-judges with the judge its campaign used.
  using JudgeFn = std::vector<Violation> (*)(const std::string &, bool,
                                             const OptOptions *);
  JudgeFn Judge = O.Oracle == "step"
                      ? JudgeFn(checkStepProgram)
                      : [](const std::string &S, bool Promote,
                           const OptOptions *Opts) {
                          return checkProgram(S, Promote, Opts);
                        };
  int Status = 0;
  const bool OneMode = !O.BothModes || Spec;
  for (int Mode = 0; Mode < (OneMode ? 1 : 2); ++Mode) {
    bool Promote = Spec      ? Spec->Promote
                   : OneMode ? O.Promote
                             : Mode == 0;
    std::vector<Violation> Vs =
        Judge(Src, Promote, Spec ? &Spec->Opts : nullptr);
    std::printf("%s, promote-vars %s: %zu violation(s)\n", O.Oracle.c_str(),
                Promote ? "on" : "off", Vs.size());
    for (const Violation &V : Vs) {
      std::printf("  %s\n", V.str().c_str());
      Status = 1;
    }
  }
  return Status;
}

/// Per-worker diagnostics, on stderr so campaign *reports* (stdout)
/// stay byte-identical across --jobs values.  The trailing totals line
/// folds in the process-wide Stats counters the campaign accumulated:
/// classifier/analysis cache effectiveness and classifier queries per
/// second of total worker busy time.  Isolated campaigns fork each unit,
/// so the children's counters never reach this process and the totals
/// read zero — same trade as the coverage accounting.
void printWorkerStats(const std::vector<CampaignWorkerStats> &Workers) {
  std::uint64_t BusyUs = 0;
  for (const CampaignWorkerStats &W : Workers) {
    std::fprintf(stderr,
                 "worker %u: %u unit(s) (%u stolen, queued %u), "
                 "%.1f units/s busy, slowest seed %u (%llu ms)\n",
                 W.Worker, W.Units, W.Steals, W.InitialQueue,
                 W.unitsPerSec(), W.SlowestSeed,
                 static_cast<unsigned long long>(W.SlowestUs / 1000));
    BusyUs += W.BusyUs;
  }
  std::uint64_t Queries = Stats::counter("classifier.queries").value();
  std::uint64_t CH = Stats::counter("classifier.cache.hits").value();
  std::uint64_t CM = Stats::counter("classifier.cache.misses").value();
  std::uint64_t AH = Stats::counter("analysis.cache.hits").value();
  std::uint64_t AM = Stats::counter("analysis.cache.misses").value();
  std::fprintf(stderr,
               "totals: %llu classifier queries (%.0f/s busy), "
               "classifier cache %.1f%% hit, analysis cache %.1f%% hit\n",
               static_cast<unsigned long long>(Queries),
               BusyUs ? 1e6 * static_cast<double>(Queries) /
                            static_cast<double>(BusyUs)
                      : 0.0,
               Stats::percent(CH, CM), Stats::percent(AH, AM));
}

/// Writes the merged campaign trace (--trace-json).  Returns false (and
/// complains) on I/O failure.
bool writeTraceFile(const std::string &Path,
                    const std::vector<TraceEvent> &Events) {
  std::ofstream Out(Path, std::ios::binary);
  if (Out)
    Out << Trace::renderJson(Events);
  if (!Out) {
    std::fprintf(stderr, "sldb-fuzz: cannot write trace file '%s'\n",
                 Path.c_str());
    return false;
  }
  return true;
}

[[gnu::format(printf, 1, 2)]] std::string format(const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

/// The oracle-specific half of a campaign's stdout report.
struct Report {
  std::string Summary; ///< Counts and tables.
  bool Sound = false;
  std::string Verdict; ///< The OK line, or the failure list's header.
  /// One failure's line after "  seed N".
  std::string (*Describe)(const CampaignFailure &) = nullptr;
};

std::string promoteLine(const CampaignFailure &F) {
  return format(" (promote-vars %s): ", F.Promote ? "on" : "off") +
         F.Violations.front().str();
}

Report diffReport(const CampaignResult &R) {
  Report Rep;
  Rep.Summary =
      format("programs:      %u (%u lockstep runs)\n", R.Programs, R.Runs) +
      format("paired stops:  %llu (%llu variable observations)\n",
             static_cast<unsigned long long>(R.Stops),
             static_cast<unsigned long long>(R.Observations)) +
      format("coverage:      hoisted %u, sunk %u, dead-marks %u, "
             "avail-marks %u, iv-recoveries %u (of %u programs)\n",
             R.Coverage.WithHoisted, R.Coverage.WithSunk,
             R.Coverage.WithDeadMarks, R.Coverage.WithAvailMarks,
             R.Coverage.WithSRRecords, R.Programs);
  for (const PassFiring &F : R.Coverage.Firings)
    if (F.Changed)
      Rep.Summary +=
          format("  pass %-44s fired %u\n", F.Name.c_str(), F.Changed);
  if (R.FailedCompiles)
    Rep.Summary += format("GENERATOR BUG: %u programs failed to compile\n",
                          R.FailedCompiles);
  Rep.Sound = R.sound();
  Rep.Verdict =
      Rep.Sound ? "soundness:     OK (no Current-with-wrong-value, no wrong "
                  "recovery, tables consistent)\n"
                : format("soundness:     %zu FAILING program(s)\n",
                         R.Failures.size());
  Rep.Describe = promoteLine;
  return Rep;
}

Report injectReport(const InjectCampaignResult &R, bool Isolated) {
  unsigned Defended = 0;
  for (const FaultPoint &P : FaultInjector::points())
    Defended += P.Defended;
  Report Rep;
  Rep.Summary =
      format("inject:        %u programs x %u fault points = %u runs (%s)\n",
             R.Programs, Defended, R.Runs,
             Isolated ? "isolated, watchdog on" : "in-process") +
      format("outcomes:      %u degraded-conservative, %u compile errors, "
             "%u crashes, %u hangs, %u unsound\n",
             R.DegradedRuns, R.CompileErrors, R.Crashes, R.Hangs,
             R.UnsoundRuns);
  Rep.Sound = R.sound();
  Rep.Verdict = Rep.Sound ? "injection:     OK (no crash, no hang, no "
                            "unsound verdict under any injected fault)\n"
                          : format("injection:     %zu FAILING run(s)\n",
                                   R.Failures.size());
  Rep.Describe = [](const CampaignFailure &F) {
    return " fault " + F.FaultName + ": " +
           (F.ProcessOutcome.empty() ? F.Violations.front().str()
                                     : F.ProcessOutcome);
  };
  return Rep;
}

Report stepReport(const StepCampaignResult &R) {
  Report Rep;
  Rep.Summary = renderStepCampaignReport(R);
  Rep.Sound = R.sound();
  Rep.Verdict = Rep.Sound ? "stepping:       OK (no phantom or vanished "
                            "statement boundaries, behavior matched)\n"
                          : format("stepping:       %zu FAILING run(s)\n",
                                   R.Failures.size());
  Rep.Describe = promoteLine;
  return Rep;
}

Report crossLevelReport(const CrossLevelCampaignResult &R) {
  Report Rep;
  Rep.Summary = renderCrossLevelCampaignReport(R);
  Rep.Sound = R.sound();
  Rep.Verdict = Rep.Sound ? "cross-level:    OK (no unexplained availability "
                            "regression, every level sound)\n"
                          : format("cross-level:    FAIL (%u unexplained "
                                   "regression(s), %u unsound run(s))\n",
                                   R.Unexplained, R.UnsoundRuns);
  Rep.Describe = [](const CampaignFailure &F) {
    return " level " + F.Level + ": " + F.Violations.front().str();
  };
  return Rep;
}

/// The epilogue every campaign shares: refusal, diagnostics, the merged
/// trace, the report, the failure list, and the exit status.  A graceful
/// interruption (SIGINT/SIGTERM) still prints the full report for
/// everything that finished, with reproducers already on disk; the note
/// plus the conventional 128+SIGINT status keep a partial report from
/// being mistaken for a complete one.
int finish(const Options &O, const CampaignTally &T, const Report &Rep) {
  if (!T.ConfigError.empty()) {
    std::fprintf(stderr, "sldb-fuzz: %s\n", T.ConfigError.c_str());
    return 2;
  }
  if (O.WorkerStats)
    printWorkerStats(T.Workers);
  if (!O.TraceJson.empty() && !writeTraceFile(O.TraceJson, T.Trace))
    return 2;

  std::fputs(Rep.Summary.c_str(), stdout);
  std::fputs(Rep.Verdict.c_str(), stdout);
  if (!Rep.Sound)
    for (const CampaignFailure &F : T.Failures) {
      std::printf("  seed %u%s\n", F.Seed, Rep.Describe(F).c_str());
      if (!F.Path.empty())
        std::printf("    reproducer: %s\n", F.Path.c_str());
    }
  if (T.SkippedUnits == 0)
    return Rep.Sound ? 0 : 1;
  std::fprintf(stderr,
               "sldb-fuzz: interrupted — report is PARTIAL (%u unit(s) "
               "skipped); reproducers for completed units are on disk\n",
               T.SkippedUnits);
  return 130;
}

/// A campaign config carrying the options' shared spec.
template <class Config> Config configFor(const Options &O) {
  Config C;
  static_cast<CampaignSpec &>(C) = O.Spec;
  return C;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    usage();
    return 2;
  }
  if (std::string Err = ignoredFlags(O); !Err.empty()) {
    std::fprintf(stderr, "sldb-fuzz: %s\n", Err.c_str());
    return 2;
  }
  // Ctrl-C / SIGTERM flush a partial report instead of losing the
  // campaign: workers drain at the next unit boundary, merges run as
  // usual, and finish() marks the output partial (exit 130).
  installInterruptHandlers();
  if (!O.TraceJson.empty()) {
    if (!Trace::compiledIn())
      std::fprintf(stderr,
                   "sldb-fuzz: note: tracing compiled out (SLDB_TRACE=OFF); "
                   "'%s' will hold an empty trace\n",
                   O.TraceJson.c_str());
    Trace::enable();
    O.Spec.CollectTrace = true;
  }

  if (O.DumpSeed >= 0) {
    std::string Src =
        generateProgram(static_cast<std::uint32_t>(O.DumpSeed), O.Spec.Gen);
    std::fputs(Src.c_str(), stdout);
    return 0;
  }
  if (!O.ReproPath.empty())
    return runRepro(O);

  const unsigned TimeoutMs =
      O.TimeoutMs < 0 ? 20'000 : static_cast<unsigned>(O.TimeoutMs);
  if (O.Inject) {
    auto C = configFor<InjectCampaignConfig>(O);
    if (C.FailureDir == "fuzz-failures")
      C.FailureDir = "fuzz-crashes";
    C.Promote = O.Promote;
    C.Isolate = O.Isolate != 0; // Default on for --inject.
    C.TimeoutMs = TimeoutMs;
    InjectCampaignResult R = runInjectCampaign(C);
    return finish(O, R, injectReport(R, C.Isolate));
  }
  if (O.Oracle == "step") {
    auto C = configFor<StepCampaignConfig>(O);
    C.BothPromoteModes = O.BothModes;
    C.Promote = O.Promote;
    StepCampaignResult R = runStepCampaign(C);
    return finish(O, R, stepReport(R));
  }
  if (O.Oracle == "crosslevel") {
    CrossLevelCampaignResult R =
        runCrossLevelCampaign(configFor<CrossLevelCampaignConfig>(O));
    return finish(O, R, crossLevelReport(R));
  }
  auto C = configFor<CampaignConfig>(O);
  C.BothPromoteModes = O.BothModes;
  C.Promote = O.Promote;
  C.Isolate = O.Isolate == 1;
  C.TimeoutMs = TimeoutMs;
  CampaignResult R = runCampaign(C);
  return finish(O, R, diffReport(R));
}
