//===- perfbench/main.cpp - Benchmark entry point -------------------------===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--out DIR] [--commit ID]
///
/// Runs one workload and prints two lines on stdout: a provenance object,
/// then the result object (correct, attempted, failed, metrics).  The
/// result also goes to DIR/result-<workload>-seed<N>-trace<T>.json.
///
//===----------------------------------------------------------------------===//

#include "Json.h"
#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
const char *const Compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
const char *const Compiler = "gcc " __VERSION__;
#else
const char *const Compiler = "unknown";
#endif

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--commit ID]\nworkloads:");
  for (const std::string &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseUnsigned(const char *S, std::uint64_t &Out) {
  if (!*S)
    return false;
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  std::string Commit = "unknown";
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    const char *V = Argv[++I];
    std::uint64_t N = 0;
    if (A == "--workload") {
      C.Workload = V;
    } else if (A == "--seed" && parseUnsigned(V, N)) {
      C.Seed = N;
      HaveSeed = true;
    } else if (A == "--seconds" && parseUnsigned(V, N) && N >= 1 && N <= 600) {
      C.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (A == "--trace" && parseUnsigned(V, N) && N <= 1) {
      C.Trace = N == 1;
      HaveTrace = true;
    } else if (A == "--out") {
      C.OutDir = V;
    } else if (A == "--commit") {
      Commit = V;
    } else {
      return usage();
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace ||
      std::find(workloadNames().begin(), workloadNames().end(), C.Workload) ==
          workloadNames().end())
    return usage();
  if (C.OutDir.empty())
    C.OutDir = ".";
  std::error_code EC;
  std::filesystem::create_directories(C.OutDir, EC);

  unsigned NProc = std::max(1u, std::thread::hardware_concurrency());
  C.Jobs = std::min(NProc, 4u);

  RunResult R;
  runWorkload(C, R);

  std::string Prov = "{\"workload\":" + jsonQuote(C.Workload) +
                     ",\"seed\":" + std::to_string(C.Seed) +
                     ",\"seconds\":" + jsonNumber(C.Seconds) +
                     ",\"trace\":" + (C.Trace ? "1" : "0") +
                     ",\"build_type\":" + jsonQuote(PERFBENCH_BUILD_TYPE) +
                     ",\"compiler\":" + jsonQuote(Compiler) +
                     ",\"commit\":" + jsonQuote(Commit) +
                     ",\"nproc\":" + std::to_string(NProc) +
                     ",\"jobs\":" + std::to_string(C.Jobs) +
                     ",\"clients\":1" +
                     ",\"failed_ops_ratio\":" +
                     jsonNumber(R.Attempted ? static_cast<double>(R.Failed) /
                                                  static_cast<double>(
                                                      R.Attempted)
                                            : 1.0);
  for (const std::string &P : R.Provenance)
    Prov += "," + P;
  std::string Problems;
  for (const std::string &P : R.Problems)
    Problems += (Problems.empty() ? "" : ",") + jsonQuote(P);
  Prov += ",\"problems\":[" + Problems + "]}";

  bool Correct = R.Sound && R.Failed == 0 && R.Attempted > 0;
  std::string Metrics;
  for (const Metric &M : R.Metrics)
    Metrics += (Metrics.empty() ? "" : ",") + jsonQuote(M.Name) +
               ":{\"value\":" + jsonNumber(M.Value) +
               ",\"unit\":" + jsonQuote(M.Unit) + "}";
  std::string Result = std::string("{\"correct\":") +
                       (Correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(R.Attempted) +
                       ",\"failed\":" + std::to_string(R.Failed) +
                       ",\"metrics\":{" + Metrics + "}}";

  std::string Path = C.OutDir + "/result-" + C.Workload + "-seed" +
                     std::to_string(C.Seed) + "-trace" +
                     (C.Trace ? "1" : "0") + ".json";
  if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
    std::fprintf(F, "{\"provenance\":%s,\"result\":%s}\n", Prov.c_str(),
                 Result.c_str());
    std::fclose(F);
  }
  std::printf("{\"provenance\":%s}\n%s\n", Prov.c_str(), Result.c_str());
  return 0;
}
