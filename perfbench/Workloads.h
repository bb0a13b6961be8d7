//===- perfbench/Workloads.h - The benchmark's workloads ------------------===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload generates its inputs from the run seed, sets up, runs a
/// closed loop with one client for the requested time, checks every
/// output outside the timed region, and reports its metrics.  With
/// tracing on, half the time runs untraced (for trace.overhead_ratio)
/// and half traced; the traced run reports the per-layer metrics
/// instead of the end-to-end ones.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  unsigned Jobs = 1;   ///< Campaign threads, and the pool of the service
                       ///< determinism check: min(nproc, 4).
  std::string OutDir; ///< Where the traced run writes its span dump.
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct RunResult {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// False when a check failed that no single op owns (a service
  /// counter, a missing per-layer metric, an unwritable span dump).
  bool Sound = true;
  std::vector<Metric> Metrics;
  std::vector<std::string> Problems; ///< First few failure descriptions.
  /// Extra provenance members, rendered as `"key":<json>` fragments.
  std::vector<std::string> Provenance;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void problem(const std::string &What);
  void provenance(const std::string &Key, const std::string &JsonValue);
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Runs one workload.  Returns false for an unknown workload name.
bool runWorkload(const RunConfig &C, RunResult &R);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
