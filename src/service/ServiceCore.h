//===- service/ServiceCore.h - Module registry + request engine -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's engine, transport-free so tests can drive it in-process.
/// A ServiceCore owns a registry of loaded modules and answers protocol
/// requests batch by batch, wrapping each request in the robustness
/// envelope (DESIGN.md "Service robustness model"):
///
///  * deadlines — per-request VM fuel (deterministic) plus a cooperative
///    wall-clock backstop; both surface as ResourceExhausted;
///  * budgets — every load compiles into its own Arena with a byte
///    limit, and per-session totals are capped; over budget is a
///    structured ResourceExhausted, never an OOM abort;
///  * admission control — at most QueueDepth non-bypass requests per
///    batch; the rest are shed with a retry-after hint;
///  * containment — a module is quarantined on its first Status failure
///    (annotation-verifier findings at load, traps/internal errors at
///    runtime); a quarantined module answers conservatively-degraded
///    (never Current, never Recoverable) from then on, and a counter
///    (`service.unsound`) audits that promise on every answer.
///
/// Determinism rule: responses to a fixed request stream are
/// byte-identical at any Jobs.  Queries inside one batch run in
/// parallel against a *snapshot* of the registry; barrier verbs (load,
/// shutdown) split batches, and runtime quarantine transitions are
/// applied after the parallel section in request order.  Wall-clock
/// expiry and shed responses carry no timing data, so even the
/// nondeterministic escapes render deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_SERVICE_SERVICECORE_H
#define SLDB_SERVICE_SERVICECORE_H

#include "core/Classifier.h"
#include "eval/Levels.h"
#include "service/Protocol.h"
#include "support/Arena.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sldb {

/// Robustness-envelope knobs.
struct ServiceLimits {
  /// VM fuel per step/load request — the deterministic deadline.
  std::uint64_t RequestFuel = 2'000'000;

  /// Cooperative wall-clock backstop per request, milliseconds; 0
  /// disables.  Only pathological requests (a wedged dataflow, a VM bug
  /// the fuel cannot catch) ever hit it.
  std::uint32_t RequestWallMs = 10'000;

  /// Arena budget per load (bytes); 0 = unlimited.
  std::size_t LoadArenaBytes = std::size_t(64) << 20;

  /// Total arena bytes one session may hold across its loads; 0 =
  /// unlimited.
  std::size_t SessionArenaBytes = std::size_t(256) << 20;

  /// Modules the registry will hold before refusing loads.
  std::size_t MaxModules = 64;

  /// Admission control: non-bypass requests admitted per batch.
  std::size_t QueueDepth = 1024;

  /// Hint carried by shed responses.
  std::uint32_t RetryAfterMs = 50;

  /// Generated-module shape for `load ... seed:<N>`.
  unsigned GenTopStmts = 10;

  /// Max source-steps a single `step` request may ask for.
  std::uint64_t MaxStepsPerRequest = 100'000;
};

/// One loaded module: the arena-backed compile artifacts plus the
/// eagerly-built classifiers and the quarantine latch.  Members are
/// ordered so destruction tears down classifiers, then machine code,
/// then IR, then the arena (the IR memory model's ownership rule).
struct LoadedModule {
  std::string Name;
  std::string Session; ///< Session that loaded it (budget accounting).
  std::unique_ptr<Arena> A;
  std::unique_ptr<CompiledModule> Code; ///< Heap: classifiers hold refs.
  std::vector<std::unique_ptr<Classifier>> Classifiers; ///< Per function.
  /// One lock per function: Classifier's per-address cache is mutable,
  /// so concurrent queries against the same function serialize on its
  /// stripe while different functions proceed in parallel.
  std::vector<std::unique_ptr<std::mutex>> FuncLocks;

  bool Quarantined = false;
  std::string QuarantineReason;
};

/// The transport-free daemon engine.  processBatch() is the only entry
/// point and must be called from one thread at a time (the server's
/// accept loop); internal query parallelism rides the ThreadPool.
class ServiceCore {
public:
  ServiceCore(ServiceLimits Limits, unsigned Jobs)
      : Limits(Limits), Pool(Jobs) {}

  /// Processes one protocol batch: returns exactly one response line per
  /// request line, in request order.  Barrier verbs (load/shutdown)
  /// serialize; the query runs between barriers execute on the pool.
  std::vector<std::string> processBatch(const std::vector<std::string> &Lines);

  /// True once a `shutdown` request was processed.
  bool shutdownRequested() const { return ShutdownSeen; }

  std::size_t numModules() const { return Modules.size(); }
  std::size_t numQuarantined() const;
  const ServiceLimits &limits() const { return Limits; }

private:
  /// Executes one request against the current registry snapshot.
  /// \p DeferredQuarantine collects runtime-failure quarantine requests
  /// (module name + reason) to be applied after the parallel section.
  std::string execute(const Request &R,
                      std::vector<std::pair<std::string, std::string>>
                          &DeferredQuarantine);

  std::string doLoad(const Request &R);
  std::string doClassify(const Request &R, bool All);
  std::string doExplain(const Request &R);
  std::string doStep(const Request &R,
                     std::vector<std::pair<std::string, std::string>>
                         &DeferredQuarantine);
  std::string doHealth(const Request &R);
  std::string doStats(const Request &R);

  /// Resolves module/function/statement operands; returns non-ok and
  /// fills \p Err on failure.
  struct ResolvedQuery {
    LoadedModule *Mod = nullptr;
    const MachineFunction *MF = nullptr;
    Classifier *C = nullptr;
    std::mutex *Lock = nullptr;
    FuncId F = InvalidFunc;
    StmtId S = InvalidStmt;
    std::uint32_t Addr = 0;
  };
  bool resolve(const Request &R, ResolvedQuery &Q, std::string &Err,
               bool NeedStmt = true);

  /// Audits the containment promise: bumps `service.unsound` if a
  /// quarantined module produced a Current or Recoverable verdict.
  void auditContainment(const LoadedModule &Mod, const Classification &C);

  /// Renders one classification as a response fragment.
  static std::string renderClass(const Classification &C);

  /// Stream-determined counters (requests, shed, quarantine hits) plus
  /// the envelope escapes (timeouts) and the containment audit
  /// (unsound).  Atomics: bumped from inside parallel query runs.
  struct ServiceCounters {
    std::atomic<std::uint64_t> Requests{0};
    std::atomic<std::uint64_t> Shed{0};
    std::atomic<std::uint64_t> Timeouts{0};
    std::atomic<std::uint64_t> QuarantineHits{0};
    std::atomic<std::uint64_t> Unsound{0};
  };

  ServiceLimits Limits;
  ThreadPool Pool;
  std::map<std::string, std::unique_ptr<LoadedModule>> Modules;
  std::map<std::string, std::size_t> SessionBytes; ///< Arena bytes held.
  ServiceCounters Counters;
  bool ShutdownSeen = false;
};

} // namespace sldb

#endif // SLDB_SERVICE_SERVICECORE_H
