//===- perfbench/Workloads.cpp - The benchmark's workloads ----------------===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// compile_debug and service_attach: the user-visible paths of the
/// system (compile with debug-info export; a debugger attaching to a
/// newly built module and its first breakpoint view), driven through each
/// layer's public entry points.
///
/// Per-layer metrics come from the traced half of a traced run.  A layer
/// the workload's own op reaches through calls the benchmark can wrap is
/// measured on those ops; the rest of the ledger (for example the
/// compile layers under service_attach, whose compiles happen inside the
/// service) is measured on a fixed slice built from the same seed, and
/// the result names every metric taken from the slice.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Json.h"
#include "Spans.h"

#include "analysis/AnalysisManager.h"
#include "codegen/ISel.h"
#include "codegen/RegAlloc.h"
#include "codegen/Scheduler.h"
#include "core/Classifier.h"
#include "core/DebugInfo.h"
#include "core/Debugger.h"
#include "eval/Levels.h"
#include "eval/Programs.h"
#include "frontend/Sema.h"
#include "fuzz/Campaign.h"
#include "fuzz/DiffCheck.h"
#include "fuzz/Oracle.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/QueryGen.h"
#include "ir/IRGen.h"
#include "ir/Interp.h"
#include "opt/Pass.h"
#include "service/Protocol.h"
#include "service/ServiceCore.h"
#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "vm/Machine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <set>

using namespace perfbench;
using namespace sldb;

void RunResult::problem(const std::string &What) {
  if (Problems.size() < 8)
    Problems.push_back(What);
}

void RunResult::provenance(const std::string &Key, const std::string &Json) {
  Provenance.push_back(jsonQuote(Key) + ":" + Json);
}

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "compile_debug", "service_attach"};
  return Names;
}

namespace {

//===----------------------------------------------------------------------===//
// Sizing.  Chosen so one op is 0.3-10 ms on a 4-core x86 box, every timed
// phase completes well over 1000 ops (so at least ten samples lie beyond
// op_ms_p99), and the seed-to-seed spread of the corpus-wide counts stays
// small.
//===----------------------------------------------------------------------===//

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned SetupReps = 5;

/// Windows of an untraced timed phase.  The host's speed drifts over
/// seconds (other tenants), so the end-to-end timings are medians over
/// windows of their per-window values; each window still holds well over
/// 1000 ops at 40 s, enough for its own p99.
constexpr unsigned TimedWindows = 5;

/// compile_debug corpus: generated programs (half scalar, half alias
/// grammar; 10 and 40 top-level statements) plus the 8 eval programs.
constexpr unsigned CorpusGenerated = 480;

/// service_attach: module seeds whose attach statement is learned during
/// set-up; loads cycle through them, each into a registry that has not
/// seen it.
constexpr unsigned AttachPool = 512;
/// Traced service_attach ops whose counts are reported.
constexpr unsigned AttachCountedOps = 64;

/// Worker threads of the ServiceCore under test: sldbd's default --jobs.
/// A pool of min(nproc, 4) spawns its threads per batch, and on a shared
/// 4-vCPU VM that made batch latency track the host's steal time
/// (run-to-run spread of 60-110% on a query stream).  service_attach
/// checks that a pool of min(nproc, 4) answers byte-identically.
constexpr unsigned ServicePool = 1;

/// Ops whose spans the traced run writes out (all ops feed the
/// self-time table; the dump keeps the first ones and the slice).
constexpr unsigned DumpedOps = 256;

/// service_attach's compile slice: the first pool programs.
constexpr unsigned AttachSlicePrograms = 16;

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// CPU time of the calling thread, milliseconds.  Op latencies use this
/// clock: every op runs wholly on the client thread (the service under
/// test has a pool of one, so its batches run inline), and on a shared VM
/// the wall clock also carries the host's steal and preemption, which
/// stretched op_ms_p99 by up to 45% from one run to the next.
double threadCpuMs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}

std::uint64_t splitmix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Input seed number \p Salt of run seed \p Seed.  30 bits, so a range of
/// consecutive seeds starting there never overflows 32 bits.
std::uint32_t deriveSeed(std::uint64_t Seed, std::uint64_t Salt) {
  return static_cast<std::uint32_t>(splitmix64(splitmix64(Seed) ^ Salt) &
                                    0x3fffffffu);
}

std::uint64_t fnv1a(std::string_view S,
                    std::uint64_t H = 0xcbf29ce484222325ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// The process's resident high-water mark (VmHWM).  Not getrusage's
/// ru_maxrss: Linux carries that across execve, so a binary started from
/// a larger parent would report the parent's footprint.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::strtod(Line + 6, nullptr);
  std::fclose(F);
  return Kb / 1024.0;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile of \p S, \p P in (0, 1].
double percentile(std::vector<double> S, double P) {
  std::sort(S.begin(), S.end());
  auto Rank = static_cast<std::size_t>(std::ceil(P * S.size()));
  return S[std::max<std::size_t>(Rank, 1) - 1];
}

/// Op latencies of one closed-loop phase, split by start time into equal
/// windows.
struct Latency {
  struct Window {
    std::vector<double> Ms;
    double BusyMs = 0; ///< Time spent inside ops.
  };
  std::vector<Window> Windows;

  std::size_t ops() const {
    std::size_t N = 0;
    for (const Window &W : Windows)
      N += W.Ms.size();
    return N;
  }
  double busyMs() const {
    double B = 0;
    for (const Window &W : Windows)
      B += W.BusyMs;
    return B;
  }
  /// Median over the non-empty windows of \p F(window).
  template <typename Fn> double medianOverWindows(Fn &&F) const {
    std::vector<double> V;
    for (const Window &W : Windows)
      if (!W.Ms.empty())
        V.push_back(F(W));
    return median(V);
  }
};

/// Runs \p Op back to back for \p Seconds, and at least \p MinOps times,
/// filing each latency under the window its op started in.  \p Op does
/// its own checks outside the latency it returns.
template <typename Fn>
Latency closedLoop(double Seconds, std::size_t MinOps, unsigned NumWindows,
                   Fn &&Op) {
  Latency L;
  L.Windows.resize(NumWindows);
  const auto Start = Clock::now();
  for (std::size_t N = 0;; ++N) {
    double Elapsed = msSince(Start) / 1e3;
    if (Elapsed >= Seconds && N >= MinOps)
      break;
    Latency::Window &W = L.Windows[std::min<std::size_t>(
        NumWindows - 1,
        static_cast<std::size_t>(Elapsed * NumWindows / Seconds))];
    double Ms = Op();
    W.Ms.push_back(Ms);
    W.BusyMs += Ms;
  }
  return L;
}

//===----------------------------------------------------------------------===//
// Per-layer metric ledger
//===----------------------------------------------------------------------===//

const char *const OptSlots[] = {
    "simplify", "constprop", "copyprop", "cse",     "pre",
    "licm",     "pde",       "dce",      "branchopt", "peel",
    "unroll",   "ivopt",     "inline",   "ssa_construct", "gvn",
    "sparse",   "ssa_destruct"};

/// Metric keys of the analysis cache counters, in AnalysisID order.
const char *const AnalysisKeys[] = {
    "cfg",      "dom",       "postdom",      "loops",     "values",
    "liveness", "reachdefs", "domfrontiers", "ssadefuse", "alias"};
static_assert(sizeof(AnalysisKeys) / sizeof(AnalysisKeys[0]) ==
                  NumAnalysisIDs,
              "one metric key per cached analysis");

/// Pipeline pass name -> OptSlots key; null when unknown.
const char *slotKey(const std::string &PassName) {
  static const std::map<std::string, const char *> Keys = {
      {"constant-propagation-and-folding(local)", "simplify"},
      {"constant-propagation", "constprop"},
      {"assignment-propagation", "copyprop"},
      {"redundancy-elimination(cse)", "cse"},
      {"partial-redundancy-elimination(hoisting)", "pre"},
      {"loop-invariant-code-motion", "licm"},
      {"partial-dead-code-elimination(sinking)", "pde"},
      {"dead-assignment-elimination", "dce"},
      {"branch-optimizations", "branchopt"},
      {"loop-peeling", "peel"},
      {"loop-unrolling", "unroll"},
      {"strength-reduction-and-ivopt", "ivopt"},
      {"inline", "inline"},
      {"ssa-construct", "ssa_construct"},
      {"gvn", "gvn"},
      {"sparse-prop", "sparse"},
      {"ssa-destruct", "ssa_destruct"}};
  auto It = Keys.find(PassName);
  return It == Keys.end() ? nullptr : It->second;
}

/// How a per-layer metric folds its samples.
enum class Fold { Mean, Total };

struct LayerMetric {
  std::string Name;
  const char *Unit;
  Fold F;
};

/// Every per-layer metric, in BENCHMARK.json order.  Times are means
/// per call; counts are totals over a fixed set of ops, so they repeat
/// exactly for a seed.
const std::vector<LayerMetric> &layerMetrics() {
  static const std::vector<LayerMetric> Ms = [] {
    std::vector<LayerMetric> V = {
        {"frontend.ms", "ms", Fold::Mean},
        {"ir.irgen_ms", "ms", Fold::Mean},
        {"ir.instrs_in", "count", Fold::Total},
        {"ir.instrs_out", "count", Fold::Total},
        {"opt.ms", "ms", Fold::Mean}};
    for (const char *S : OptSlots) {
      V.push_back({std::string("opt.") + S + ".ms", "ms", Fold::Mean});
      V.push_back({std::string("opt.") + S + ".changed", "count", Fold::Total});
    }
    V.push_back({"analysis.hits", "count", Fold::Total});
    V.push_back({"analysis.misses", "count", Fold::Total});
    for (const char *A : AnalysisKeys)
      V.push_back({std::string("analysis.") + A + ".misses", "count",
                   Fold::Total});
    std::vector<LayerMetric> Rest = {
        {"codegen.isel_ms", "ms", Fold::Mean},
        {"codegen.sched_ms", "ms", Fold::Mean},
        {"codegen.regalloc_ms", "ms", Fold::Mean},
        {"codegen.minstrs", "count", Fold::Total},
        {"codegen.frame_words", "count", Fold::Total},
        {"core.classifier_build_ms", "ms", Fold::Mean},
        {"core.debuginfo_ms", "ms", Fold::Mean},
        {"core.debuginfo_kb", "KB", Fold::Total},
        {"core.classify_us", "us", Fold::Mean},
        {"core.classify_all_us", "us", Fold::Mean},
        {"core.explain_us", "us", Fold::Mean},
        {"core.query_cache_hit_ratio", "ratio", Fold::Mean},
        {"core.degraded_queries", "count", Fold::Total},
        {"vm.step_us", "us", Fold::Mean},
        {"vm.instrs", "count", Fold::Total},
        {"service.load_batch_ms", "ms", Fold::Mean},
        {"service.query_batch_ms", "ms", Fold::Mean},
        {"service.overhead_ms", "ms", Fold::Mean},
        {"service.shed", "count", Fold::Total},
        {"service.timeouts", "count", Fold::Total},
        {"service.unsound", "count", Fold::Total},
        {"fuzz.gen_ms", "ms", Fold::Mean},
        {"fuzz.lockstep_ms", "ms", Fold::Mean},
        {"fuzz.check_ms", "ms", Fold::Mean},
        {"fuzz.stops", "count", Fold::Total},
        {"fuzz.observations", "count", Fold::Total},
        {"fuzz.worker_busy_ratio", "ratio", Fold::Mean},
        {"support.arena_kb", "KB", Fold::Mean}};
    V.insert(V.end(), Rest.begin(), Rest.end());
    return V;
  }();
  return Ms;
}

/// Samples of the per-layer metrics.
class Ledger {
public:
  void add(const std::string &Key, double V) {
    Acc &A = M[Key];
    A.Sum += V;
    ++A.N;
  }
  bool has(const std::string &Key) const { return M.count(Key) != 0; }
  double value(const LayerMetric &LM) const {
    const Acc &A = M.at(LM.Name);
    return LM.F == Fold::Mean ? A.Sum / static_cast<double>(A.N) : A.Sum;
  }

  /// Pipeline slots with no OptSlots key (the benchmark lags the
  /// pipeline); reported as a problem.
  std::set<std::string> UnknownSlots;

private:
  struct Acc {
    double Sum = 0;
    std::uint64_t N = 0;
  };
  std::map<std::string, Acc> M;
};

/// What a traced run collects: spans, plus the ledger of the workload's
/// own ops and the ledger of the fixed slice.
struct TraceState {
  Tracer T;
  Ledger Ops;
  Ledger Slice;
  std::uint64_t NextOp = 1;

  /// Starts a new op: stamps its id on the spans that follow.
  void newOp() { T.setOp(NextOp++); }
};

//===----------------------------------------------------------------------===//
// Compilation: the compile_debug op, its traced variant, and the checks
//===----------------------------------------------------------------------===//

/// One compiled program.  Members are ordered so the machine code dies
/// before the IR; both live in the caller's arena, which the caller
/// resets only after this is gone.
struct Compiled {
  std::unique_ptr<IRModule> IR;
  std::optional<MachineModule> MM;
  std::string DebugInfo;
  std::string Error;
};

const LevelSpec &opLevel(std::size_t K) {
  return levelSpec(K % 2 ? PipelineLevel::O2Ssa : PipelineLevel::O2);
}

/// The compile_debug op: front end, IRGen, optimizer, back end and the
/// debug-info export, in \p A (one arena per module, as `sldbc --batch`).
bool compileOp(const std::string &Src, const LevelSpec &L, Arena &A,
               Compiled &Out) {
  DiagnosticEngine Diags;
  FrontendResult FR = runFrontend(Src, Diags);
  if (!FR.TU) {
    Out.Error = "front end: " + Diags.str();
    return false;
  }
  Out.IR = generateIR(*FR.TU, std::move(FR.Info), &Diags, &A);
  if (!Out.IR) {
    Out.Error = "irgen: " + Diags.str();
    return false;
  }
  Status PS = runPipelineEx(*Out.IR, L.Opts, PipelineConfig());
  if (!PS.ok()) {
    Out.Error = PS.str();
    return false;
  }
  CodegenOptions CG;
  CG.PromoteVars = L.Promote;
  Expected<MachineModule> MME = compileToMachineE(*Out.IR, CG, &A);
  if (!MME) {
    Out.Error = MME.status().str();
    return false;
  }
  Out.MM.emplace(std::move(*MME));
  Out.DebugInfo = renderDebugInfo(*Out.MM);
  return true;
}

double countIR(const IRModule &M) {
  std::size_t N = 0;
  for (const IRFunction *F : M.Funcs)
    for (const BasicBlock *B : F->Blocks)
      N += B->Insts.size();
  return static_cast<double>(N);
}

double machineInstrs(const MachineModule &MM) {
  double N = 0;
  for (const MachineFunction &F : MM.Funcs)
    N += F.numInstrs();
  return N;
}

void recordPipelineStats(const PipelineStats &PS, Ledger &Lg, bool Counts) {
  std::map<std::string, std::pair<double, unsigned>> PerKey;
  for (const char *K : OptSlots)
    PerKey[K];
  for (const PassSlotStats &S : PS.Slots) {
    const char *K = slotKey(S.Name);
    if (!K) {
      Lg.UnknownSlots.insert(S.Name);
      continue;
    }
    PerKey[K].first += S.WallMs;
    PerKey[K].second += S.Changed;
  }
  for (const auto &[K, V] : PerKey) {
    Lg.add("opt." + K + ".ms", V.first);
    if (Counts)
      Lg.add("opt." + K + ".changed", V.second);
  }
  if (!Counts)
    return;
  Lg.add("analysis.hits", static_cast<double>(PS.Analyses.totalHits()));
  Lg.add("analysis.misses", static_cast<double>(PS.Analyses.totalMisses()));
  for (unsigned I = 0; I < NumAnalysisIDs; ++I)
    Lg.add(std::string("analysis.") + AnalysisKeys[I] + ".misses",
           static_cast<double>(PS.Analyses.Misses[I]));
}

/// compileOp with a span around each layer call.  The back end runs as
/// its three public steps (selectModule, scheduleFunction,
/// allocateRegistersE) so each gets its own span; that is what
/// compileToMachineE does, minus fault injection, which no run arms.
/// \p Counts adds the count metrics (only for a fixed set of ops, so
/// they repeat exactly).
bool compileTraced(const std::string &Src, const LevelSpec &L, Arena &A,
                   Compiled &Out, Tracer &T, Ledger &Lg, bool Counts) {
  DiagnosticEngine Diags;
  std::int32_t Id = T.begin("frontend", "frontend");
  FrontendResult FR = runFrontend(Src, Diags);
  T.end(Id);
  Lg.add("frontend.ms", T.ms(Id));
  if (!FR.TU) {
    Out.Error = "front end: " + Diags.str();
    return false;
  }

  Id = T.begin("ir.irgen", "ir");
  Out.IR = generateIR(*FR.TU, std::move(FR.Info), &Diags, &A);
  T.end(Id);
  Lg.add("ir.irgen_ms", T.ms(Id));
  if (!Out.IR) {
    Out.Error = "irgen: " + Diags.str();
    return false;
  }
  if (Counts)
    Lg.add("ir.instrs_in", countIR(*Out.IR));

  PipelineConfig PC;
  PC.TimePasses = true;
  PipelineStats PS;
  Id = T.begin("opt", "opt");
  Status St = runPipelineEx(*Out.IR, L.Opts, PC, &PS);
  T.end(Id);
  Lg.add("opt.ms", T.ms(Id));
  if (!St.ok()) {
    Out.Error = St.str();
    return false;
  }
  recordPipelineStats(PS, Lg, Counts);
  if (Counts)
    Lg.add("ir.instrs_out", countIR(*Out.IR));

  CodegenOptions CG;
  CG.PromoteVars = L.Promote;
  Id = T.begin("codegen.isel", "codegen");
  MachineModule MM = selectModule(*Out.IR, CG, &A);
  T.end(Id);
  Lg.add("codegen.isel_ms", T.ms(Id));
  Id = T.begin("codegen.sched", "codegen");
  if (CG.Schedule)
    for (MachineFunction &MF : MM.Funcs)
      scheduleFunction(MF);
  T.end(Id);
  Lg.add("codegen.sched_ms", T.ms(Id));
  Id = T.begin("codegen.regalloc", "codegen");
  Status RA;
  for (MachineFunction &MF : MM.Funcs) {
    RA = allocateRegistersE(MF, *Out.IR->Info);
    if (!RA.ok())
      break;
  }
  T.end(Id);
  Lg.add("codegen.regalloc_ms", T.ms(Id));
  if (!RA.ok()) {
    Out.Error = RA.str();
    return false;
  }
  if (Counts) {
    double Frame = 0;
    for (const MachineFunction &MF : MM.Funcs)
      Frame += MF.FrameSize;
    Lg.add("codegen.minstrs", machineInstrs(MM));
    Lg.add("codegen.frame_words", Frame);
  }
  Out.MM.emplace(std::move(MM));

  Id = T.begin("core.debuginfo", "core");
  Out.DebugInfo = renderDebugInfo(*Out.MM);
  T.end(Id);
  Lg.add("core.debuginfo_ms", T.ms(Id));
  if (Counts) {
    Lg.add("core.debuginfo_kb", static_cast<double>(Out.DebugInfo.size()) /
                                    1024.0);
    Lg.add("support.arena_kb",
           static_cast<double>(A.bytesAllocated()) / 1024.0);
  }
  return true;
}

/// After a traced compile, outside the op: build the classifiers a
/// debugger session needs (the service builds them eagerly at load) and
/// run the program on the VM.
void afterCompileProbes(const Compiled &C, Tracer &T, Ledger &Lg,
                        bool Counts) {
  std::int32_t Id = T.begin("core.classifier_build", "core", true);
  {
    std::vector<std::unique_ptr<Classifier>> Cs;
    for (const MachineFunction &MF : C.MM->Funcs)
      Cs.push_back(std::make_unique<Classifier>(MF, *C.MM->Info));
  }
  T.end(Id);
  Lg.add("core.classifier_build_ms", T.ms(Id));
  Id = T.begin("vm.run", "vm", true);
  Machine M(*C.MM);
  M.run();
  T.end(Id);
  if (Counts)
    Lg.add("vm.instrs", static_cast<double>(M.instrCount()));
}

/// One corpus program with its reference run: the IR interpreter on the
/// unoptimized IR, independent of the optimizer, back end and VM.
struct Program {
  std::string Name;
  std::string Source;
  bool RefOk = false;
  ExecResult Ref;
};

std::vector<Program> makeCorpus(std::uint64_t Seed) {
  std::vector<Program> Ps;
  for (unsigned I = 0; I < CorpusGenerated; ++I) {
    GenOptions G;
    G.Alias = I % 2;
    G.TopStmts = (I / 2) % 2 ? 40 : 10;
    std::uint32_t S = deriveSeed(Seed, 1000 + I);
    Program P;
    P.Name = "gen" + std::to_string(S) + (G.Alias ? "-alias-" : "-") +
             std::to_string(G.TopStmts);
    P.Source = generateProgram(S, G);
    Ps.push_back(std::move(P));
  }
  for (const BenchProgram &B : benchmarkPrograms()) {
    Program P;
    P.Name = std::string("eval-") + B.Name;
    P.Source = B.Source;
    Ps.push_back(std::move(P));
  }
  for (Program &P : Ps) {
    DiagnosticEngine D;
    std::unique_ptr<IRModule> IR = compileToIR(P.Source, D);
    if (IR) {
      P.RefOk = true;
      P.Ref = interpretIR(*IR);
    }
  }
  return Ps;
}

/// Runs the compiled program on the VM and compares output, exit value
/// and trapping with the reference.  Returns "" when they agree.
std::string checkRun(const Program &P, const MachineModule &MM,
                     std::uint64_t &Instrs) {
  if (!P.RefOk)
    return "the unoptimized reference build failed";
  Machine M(MM);
  StopReason R = M.run();
  Instrs = M.instrCount();
  if (P.Ref.Trapped)
    return R == StopReason::Trapped ? "" : "reference traps, VM run does not";
  if (R != StopReason::Exited)
    return "VM run did not exit: " + M.trapMessage();
  if (M.exitValue() != P.Ref.ExitValue)
    return "exit value differs from the reference";
  if (M.outputText() != P.Ref.outputText())
    return "output differs from the reference";
  return "";
}

/// The corpus-wide checks and counts: every (program, level) compiled,
/// run against its reference, and its export schema-checked.
struct CorpusCheck {
  std::vector<std::uint64_t> Digest; ///< Per op slot; 0 = failed.
  double CodeInstrs = 0;
  double RunInstrs = 0;
  AvailCoverage Cov;
  unsigned Failures = 0;
};

CorpusCheck checkCorpus(const std::vector<Program> &Ps, RunResult &R) {
  CorpusCheck C;
  Arena A(1 << 20);
  for (std::size_t K = 0; K < 2 * Ps.size(); ++K) {
    const Program &P = Ps[K / 2];
    const LevelSpec &L = opLevel(K);
    std::string Err;
    {
      Compiled Out;
      if (!compileOp(P.Source, L, A, Out)) {
        Err = Out.Error;
      } else {
        std::uint64_t Instrs = 0;
        Err = checkRun(P, *Out.MM, Instrs);
        AvailCoverage Cov;
        if (Err.empty() && !addAvailCoverage(Out.DebugInfo, Cov))
          Err = "debug-info export is not well-formed sldb-dwarf-0";
        if (Err.empty()) {
          C.CodeInstrs += machineInstrs(*Out.MM);
          C.RunInstrs += static_cast<double>(Instrs);
          C.Cov.AvailInstrs += Cov.AvailInstrs;
          C.Cov.TotalInstrs += Cov.TotalInstrs;
          C.Digest.push_back(fnv1a(Out.DebugInfo) | 1);
        }
      }
    }
    A.reset();
    if (!Err.empty()) {
      C.Digest.push_back(0);
      ++C.Failures;
      R.problem(P.Name + " at " + L.Name + ": " + Err);
    }
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Service requests: response checks and the direct replay
//===----------------------------------------------------------------------===//

/// The status word of a response line: "ok", "err" or "shed".
std::string_view responseStatus(std::string_view Line) {
  if (!Line.empty() && Line[0] == '@') {
    std::size_t Sp = Line.find(' ');
    Line = Sp == std::string_view::npos ? "" : Line.substr(Sp + 1);
  }
  return Line.substr(0, Line.find(' '));
}

/// The stream generator's deliberately invalid requests (fuzz/QueryGen).
bool deliberatelyInvalid(std::string_view Line) {
  for (std::string_view Mark : {" no-such-module ", " no_such_func ",
                                " 9999 ", " frobnicate ", " not-a-number"})
    if (Line.find(Mark) != std::string_view::npos)
      return true;
  return false;
}

/// One response per request, nothing shed, and `err` exactly on the
/// deliberately invalid requests.  Returns "" when the batch is clean.
std::string checkBatch(const std::vector<std::string> &Reqs,
                       const std::vector<std::string> &Resps) {
  if (Reqs.size() != Resps.size())
    return "response count differs from request count";
  for (std::size_t I = 0; I < Reqs.size(); ++I) {
    std::string_view St = responseStatus(Resps[I]);
    bool Invalid = deliberatelyInvalid(Reqs[I]);
    if (St == "ok" && !Invalid)
      continue;
    if (St == "err" && Invalid)
      continue;
    return "'" + Reqs[I] + "' answered '" + Resps[I] + "'";
  }
  return "";
}

/// shed / timeouts / unsound from the service's `stats` verb.
struct ServiceCounters {
  double Shed = 0, Timeouts = 0, Unsound = 0;
};

ServiceCounters readCounters(ServiceCore &Core) {
  ServiceCounters C;
  std::vector<std::string> R = Core.processBatch({"stats"});
  auto Field = [&](const char *Key) {
    std::string Pat = std::string(" ") + Key + "=";
    std::size_t P = R.empty() ? std::string::npos : R[0].find(Pat);
    return P == std::string::npos
               ? -1.0
               : std::strtod(R[0].c_str() + P + Pat.size(), nullptr);
  };
  C.Shed = Field("shed");
  C.Timeouts = Field("timeouts");
  C.Unsound = Field("unsound");
  return C;
}

/// Adds \p C to the ledger and reports any non-zero (or unreadable)
/// counter: each one is a promise of the service broken.
void recordCounters(const ServiceCounters &C, Ledger &Lg, RunResult &R) {
  Lg.add("service.shed", C.Shed);
  Lg.add("service.timeouts", C.Timeouts);
  Lg.add("service.unsound", C.Unsound);
  if (C.Shed != 0 || C.Timeouts != 0 || C.Unsound != 0) {
    R.Sound = false;
    R.problem("service counters: shed=" + jsonNumber(C.Shed) + " timeouts=" +
              jsonNumber(C.Timeouts) + " unsound=" + jsonNumber(C.Unsound));
  }
}

/// Replays protocol requests directly against core and vm, the way the
/// service executes them but without protocol, admission, pool or locks:
/// the reference that service.overhead_ms subtracts.
class DirectReplay {
public:
  /// Compiles `seed:<N>` the way a service load does (default pipeline
  /// and codegen) and builds its classifiers.
  bool load(const std::string &Name, std::uint32_t Seed) {
    auto M = std::make_unique<Mod>();
    M->A = std::make_unique<Arena>(1 << 16);
    GenOptions GO;
    GO.TopStmts = Limits.GenTopStmts;
    DiagnosticEngine D;
    M->IR = compileToIR(generateProgram(Seed, GO), D, M->A.get());
    if (!M->IR || !runPipelineEx(*M->IR, OptOptions::all(), PipelineConfig())
                       .ok())
      return false;
    Expected<MachineModule> MME =
        compileToMachineE(*M->IR, CodegenOptions(), M->A.get());
    if (!MME)
      return false;
    M->MM = std::make_unique<MachineModule>(std::move(*MME));
    for (const MachineFunction &MF : M->MM->Funcs)
      M->Cls.push_back(std::make_unique<Classifier>(MF, *M->MM->Info));
    Mods[Name] = std::move(M);
    return true;
  }

  /// Loads every `load <name> seed:<N>` line of \p Batch.
  bool loadBatch(const std::vector<std::string> &Batch) {
    for (const std::string &Line : Batch) {
      Request Rq = parseRequest(Line);
      if (Rq.V != Verb::Load || Rq.Args.size() < 2 ||
          Rq.Args[1].rfind("seed:", 0) != 0)
        return false;
      auto Seed = static_cast<std::uint32_t>(
          std::strtoul(Rq.Args[1].c_str() + 5, nullptr, 10));
      if (!load(Rq.Args[0], Seed))
        return false;
    }
    return true;
  }

  void clear() { Mods.clear(); }

  /// Replays \p Batch under one replay root span; returns its duration.
  double replayBatch(const std::vector<std::string> &Batch, Tracer &T,
                     Ledger &Lg, bool Counts) {
    std::int32_t Root = T.begin("replay.batch", "client", true);
    for (const std::string &Line : Batch)
      replay(parseRequest(Line), T, Lg, Counts);
    T.end(Root);
    return T.ms(Root);
  }

  /// Query-cache hit ratio over every classifier of the replay.
  double cacheHitRatio() const {
    double H = 0, M = 0;
    for (const auto &[Name, Mo] : Mods)
      for (const auto &C : Mo->Cls) {
        H += static_cast<double>(C->queryCacheStats().Hits);
        M += static_cast<double>(C->queryCacheStats().Misses);
      }
    return H + M > 0 ? H / (H + M) : 0;
  }

private:
  struct Mod {
    std::unique_ptr<Arena> A;
    std::unique_ptr<IRModule> IR;
    std::unique_ptr<MachineModule> MM;
    std::vector<std::unique_ptr<Classifier>> Cls;
  };

  struct Target {
    Mod *M = nullptr;
    FuncId F = InvalidFunc;
    StmtId S = InvalidStmt;
    std::uint32_t Addr = 0;
  };

  /// The service's operand resolution; false for an invalid request.
  bool resolve(const Request &Rq, Target &Tg) const {
    if (Rq.Args.size() < 3)
      return false;
    auto It = Mods.find(Rq.Args[0]);
    if (It == Mods.end())
      return false;
    Tg.M = It->second.get();
    const ProgramInfo &Info = *Tg.M->MM->Info;
    Tg.F = Info.findFunc(Rq.Args[1]);
    if (Tg.F == InvalidFunc || Tg.F >= Tg.M->MM->Funcs.size())
      return false;
    char *End = nullptr;
    unsigned long S = std::strtoul(Rq.Args[2].c_str(), &End, 10);
    if (!End || *End || S >= Info.func(Tg.F).Stmts.size())
      return false;
    const MachineFunction &MF = Tg.M->MM->Funcs[Tg.F];
    if (S >= MF.StmtAddr.size() || MF.StmtAddr[S] < 0)
      return false;
    Tg.S = static_cast<StmtId>(S);
    Tg.Addr = static_cast<std::uint32_t>(MF.StmtAddr[S]);
    return true;
  }

  static VarId findVar(const ProgramInfo &Info, FuncId F, StmtId S,
                       const std::string &Name) {
    for (VarId V : Info.func(F).Stmts[S].ScopeVars)
      if (Info.var(V).Name == Name)
        return V;
    for (VarId V : Info.Globals)
      if (Info.var(V).Name == Name)
        return V;
    return InvalidVar;
  }

  static void countDegraded(const Classification &C, Ledger &Lg,
                            bool Counts) {
    if (Counts)
      Lg.add("core.degraded_queries", C.Degraded ? 1 : 0);
  }

  void replay(const Request &Rq, Tracer &T, Ledger &Lg, bool Counts) {
    Target Tg;
    switch (Rq.V) {
    case Verb::Classify:
    case Verb::Explain: {
      if (Rq.Args.size() < 4 || !resolve(Rq, Tg))
        return;
      const ProgramInfo &Info = *Tg.M->MM->Info;
      VarId V = findVar(Info, Tg.F, Tg.S, Rq.Args[3]);
      if (V == InvalidVar)
        return;
      const Classifier &C = *Tg.M->Cls[Tg.F];
      bool Explain = Rq.V == Verb::Explain;
      std::int32_t Id = T.begin(Explain ? "core.explain" : "core.classify",
                                "core");
      Classification Cl;
      if (Explain) {
        // Rendered too, as the service's explain verb does.
        Explanation E = C.explain(Tg.Addr, V);
        std::string Json = C.renderExplainJson(E);
        Cl = E.Result;
      } else {
        Cl = C.classify(Tg.Addr, V);
      }
      T.end(Id);
      Lg.add(Explain ? "core.explain_us" : "core.classify_us",
             T.ms(Id) * 1e3);
      countDegraded(Cl, Lg, Counts);
      return;
    }
    case Verb::ClassifyAll: {
      if (!resolve(Rq, Tg))
        return;
      const ProgramInfo &Info = *Tg.M->MM->Info;
      std::vector<VarId> Vars = Info.func(Tg.F).Stmts[Tg.S].ScopeVars;
      for (VarId G : Info.Globals)
        Vars.push_back(G);
      std::int32_t Id = T.begin("core.classify_all", "core");
      std::vector<Classification> Cs =
          Tg.M->Cls[Tg.F]->classifyAll(Tg.Addr, Vars);
      T.end(Id);
      Lg.add("core.classify_all_us", T.ms(Id) * 1e3);
      for (const Classification &Cl : Cs)
        countDegraded(Cl, Lg, Counts);
      return;
    }
    case Verb::Step: {
      if (Rq.Args.size() < 2)
        return;
      auto It = Mods.find(Rq.Args[0]);
      char *End = nullptr;
      unsigned long long N = std::strtoull(Rq.Args[1].c_str(), &End, 10);
      if (It == Mods.end() || !End || *End || N == 0 ||
          N > Limits.MaxStepsPerRequest)
        return;
      std::int32_t Id = T.begin("vm.step", "vm");
      Debugger D(*It->second->MM, Limits.RequestFuel);
      if (D.startPaused() != StopReason::Trapped)
        for (unsigned long long I = 0; I < N; ++I)
          if (D.stepStmt() != StopReason::Breakpoint)
            break;
      T.end(Id);
      Lg.add("vm.step_us", T.ms(Id) * 1e3);
      return;
    }
    default:
      return;
    }
  }

  ServiceLimits Limits;
  std::map<std::string, std::unique_ptr<Mod>> Mods;
};

//===----------------------------------------------------------------------===//
// Fuzz campaign rounds
//===----------------------------------------------------------------------===//

/// The slice's campaign round: 2 x jobs seeds from \p Base in both
/// promote modes, no shrinking, no reproducer files.
CampaignConfig roundConfig(std::uint32_t Base, unsigned Jobs) {
  CampaignConfig CC;
  CC.Seed = Base;
  CC.Count = 2 * Jobs;
  CC.BothPromoteModes = true;
  CC.Shrink = false;
  CC.WriteFailures = false;
  CC.Jobs = Jobs;
  return CC;
}

/// A round passes when every unit ran and nothing failed or was refused.
bool checkRound(const CampaignConfig &CC, const CampaignResult &CR,
                RunResult &R) {
  if (!CR.ConfigError.empty()) {
    R.problem("campaign refused: " + CR.ConfigError);
    return false;
  }
  for (const CampaignFailure &F : CR.Failures)
    R.problem("campaign seed " + std::to_string(F.Seed) +
              (F.Promote ? " promote: " : " frame: ") +
              (F.Violations.empty() ? std::string("failure")
                                    : F.Violations.front().str()));
  return CR.Failures.empty() && CR.SkippedUnits == 0 &&
         CR.Runs == 2 * CC.Count;
}

/// Traced round: the campaign under one span, and its parallel
/// efficiency from the pool's per-worker busy time.
CampaignResult tracedRound(const CampaignConfig &CC, Tracer &T, Ledger &Lg) {
  std::int32_t Id = T.begin("fuzz.campaign", "fuzz");
  CampaignResult CR = runCampaign(CC);
  T.end(Id);
  double Busy = 0;
  for (const CampaignWorkerStats &W : CR.Workers)
    Busy += static_cast<double>(W.BusyUs);
  if (!CR.Workers.empty() && T.ms(Id) > 0)
    Lg.add("fuzz.worker_busy_ratio",
           Busy / 1e3 / (T.ms(Id) * static_cast<double>(CR.Workers.size())));
  return CR;
}

/// Adds a round's counts, then re-runs each of its units serially
/// through the fuzz layer's own entry points (outside the op) so
/// generation, lockstep and judging get separate times.
void replayRound(const CampaignConfig &CC, const CampaignResult &CR,
                 Tracer &T, Ledger &Lg) {
  Lg.add("fuzz.stops", static_cast<double>(CR.Stops));
  Lg.add("fuzz.observations", static_cast<double>(CR.Observations));
  std::int32_t Root = T.begin("replay.round", "client", true);
  for (unsigned U = 0; U < 2 * CC.Count; ++U) {
    std::int32_t S = T.begin("fuzz.gen", "fuzz");
    std::string Src = generateProgram(CC.Seed + U / 2, CC.Gen);
    T.end(S);
    Lg.add("fuzz.gen_ms", T.ms(S));
    LockstepOptions LO;
    LO.Promote = U % 2 == 0;
    LO.MaxStops = CC.MaxStops;
    S = T.begin("fuzz.lockstep", "fuzz");
    LockstepResult LR = runLockstep(Src, LO);
    T.end(S);
    Lg.add("fuzz.lockstep_ms", T.ms(S));
    S = T.begin("fuzz.check", "fuzz");
    std::vector<Violation> Vs = checkSoundness(LR); // Judged by the round.
    T.end(S);
    Lg.add("fuzz.check_ms", T.ms(S));
  }
  T.end(Root);
}

//===----------------------------------------------------------------------===//
// The fixed slice: the ledger of layers a workload's op does not reach
//===----------------------------------------------------------------------===//

/// Compile layers: each source at O2 and at O2ssa, traced, plus the
/// classifier build and the VM run.
void compileSlice(const std::vector<std::string> &Sources, TraceState &TS,
                  RunResult &R) {
  TS.T.setOp(0);
  Arena A(1 << 20);
  for (std::size_t K = 0; K < 2 * Sources.size(); ++K) {
    {
      Compiled Out;
      if (compileTraced(Sources[K / 2], opLevel(K), A, Out, TS.T, TS.Slice,
                        true))
        afterCompileProbes(Out, TS.T, TS.Slice, true);
      else
        R.problem("slice compile: " + Out.Error);
    }
    A.reset();
  }
}

/// A small query stream through a service core and its direct replay:
/// the service and query metrics.
QueryStreamOptions sliceStreamOptions(std::uint64_t Seed) {
  QueryStreamOptions O;
  O.Sessions = 2;
  O.ModulesPerSession = 2;
  O.QueriesPerSession = 64;
  O.BaseSeed = deriveSeed(Seed, 40000);
  return O;
}

void serviceSlice(const RunConfig &C, TraceState &TS, RunResult &R) {
  TS.T.setOp(0);
  QueryStream S = generateQueryStream(sliceStreamOptions(C.Seed));
  ServiceCore Core(ServiceLimits(), ServicePool);
  DirectReplay Replay;
  std::int32_t Id = TS.T.begin("service.batch", "service");
  std::vector<std::string> Resp = Core.processBatch(S.Batches[0]);
  TS.T.end(Id);
  TS.Slice.add("service.load_batch_ms", TS.T.ms(Id));
  std::string Err = checkBatch(S.Batches[0], Resp);
  if (!Replay.loadBatch(S.Batches[0]))
    Err = "direct replay could not load the slice modules";
  for (std::size_t B = 1; B < S.Batches.size() && Err.empty(); ++B) {
    Id = TS.T.begin("service.batch", "service");
    Resp = Core.processBatch(S.Batches[B]);
    TS.T.end(Id);
    TS.Slice.add("service.query_batch_ms", TS.T.ms(Id));
    TS.Slice.add("service.overhead_ms",
                 TS.T.ms(Id) -
                     Replay.replayBatch(S.Batches[B], TS.T, TS.Slice, true));
    Err = checkBatch(S.Batches[B], Resp);
  }
  if (!Err.empty()) {
    R.Sound = false;
    R.problem("service slice: " + Err);
  }
  TS.Slice.add("core.query_cache_hit_ratio", Replay.cacheHitRatio());
  recordCounters(readCounters(Core), TS.Slice, R);
}

void fuzzSlice(const RunConfig &C, TraceState &TS, RunResult &R) {
  TS.T.setOp(0);
  CampaignConfig CC = roundConfig(deriveSeed(C.Seed, 50000), C.Jobs);
  CampaignResult CR = tracedRound(CC, TS.T, TS.Slice);
  if (!checkRound(CC, CR, R))
    R.Sound = false;
  replayRound(CC, CR, TS.T, TS.Slice);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

/// The end-to-end metrics of an untraced run.
/// \p RssMb is read when the timed phase ends, before any later check
/// can raise it.
void reportEndToEnd(RunResult &R, const Latency &L, double SetupS,
                    double RssMb, const CorpusCheck &Q) {
  using W = Latency::Window;
  auto Rate = [](const W &X) {
    return static_cast<double>(X.Ms.size()) / (X.BusyMs / 1e3);
  };
  auto P50 = [](const W &X) { return percentile(X.Ms, 0.50); };
  auto P99 = [](const W &X) { return percentile(X.Ms, 0.99); };
  R.metric("setup_s", SetupS, "s");
  R.metric("ops_per_s", L.medianOverWindows(Rate), "op/s");
  R.metric("op_ms_p50", L.medianOverWindows(P50), "ms");
  R.metric("op_ms_p99", L.medianOverWindows(P99), "ms");
  R.metric("peak_rss_mb", RssMb, "MB");
  R.metric("code_instrs", Q.CodeInstrs, "count");
  R.metric("run_instrs", Q.RunInstrs, "count");
  R.metric("avail_ratio",
           Q.Cov.TotalInstrs > 0 ? Q.Cov.AvailInstrs / Q.Cov.TotalInstrs : 0,
           "ratio");
  R.provenance("latency_clock", jsonQuote("client thread CPU time"));
  std::size_t Fewest = L.ops();
  for (const W &X : L.Windows)
    Fewest = std::min(Fewest, X.Ms.size());
  R.provenance(
      "samples",
      "{\"ops\":" + std::to_string(L.ops()) +
          ",\"windows\":" + std::to_string(L.Windows.size()) +
          ",\"fewest_ops_per_window\":" + std::to_string(Fewest) +
          ",\"fewest_beyond_p99\":" +
          std::to_string(Fewest - static_cast<std::size_t>(
                                      std::ceil(0.99 * Fewest))) +
          ",\"setup_reps\":" + std::to_string(SetupReps) + "}");
}

/// The per-layer metrics of a traced run, the self-time table and the
/// span dump.  \p Untraced and \p Traced are the two halves' latencies.
void reportPerLayer(const RunConfig &C, RunResult &R, TraceState &TS,
                    const Latency &Untraced, const Latency &Traced) {
  std::string FromSlice;
  for (const LayerMetric &LM : layerMetrics()) {
    const Ledger *Src = TS.Ops.has(LM.Name)     ? &TS.Ops
                        : TS.Slice.has(LM.Name) ? &TS.Slice
                                                : nullptr;
    if (!Src) {
      R.Sound = false;
      R.problem("per-layer metric " + LM.Name + " was not measured");
      continue;
    }
    if (Src == &TS.Slice)
      FromSlice += (FromSlice.empty() ? "" : ",") + jsonQuote(LM.Name);
    R.metric(LM.Name, Src->value(LM), LM.Unit);
  }
  // Both halves' rates are ops per CPU second inside ops, so the ratio is
  // the cost of the spans and of the per-layer calls they wrap.
  R.metric("trace.overhead_ratio",
           (static_cast<double>(Traced.ops()) / Traced.busyMs()) /
               (static_cast<double>(Untraced.ops()) / Untraced.busyMs()),
           "ratio");
  for (const Ledger *Lg : {&TS.Ops, &TS.Slice})
    for (const std::string &S : Lg->UnknownSlots) {
      R.Sound = false;
      R.problem("pipeline slot '" + S + "' has no per-layer metric");
    }
  R.provenance("per_layer_from_slice", "[" + FromSlice + "]");

  std::string Self;
  for (const auto &[Layer, Ms] : TS.T.selfMsByLayer())
    Self += (Self.empty() ? "" : ",") + jsonQuote(Layer) + ":" +
            jsonNumber(Ms / static_cast<double>(Traced.ops()));
  R.provenance("self_ms_per_op", "{" + Self + "}");
  R.provenance("traced_ops", std::to_string(Traced.ops()));

  std::string Path = C.OutDir + "/spans-" + C.Workload + "-seed" +
                     std::to_string(C.Seed) + ".json";
  std::string Header = "\"workload\":" + jsonQuote(C.Workload) +
                       ",\"seed\":" + std::to_string(C.Seed) +
                       ",\"self_ms_per_op\":{" + Self + "}" +
                       ",\"dumped_ops\":" + std::to_string(DumpedOps);
  if (!TS.T.write(Path, Header, DumpedOps)) {
    R.Sound = false;
    R.problem("cannot write span dump " + Path);
  } else {
    R.provenance("span_dump", jsonQuote(Path));
  }
}

/// ROADMAP's layer split was measured over fuzz seeds 1000-1059 plus the
/// 8 eval programs at O2, min of 5 runs.  The traced compile_debug run
/// repeats that measurement (min of 3) so the two can be set side by
/// side; the comparison is reported, never used to tune anything.
std::string roadmapComparison() {
  std::vector<std::string> Sources;
  for (std::uint32_t S = 1000; S < 1060; ++S)
    Sources.push_back(generateProgram(S));
  for (const BenchProgram &B : benchmarkPrograms())
    Sources.push_back(B.Source);
  const LevelSpec &O2 = levelSpec(PipelineLevel::O2);
  std::map<std::string, double> Best;
  for (unsigned Rep = 0; Rep < 3; ++Rep) {
    Tracer T;
    Ledger Lg;
    Arena A(1 << 20);
    for (const std::string &Src : Sources) {
      {
        Compiled Out;
        compileTraced(Src, O2, A, Out, T, Lg, false);
      }
      A.reset();
    }
    auto Sum = [&](const char *K) {
      LayerMetric LM{K, "ms", Fold::Total};
      return Lg.has(K) ? Lg.value(LM) : 0.0;
    };
    std::map<std::string, double> Rep1 = {
        {"frontend_irgen", Sum("frontend.ms") + Sum("ir.irgen_ms")},
        {"opt", Sum("opt.ms")},
        {"codegen", Sum("codegen.isel_ms") + Sum("codegen.sched_ms") +
                        Sum("codegen.regalloc_ms")},
        {"isel", Sum("codegen.isel_ms")},
        {"sched", Sum("codegen.sched_ms")},
        {"regalloc_layout", Sum("codegen.regalloc_ms")},
        {"export", Sum("core.debuginfo_ms")}};
    for (const auto &[K, V] : Rep1)
      Best[K] = Rep == 0 ? V : std::min(Best[K], V);
  }
  std::string Out = "{\"programs\":" + std::to_string(Sources.size()) +
                    ",\"measured_ms\":{";
  bool First = true;
  for (const auto &[K, V] : Best) {
    Out += (First ? "" : ",") + jsonQuote(K) + ":" + jsonNumber(V);
    First = false;
  }
  Out += "},\"roadmap_ms\":{\"frontend_irgen\":7.0,\"opt\":27.5,"
         "\"codegen\":17.4,\"isel\":3.1,\"sched\":3.7,"
         "\"regalloc_layout\":10.6,\"export\":13.4}}";
  return Out;
}

//===----------------------------------------------------------------------===//
// compile_debug
//===----------------------------------------------------------------------===//

void runCompileDebug(const RunConfig &C, RunResult &R) {
  std::vector<Program> Corpus;
  std::vector<double> Setup;
  for (unsigned I = 0; I < SetupReps; ++I) {
    auto T0 = Clock::now();
    Corpus = makeCorpus(C.Seed);
    Setup.push_back(msSince(T0) / 1e3);
  }
  // The reference pass doubles as warm-up: every (program, level) op is
  // compiled, run against the interpreter, and its export digested, so
  // the timed ops only compare digests.
  CorpusCheck Ref = checkCorpus(Corpus, R);
  const std::size_t PassOps = Ref.Digest.size();

  Arena A(1 << 20);
  auto Check = [&](std::size_t K, bool Ok, const Compiled &Out) {
    ++R.Attempted;
    std::uint64_t Want = Ref.Digest[K % PassOps];
    if (Ok && Want != 0 && (fnv1a(Out.DebugInfo) | 1) == Want)
      return;
    ++R.Failed;
    if (Want != 0)
      R.problem(Corpus[(K % PassOps) / 2].Name +
                ": output differs from the reference pass" +
                (Ok ? "" : ": " + Out.Error));
  };
  std::size_t K = 0;
  auto Op = [&]() {
    double Ms;
    {
      Compiled Out;
      double C0 = threadCpuMs();
      bool Ok = compileOp(Corpus[(K % PassOps) / 2].Source, opLevel(K), A,
                          Out);
      Ms = threadCpuMs() - C0;
      Check(K, Ok, Out);
    }
    A.reset();
    ++K;
    return Ms;
  };

  R.provenance("op", jsonQuote("one program through runFrontend, generateIR, "
                               "runPipelineEx, compileToMachineE and "
                               "renderDebugInfo; O2 and O2ssa alternate"));
  R.provenance("corpus_programs", std::to_string(Corpus.size()));
  if (!C.Trace) {
    Latency L = closedLoop(C.Seconds, 1, TimedWindows, Op);
    reportEndToEnd(R, L, median(Setup), peakRssMb(), Ref);
    return;
  }

  Latency Untraced = closedLoop(C.Seconds / 2, 1, 1, Op);
  TraceState TS;
  std::size_t TK = 0;
  auto TracedOp = [&]() {
    double Ms;
    bool Counts = TK < PassOps;
    {
      Compiled Out;
      TS.newOp();
      double C0 = threadCpuMs();
      std::int32_t Root = TS.T.begin("compile_debug.op", "client");
      bool Ok = compileTraced(Corpus[(TK % PassOps) / 2].Source, opLevel(TK),
                              A, Out, TS.T, TS.Ops, Counts);
      TS.T.end(Root);
      Ms = threadCpuMs() - C0;
      Check(TK, Ok, Out);
      if (Ok)
        afterCompileProbes(Out, TS.T, TS.Ops, Counts);
    }
    A.reset();
    ++TK;
    return Ms;
  };
  Latency Traced = closedLoop(C.Seconds / 2, PassOps, 1, TracedOp);
  serviceSlice(C, TS, R);
  fuzzSlice(C, TS, R);
  reportPerLayer(C, R, TS, Untraced, Traced);
  R.provenance("roadmap_layer_split", roadmapComparison());
}

//===----------------------------------------------------------------------===//
// service_attach
//===----------------------------------------------------------------------===//

struct AttachTarget {
  std::uint32_t Seed = 0;
  std::string Stmt; ///< First statement of main that emitted code.
};

/// Learns, for each pool seed, where a debugger attached to main first
/// stops: compiled pristine the way the service's load compiles it.
std::vector<AttachTarget> shapeAttachPool(std::uint64_t Seed, RunResult &R) {
  std::vector<AttachTarget> Pool;
  GenOptions GO;
  GO.TopStmts = ServiceLimits().GenTopStmts;
  for (unsigned I = 0; I < AttachPool; ++I) {
    AttachTarget T;
    T.Seed = deriveSeed(Seed, 10000 + I);
    Arena A(1 << 16);
    DiagnosticEngine D;
    std::unique_ptr<IRModule> IR =
        compileToIR(generateProgram(T.Seed, GO), D, &A);
    if (IR && runPipelineEx(*IR, OptOptions::all(), PipelineConfig()).ok()) {
      Expected<MachineModule> MME =
          compileToMachineE(*IR, CodegenOptions(), &A);
      const MachineFunction *Main = MME ? MME->findFunc("main") : nullptr;
      for (std::size_t S = 0; Main && S < Main->StmtAddr.size(); ++S)
        if (Main->StmtAddr[S] >= 0) {
          T.Stmt = std::to_string(S);
          break;
        }
    }
    if (T.Stmt.empty())
      R.problem("attach seed " + std::to_string(T.Seed) +
                " has no statement to stop at");
    Pool.push_back(T);
  }
  return Pool;
}

void runServiceAttach(const RunConfig &C, RunResult &R) {
  const ServiceLimits Limits;
  std::vector<AttachTarget> Pool;
  std::unique_ptr<ServiceCore> Core;
  std::vector<double> Setup;
  for (unsigned I = 0; I < SetupReps; ++I) {
    Core.reset();
    auto T0 = Clock::now();
    Pool = shapeAttachPool(C.Seed, R);
    Core = std::make_unique<ServiceCore>(Limits, ServicePool);
    Setup.push_back(msSince(T0) / 1e3);
  }

  ServiceCounters Counts;
  auto Harvest = [&]() {
    ServiceCounters N = readCounters(*Core);
    Counts.Shed += N.Shed;
    Counts.Timeouts += N.Timeouts;
    Counts.Unsound += N.Unsound;
  };
  std::size_t Loaded = 0;
  std::uint64_t NextOp = 0;
  // The first classify-all answer per pool seed; later attaches to the
  // same program must see the same view.
  std::vector<std::string> FirstView(Pool.size());

  struct Lines {
    std::vector<std::string> Load, View;
  };
  auto Prepare = [&]() {
    // A fresh registry every MaxModules loads, outside timing.
    if (Loaded == Limits.MaxModules) {
      Harvest();
      Core = std::make_unique<ServiceCore>(Limits, ServicePool);
      Loaded = 0;
    }
    ++Loaded;
    const AttachTarget &T = Pool[NextOp % Pool.size()];
    std::string Name = "m" + std::to_string(NextOp++);
    return Lines{{"@att load " + Name + " seed:" + std::to_string(T.Seed)},
                 {"@att classify-all " + Name + " main " + T.Stmt}};
  };
  auto Check = [&](std::uint64_t OpIndex, const std::vector<std::string> &L,
                   const std::vector<std::string> &V) {
    ++R.Attempted;
    std::string &First = FirstView[OpIndex % Pool.size()];
    bool Ok = L.size() == 1 && V.size() == 1 &&
              L[0].rfind("@att ok loaded ", 0) == 0 &&
              L[0].size() >= 13 &&
              L[0].compare(L[0].size() - 13, 13, "quarantined=0") == 0 &&
              V[0].rfind("@att ok n=", 0) == 0 &&
              (First.empty() || First == V[0]);
    if (Ok) {
      if (First.empty())
        First = V[0];
      return;
    }
    ++R.Failed;
    R.problem("attach " + std::to_string(OpIndex) + ": '" +
              (L.empty() ? "" : L[0]) + "' / '" + (V.empty() ? "" : V[0]) +
              "'");
  };
  auto Op = [&]() {
    std::uint64_t Index = NextOp;
    Lines Ls = Prepare();
    double C0 = threadCpuMs();
    std::vector<std::string> L = Core->processBatch(Ls.Load);
    std::vector<std::string> V = Core->processBatch(Ls.View);
    double Ms = threadCpuMs() - C0;
    Check(Index, L, V);
    return Ms;
  };

  // Determinism: a pool of min(nproc, 4) shows every seed the same first
  // view.
  auto CheckOtherPool = [&]() {
    ServiceCore Wide(Limits, C.Jobs);
    std::size_t N = std::min<std::size_t>(Limits.MaxModules, Pool.size());
    for (std::size_t I = 0; I < N; ++I) {
      if (FirstView[I].empty())
        continue;
      std::string Name = "p" + std::to_string(I);
      Wide.processBatch({"@att load " + Name + " seed:" +
                         std::to_string(Pool[I].Seed)});
      std::vector<std::string> V = Wide.processBatch(
          {"@att classify-all " + Name + " main " + Pool[I].Stmt});
      if (V.size() != 1 || V[0] != FirstView[I]) {
        R.Sound = false;
        R.problem("attach view of seed " + std::to_string(Pool[I].Seed) +
                  " differs at " + std::to_string(C.Jobs) + " jobs");
        return;
      }
    }
  };

  R.provenance("op", jsonQuote("load of a module not in the registry, then "
                               "one classify-all batch at main's first "
                               "statement with code"));
  R.provenance("attach_pool", std::to_string(Pool.size()));
  R.provenance("service_pool", std::to_string(ServicePool));
  if (!C.Trace) {
    Latency L = closedLoop(C.Seconds, 1, TimedWindows, Op);
    double Rss = peakRssMb();
    Harvest();
    Ledger Unused;
    recordCounters(Counts, Unused, R);
    CheckOtherPool();
    reportEndToEnd(R, L, median(Setup), Rss,
                   checkCorpus(makeCorpus(C.Seed), R));
    return;
  }

  Latency Untraced = closedLoop(C.Seconds / 2, 1, 1, Op);
  // The traced half starts over in a fresh registry, so its counted ops
  // are the pool's first.
  Harvest();
  Core = std::make_unique<ServiceCore>(Limits, ServicePool);
  Loaded = 0;
  NextOp = 0;
  TraceState TS;
  DirectReplay Replay;
  auto TracedOp = [&]() {
    std::uint64_t Index = NextOp;
    Lines Ls = Prepare();
    bool CountOp = Index < AttachCountedOps;
    TS.newOp();
    double C0 = threadCpuMs();
    std::int32_t Root = TS.T.begin("service_attach.op", "client");
    std::int32_t LId = TS.T.begin("service.load", "service");
    std::vector<std::string> L = Core->processBatch(Ls.Load);
    TS.T.end(LId);
    std::int32_t VId = TS.T.begin("service.classify_all", "service");
    std::vector<std::string> V = Core->processBatch(Ls.View);
    TS.T.end(VId);
    TS.T.end(Root);
    double Ms = threadCpuMs() - C0;
    Check(Index, L, V);
    TS.Ops.add("service.load_batch_ms", TS.T.ms(LId));
    TS.Ops.add("service.query_batch_ms", TS.T.ms(VId));
    // Replay the view against core directly; the module is compiled for
    // the replay outside any measured span.
    Replay.clear();
    std::string Name = "m" + std::to_string(Index);
    if (Replay.load(Name, Pool[Index % Pool.size()].Seed))
      TS.Ops.add("service.overhead_ms",
                 TS.T.ms(VId) - Replay.replayBatch(Ls.View, TS.T, TS.Ops,
                                                   CountOp));
    return Ms;
  };
  Latency Traced = closedLoop(C.Seconds / 2, AttachCountedOps, 1, TracedOp);
  Harvest();
  recordCounters(Counts, TS.Ops, R);
  CheckOtherPool();
  std::vector<std::string> Sources;
  GenOptions GO;
  GO.TopStmts = Limits.GenTopStmts;
  for (unsigned I = 0; I < AttachSlicePrograms; ++I)
    Sources.push_back(generateProgram(Pool[I].Seed, GO));
  compileSlice(Sources, TS, R);
  serviceSlice(C, TS, R);
  fuzzSlice(C, TS, R);
  reportPerLayer(C, R, TS, Untraced, Traced);
}

} // namespace

bool perfbench::runWorkload(const RunConfig &C, RunResult &R) {
  if (C.Workload == "compile_debug")
    runCompileDebug(C, R);
  else if (C.Workload == "service_attach")
    runServiceAttach(C, R);
  else
    return false;
  return true;
}
