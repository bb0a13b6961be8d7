//===- fuzz/QueryGen.cpp --------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/QueryGen.h"

#include "eval/Levels.h"
#include "fuzz/ProgramGen.h"
#include "support/FaultInjector.h"

#include <deque>

using namespace sldb;

namespace {

/// xorshift64* — the repo's standard deterministic stream PRNG.
struct Rng {
  std::uint64_t S;
  explicit Rng(std::uint64_t Seed) : S(Seed ? Seed : 0x9e3779b97f4a7c15ull) {}
  std::uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545f4914f6cdd1dull;
  }
  std::uint32_t below(std::uint32_t N) {
    return N ? static_cast<std::uint32_t>(next() % N) : 0;
  }
  bool pct(unsigned P) { return below(100) < P; }
};

/// The queryable shape of one compiled module.
struct ModuleShape {
  std::string Name;
  std::uint32_t Seed = 0;
  /// Per function: name plus the statements that still emit code, each
  /// with the variable names in scope there.
  struct FuncShape {
    std::string Name;
    std::vector<std::pair<StmtId, std::vector<std::string>>> Stmts;
  };
  std::vector<FuncShape> Funcs;
};

/// Compiles seed \p Seed pristine and extracts the query targets.
/// Returns false when the program does not compile (the stream then
/// still loads it — the daemon's error is part of the workload).
bool learnShape(std::uint32_t Seed, ModuleShape &Shape) {
  // The workload generator must stay pristine even when the caller
  // (soak harness) has a fault armed for the daemon under test.
  FaultInjector::suspend();
  Arena A(1 << 16);
  CompileOptions CO;
  CO.A = &A;
  Expected<CompiledModule> CM = compileModule(
      generateProgram(Seed, GenOptions()), levelSpec(PipelineLevel::O2), CO);
  FaultInjector::resume();
  if (!CM)
    return false;
  const MachineModule &MM = CM->MM;
  const ProgramInfo &Info = *MM.Info;
  for (FuncId F = 0; F < MM.Funcs.size(); ++F) {
    const MachineFunction &MF = MM.Funcs[F];
    ModuleShape::FuncShape FS;
    FS.Name = MF.Name;
    const FuncInfo &FI = Info.func(F);
    for (StmtId S = 0; S < FI.Stmts.size(); ++S) {
      if (S >= MF.StmtAddr.size() || MF.StmtAddr[S] < 0)
        continue;
      std::vector<std::string> Names;
      for (VarId V : FI.Stmts[S].ScopeVars)
        Names.push_back(Info.var(V).Name);
      for (VarId G : Info.Globals)
        Names.push_back(Info.var(G).Name);
      FS.Stmts.emplace_back(S, std::move(Names));
    }
    if (!FS.Stmts.empty())
      Shape.Funcs.push_back(std::move(FS));
  }
  return !Shape.Funcs.empty();
}

std::string makeQuery(Rng &R, const std::string &Session,
                      const ModuleShape &M, const QueryStreamOptions &O) {
  std::string Tag = "@" + Session + " ";
  if (R.pct(O.InvalidPct)) {
    // Deliberately invalid, but *deterministically* answered: unknown
    // entities and malformed operands, never timing-dependent.
    switch (R.below(5)) {
    case 0:
      return Tag + "classify no-such-module main 0 v0";
    case 1:
      return Tag + "classify " + M.Name + " no_such_func 0 v0";
    case 2:
      return Tag + "classify " + M.Name + " " + M.Funcs[0].Name +
             " 9999 v0";
    case 3:
      return Tag + "frobnicate " + M.Name;
    default:
      return Tag + "step " + M.Name + " not-a-number";
    }
  }
  const ModuleShape::FuncShape &F = M.Funcs[R.below(
      static_cast<std::uint32_t>(M.Funcs.size()))];
  const auto &StmtEntry =
      F.Stmts[R.below(static_cast<std::uint32_t>(F.Stmts.size()))];
  if (R.pct(O.StepPct))
    return Tag + "step " + M.Name + " " +
           std::to_string(1 + R.below(O.StepCount));
  switch (R.below(3)) {
  case 0: {
    if (StmtEntry.second.empty())
      return Tag + "classify-all " + M.Name + " " + F.Name + " " +
             std::to_string(StmtEntry.first);
    const std::string &Var =
        StmtEntry.second[R.below(
            static_cast<std::uint32_t>(StmtEntry.second.size()))];
    return Tag + "classify " + M.Name + " " + F.Name + " " +
           std::to_string(StmtEntry.first) + " " + Var;
  }
  case 1:
    return Tag + "classify-all " + M.Name + " " + F.Name + " " +
           std::to_string(StmtEntry.first);
  default: {
    if (StmtEntry.second.empty())
      return Tag + "classify-all " + M.Name + " " + F.Name + " " +
             std::to_string(StmtEntry.first);
    const std::string &Var =
        StmtEntry.second[R.below(
            static_cast<std::uint32_t>(StmtEntry.second.size()))];
    return Tag + "explain " + M.Name + " " + F.Name + " " +
           std::to_string(StmtEntry.first) + " " + Var;
  }
  }
}

} // namespace

std::string QueryStream::text() const {
  std::string T;
  for (const auto &B : Batches) {
    for (const std::string &L : B) {
      T += L;
      T += '\n';
    }
    T += '\n';
  }
  return T;
}

QueryStream sldb::generateQueryStream(const QueryStreamOptions &O) {
  QueryStream Stream;

  // Learn every module's shape and build the leading load batch.
  // Sessions own disjoint modules, so any interleave of the per-session
  // query sequences leaves every response unchanged.
  std::vector<std::vector<ModuleShape>> PerSession(O.Sessions);
  std::vector<std::string> Loads;
  std::uint32_t Seed = O.BaseSeed;
  for (unsigned S = 0; S < O.Sessions; ++S) {
    for (unsigned M = 0; M < O.ModulesPerSession; ++M, ++Seed) {
      ModuleShape Shape;
      Shape.Seed = Seed;
      Shape.Name =
          O.NamePrefix + "s" + std::to_string(S) + "m" + std::to_string(M);
      std::string Session = O.NamePrefix + "s" + std::to_string(S);
      Loads.push_back("@" + Session + " load " + Shape.Name +
                      " seed:" + std::to_string(Seed));
      if (learnShape(Seed, Shape))
        PerSession[S].push_back(std::move(Shape));
    }
  }
  Stream.Batches.push_back(std::move(Loads));

  // Per-session query queues.
  std::vector<std::deque<std::string>> Queues(O.Sessions);
  for (unsigned S = 0; S < O.Sessions; ++S) {
    if (PerSession[S].empty())
      continue;
    Rng R(static_cast<std::uint64_t>(O.BaseSeed) * 1000003 + S);
    std::string Session = O.NamePrefix + "s" + std::to_string(S);
    for (unsigned Q = 0; Q < O.QueriesPerSession; ++Q) {
      const ModuleShape &M = PerSession[S][R.below(
          static_cast<std::uint32_t>(PerSession[S].size()))];
      Queues[S].push_back(makeQuery(R, Session, M, O));
    }
  }

  // Interleave: round-robin by default, seeded shuffle on request.
  // Per-session order is always preserved (a session is a serial
  // client); only the cross-session weave varies.
  std::vector<std::string> Flat;
  Rng Shuf(O.ShuffleSeed);
  while (true) {
    std::vector<unsigned> Alive;
    for (unsigned S = 0; S < O.Sessions; ++S)
      if (!Queues[S].empty())
        Alive.push_back(S);
    if (Alive.empty())
      break;
    unsigned Pick =
        O.ShuffleSeed
            ? Alive[Shuf.below(static_cast<std::uint32_t>(Alive.size()))]
            : Alive[Flat.size() % Alive.size()];
    Flat.push_back(std::move(Queues[Pick].front()));
    Queues[Pick].pop_front();
  }

  // Chunk into protocol batches.
  std::vector<std::string> Batch;
  for (std::string &L : Flat) {
    Batch.push_back(std::move(L));
    if (O.BatchLines && Batch.size() >= O.BatchLines) {
      Stream.Batches.push_back(std::move(Batch));
      Batch.clear();
    }
  }
  if (!Batch.empty())
    Stream.Batches.push_back(std::move(Batch));
  return Stream;
}
