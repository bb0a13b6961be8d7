//===- codegen/Scheduler.cpp ----------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/Scheduler.h"

#include "codegen/RegAlloc.h"

#include <algorithm>

using namespace sldb;

namespace {

/// Latency of one instruction in the R3K pipeline model.
unsigned instrLatency(MOp Op) {
  switch (Op) {
  case MOp::LW:
  case MOp::LD:
    return 2;
  case MOp::MUL:
    return 3;
  case MOp::DIV:
  case MOp::REM:
  case MOp::FDIV:
    return 8;
  case MOp::FADD:
  case MOp::FSUB:
    return 2;
  case MOp::FMUL:
    return 4;
  case MOp::CVTID:
  case MOp::CVTDI:
    return 2;
  default:
    return 1;
  }
}

bool hasMemoryEffect(const MInstr &I) {
  switch (I.Op) {
  case MOp::SW:
  case MOp::SD:
  case MOp::JAL:
  case MOp::PRINTI:
  case MOp::PRINTD:
    return true;
  default:
    return false;
  }
}

bool readsMemory(const MInstr &I) {
  switch (I.Op) {
  case MOp::LW:
  case MOp::LD:
  case MOp::JAL:
    return true;
  default:
    return false;
  }
}

/// Schedules one region: one statement's instructions, no barrier inside.
void scheduleRegion(std::vector<MInstr> &Region) {
  const std::size_t N = Region.size();
  if (N < 2)
    return;

  // Dependence DAG.
  std::vector<std::vector<std::size_t>> Succs(N);
  std::vector<unsigned> PredCount(N, 0);
  auto AddDep = [&](std::size_t From, std::size_t To) {
    for (std::size_t S : Succs[From])
      if (S == To)
        return;
    Succs[From].push_back(To);
    ++PredCount[To];
  };

  // Use/def sets once per instruction, not once per pair.
  std::vector<std::vector<Reg>> Defs(N), Uses(N);
  for (std::size_t I2 = 0; I2 < N; ++I2) {
    Defs[I2] = minstrDefs(Region[I2]);
    Uses[I2] = minstrUses(Region[I2]);
  }

  for (std::size_t J = 0; J < N; ++J) {
    for (std::size_t I2 = 0; I2 < J; ++I2) {
      const MInstr &A = Region[I2];
      const MInstr &B = Region[J];
      bool Dep = false;
      // Register dependences.
      for (const Reg &D : Defs[I2]) {
        for (const Reg &U : Uses[J])
          Dep |= D == U; // RAW.
        for (const Reg &D2 : Defs[J])
          Dep |= D == D2; // WAW.
      }
      for (const Reg &U : Uses[I2])
        for (const Reg &D2 : Defs[J])
          Dep |= U == D2; // WAR.
      // Memory/effect ordering: side effects stay ordered; loads order
      // against effects but not against each other.
      if (hasMemoryEffect(A) && (hasMemoryEffect(B) || readsMemory(B)))
        Dep = true;
      if (readsMemory(A) && hasMemoryEffect(B))
        Dep = true;
      if (Dep)
        AddDep(I2, J);
    }
  }

  // Critical-path heights.
  std::vector<unsigned> Height(N, 0);
  for (std::size_t I2 = N; I2-- > 0;) {
    unsigned H = instrLatency(Region[I2].Op);
    for (std::size_t S : Succs[I2])
      H = std::max(H, instrLatency(Region[I2].Op) + Height[S]);
    Height[I2] = H;
  }

  // Cycle-driven list scheduling.
  std::vector<MInstr> Out;
  Out.reserve(N);
  std::vector<bool> Scheduled(N, false);
  std::vector<unsigned> ReadyAt(N, 0);
  unsigned Cycle = 0;
  std::size_t Done = 0;
  while (Done < N) {
    std::size_t Best = N;
    for (std::size_t I2 = 0; I2 < N; ++I2) {
      if (Scheduled[I2] || PredCount[I2] != 0 || ReadyAt[I2] > Cycle)
        continue;
      if (Best == N || Height[I2] > Height[Best] ||
          (Height[I2] == Height[Best] && I2 < Best))
        Best = I2;
    }
    if (Best == N) {
      ++Cycle;
      continue;
    }
    Scheduled[Best] = true;
    ++Done;
    Out.push_back(Region[Best]);
    unsigned Finish = Cycle + instrLatency(Region[Best].Op);
    for (std::size_t S : Succs[Best]) {
      --PredCount[S];
      ReadyAt[S] = std::max(ReadyAt[S], Finish);
    }
    ++Cycle;
  }
  Region = std::move(Out);
}

} // namespace

void sldb::scheduleFunction(MachineFunction &MF) {
  for (MachineBlock &B : MF.Blocks) {
    std::vector<MInstr> NewInsts;
    NewInsts.reserve(B.Insts.size());
    std::vector<MInstr> Region;
    auto Flush = [&]() {
      scheduleRegion(Region);
      for (MInstr &I : Region)
        NewInsts.push_back(std::move(I));
      Region.clear();
    };
    for (MInstr &I : B.Insts) {
      // Barriers keep markers, branches and calls anchored.  A statement
      // start ends the region too, so a breakpoint at a statement's first
      // instruction sees every earlier statement complete.
      if (I.isMarker() || I.isTerminatorLike() || I.Op == MOp::JAL) {
        Flush();
        NewInsts.push_back(std::move(I));
        continue;
      }
      if (!Region.empty() && Region.back().Stmt != I.Stmt)
        Flush();
      Region.push_back(std::move(I));
    }
    Flush();
    B.Insts.assign(NewInsts.begin(), NewInsts.end());
  }
}
