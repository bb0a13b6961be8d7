//===- core/DebugInfo.cpp - DWARF-shaped debug-info export ------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/DebugInfo.h"

#include "core/Classifier.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <fstream>
#include <sstream>

using namespace sldb;

namespace {

void jsonEscape(std::ostringstream &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out << "\\\"";
      break;
    case '\\':
      Out << "\\\\";
      break;
    case '\n':
      Out << "\\n";
      break;
    case '\t':
      Out << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out << Buf;
      } else {
        Out << C;
      }
    }
  }
}

const char *typeKindName(TypeKind K) {
  switch (K) {
  case TypeKind::Int:
    return "int";
  case TypeKind::Double:
    return "double";
  case TypeKind::Ptr:
    return "ptr";
  case TypeKind::Void:
    return "void";
  }
  return "?";
}

/// Renders a variable's source type: "int", "double[8]", "int*", ...
std::string renderType(const VarInfo &VI) {
  std::string S;
  if (VI.Ty.Kind == TypeKind::Ptr) {
    S = typeKindName(VI.Ty.Pointee);
    S += "*";
  } else {
    S = typeKindName(VI.Ty.Kind);
  }
  if (!VI.isScalar()) {
    S += "[";
    S += std::to_string(VI.ArraySize);
    S += "]";
  }
  return S;
}

/// Emits one `{"lo":..,"hi":..,"loc":".."}` range of a location list.
void emitLocation(std::ostringstream &Out, bool &First, std::uint32_t Lo,
                  std::uint32_t Hi, const std::string &Loc) {
  if (!First)
    Out << ",";
  First = false;
  Out << "{\"lo\":" << Lo << ",\"hi\":" << Hi << ",\"loc\":\"";
  jsonEscape(Out, Loc);
  Out << "\"}";
}

/// Emits a variable's location list `[{"lo":..,"hi":..,"loc":".."}, ...]`:
/// maximal half-open runs of one location, monotone, non-overlapping,
/// and covering [0, N).  DWARF analogue in the comment on each arm.
void emitLocationList(std::ostringstream &Out, const MachineFunction &MF,
                      VarId V, std::uint32_t N) {
  static const std::string OptimizedOut = "<optimized-out>";
  Out << "[";
  bool First = true;
  auto It = MF.Storage.find(V);
  const VarStorage *St = It == MF.Storage.end() ? nullptr : &It->second;
  if (N == 0) {
    // No addresses, no ranges.
  } else if (St && St->K == VarStorage::Kind::InReg) {
    // DW_OP_regN, gated on the live-range residence bits: outside the
    // live range the register holds unrelated recycled values.  The list
    // alternates between runs of set and clear bits.
    const std::string InReg = "reg " + St->R.str();
    auto RIt = MF.ResidentAt.find(V);
    const BitVector *Res = RIt == MF.ResidentAt.end() ? nullptr : &RIt->second;
    auto Resident = [&](std::uint32_t A) {
      return Res && A < Res->size() && Res->test(A);
    };
    std::uint32_t Lo = 0;
    while (Lo < N) {
      const bool Set = Resident(Lo);
      std::uint32_t Hi = Lo + 1;
      while (Hi < N && Resident(Hi) == Set)
        ++Hi;
      emitLocation(Out, First, Lo, Hi, Set ? InReg : OptimizedOut);
      Lo = Hi;
    }
  } else if (St && St->K == VarStorage::Kind::Frame) {
    // DW_OP_fbreg <slot> — frame homes are valid for the whole function.
    emitLocation(Out, First, 0, N, "frame+" + std::to_string(St->Frame));
  } else if (St && St->K == VarStorage::Kind::GlobalMem) {
    // DW_OP_addr <absolute word address>.
    emitLocation(Out, First, 0, N, "addr+" + std::to_string(St->GlobalAddr));
  } else {
    emitLocation(Out, First, 0, N, OptimizedOut); // Empty DW_AT_location.
  }
  Out << "]";
}

/// Emits availability ranges `[{"lo":..,"hi":..}, ...]`: the maximal
/// half-open address runs where \p Avail is set.
void emitAvailability(std::ostringstream &Out, const BitVector &Avail) {
  Out << "[";
  bool FirstRange = true;
  const std::uint32_t N = Avail.size();
  std::uint32_t A = 0;
  while (A < N) {
    if (!Avail.test(A)) {
      ++A;
      continue;
    }
    std::uint32_t Lo = A;
    while (A < N && Avail.test(A))
      ++A;
    if (!FirstRange)
      Out << ",";
    FirstRange = false;
    Out << "{\"lo\":" << Lo << ",\"hi\":" << A << "}";
  }
  Out << "]";
}

void emitFunction(std::ostringstream &Out, const MachineModule &MM,
                  const MachineFunction &MF) {
  const ProgramInfo &Info = *MM.Info;
  const FuncInfo &FI = Info.func(MF.Id);
  const std::uint32_t N = MF.numInstrs();

  Out << "{\"name\":\"";
  jsonEscape(Out, MF.Name);
  Out << "\",\"frame_size_words\":" << MF.FrameSize
      << ",\"num_instrs\":" << N << ",\"line_table\":[";

  bool First = true;
  for (StmtId S = 0; S < MF.StmtAddr.size(); ++S) {
    if (MF.StmtAddr[S] < 0)
      continue; // Statement optimized away entirely.
    if (!First)
      Out << ",";
    First = false;
    Out << "{\"stmt\":" << S << ",\"line\":" << FI.Stmts[S].Loc.Line
        << ",\"address\":" << MF.StmtAddr[S] << "}";
  }
  Out << "],\"variables\":[";

  // Availability comes from the classifier itself — the same dataflow
  // over markers and residence bits, and the same transfer functions,
  // that answer interactive queries — in one forward walk per block.
  Classifier C(MF, Info);
  AvailabilitySweep Avail = C.availability(FI.Locals);
  static StatCounter &Addresses = Stats::counter("debuginfo.addresses");
  static StatCounter &Fallbacks =
      Stats::counter("debuginfo.fallback_classifications");
  Addresses.add(N);
  Fallbacks.add(Avail.Fallbacks);
  First = true;
  for (std::size_t I = 0; I < FI.Locals.size(); ++I) {
    VarId V = FI.Locals[I];
    const VarInfo &VI = Info.var(V);
    if (!First)
      Out << ",";
    First = false;
    Out << "{\"name\":\"";
    jsonEscape(Out, VI.Name);
    Out << "\",\"type\":\"";
    jsonEscape(Out, renderType(VI));
    Out << "\",\"param\":" << (VI.Storage == StorageKind::Param ? "true"
                                                                : "false");
    Out << ",\"locations\":";
    emitLocationList(Out, MF, V, N);
    Out << ",\"availability\":";
    emitAvailability(Out, Avail.Current[I]);
    Out << "}";
  }
  Out << "]}";
}

} // namespace

std::string sldb::renderDebugInfo(const MachineModule &MM) {
  TraceSpan Span("debuginfo.render", "core");
  std::ostringstream Out;
  Out << "{\"schema\":\"sldb-dwarf-0\",\"globals\":[";
  bool First = true;
  for (VarId V : MM.Info->Globals) {
    const VarInfo &VI = MM.Info->var(V);
    auto It = MM.GlobalAddr.find(V);
    if (!First)
      Out << ",";
    First = false;
    Out << "{\"name\":\"";
    jsonEscape(Out, VI.Name);
    Out << "\",\"type\":\"";
    jsonEscape(Out, renderType(VI));
    Out << "\",\"address\":"
        << (It == MM.GlobalAddr.end() ? 0 : It->second) << "}";
  }
  Out << "],\"functions\":[";
  First = true;
  for (const MachineFunction &MF : MM.Funcs) {
    if (!First)
      Out << ",";
    First = false;
    emitFunction(Out, MM, MF);
  }
  Out << "]}\n";
  return Out.str();
}

bool sldb::writeDebugInfoFile(const MachineModule &MM,
                              const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << renderDebugInfo(MM);
  return static_cast<bool>(Out);
}
