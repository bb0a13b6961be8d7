//===- perfbench/Spans.cpp - In-memory span recorder for traced runs ------===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "Json.h"

#include <cstdio>

using namespace perfbench;

std::int32_t Tracer::begin(const char *Name, const char *Layer, bool Replay) {
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Op = CurOp;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Replay = Replay;
  S.StartNs = nowNs();
  Spans.push_back(S);
  auto Id = static_cast<std::int32_t>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

void Tracer::end(std::int32_t Id) {
  Spans[static_cast<std::size_t>(Id)].EndNs = nowNs();
  // Scopes close innermost-first, so Id is on top of the stack.
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

double Tracer::ms(std::int32_t Id) const {
  const Span &S = Spans[static_cast<std::size_t>(Id)];
  return static_cast<double>(S.EndNs - S.StartNs) / 1e6;
}

std::map<std::string, double> Tracer::selfMsByLayer() const {
  // Parents precede children, so one forward pass decides membership.
  std::vector<bool> InOpTree(Spans.size(), false);
  std::vector<double> ChildMs(Spans.size(), 0.0);
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Parent < 0)
      InOpTree[I] = S.Op != 0 && !S.Replay;
    else
      InOpTree[I] = InOpTree[static_cast<std::size_t>(S.Parent)];
    if (S.Parent >= 0)
      ChildMs[static_cast<std::size_t>(S.Parent)] +=
          static_cast<double>(S.EndNs - S.StartNs) / 1e6;
  }
  std::map<std::string, double> Self;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    if (!InOpTree[I])
      continue;
    const Span &S = Spans[I];
    Self[S.Layer] +=
        static_cast<double>(S.EndNs - S.StartNs) / 1e6 - ChildMs[I];
  }
  return Self;
}

bool Tracer::write(const std::string &Path, const std::string &Header,
                   std::uint64_t MaxOp) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{%s%s\"spans\":[", Header.c_str(),
               Header.empty() ? "" : ",");
  const char *Sep = "\n";
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Op > MaxOp)
      continue;
    std::fprintf(F,
                 "%s{\"id\":%zu,\"name\":%s,\"layer\":%s,\"op\":%llu,"
                 "\"parent\":%d,\"replay\":%s,\"start_us\":%.3f,"
                 "\"end_us\":%.3f}",
                 Sep, I, jsonQuote(S.Name).c_str(), jsonQuote(S.Layer).c_str(),
                 static_cast<unsigned long long>(S.Op), S.Parent,
                 S.Replay ? "true" : "false",
                 static_cast<double>(S.StartNs) / 1e3,
                 static_cast<double>(S.EndNs) / 1e3);
    Sep = ",\n";
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
