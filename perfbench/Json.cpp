//===- perfbench/Json.cpp - Minimal JSON reader and writer helpers --------===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

using namespace perfbench;

namespace {

/// A parsed JSON value.  Objects keep their keys sorted; the benchmark
/// only looks keys up.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;

  /// Member lookup; null when absent or when this is not an object.
  const JsonValue *get(const std::string &Key) const {
    if (K != Kind::Object)
      return nullptr;
    auto It = Obj.find(Key);
    return It == Obj.end() ? nullptr : &It->second;
  }
};

class Parser {
public:
  explicit Parser(std::string_view T) : T(T) {}

  bool parseDocument(JsonValue &V) {
    if (!parseValue(V, 0))
      return false;
    skipSpace();
    return P == T.size();
  }

private:
  static constexpr unsigned MaxDepth = 64;

  void skipSpace() {
    while (P < T.size() &&
           (T[P] == ' ' || T[P] == '\n' || T[P] == '\t' || T[P] == '\r'))
      ++P;
  }

  bool literal(std::string_view Word) {
    if (T.substr(P, Word.size()) != Word)
      return false;
    P += Word.size();
    return true;
  }

  bool parseString(std::string &S) {
    if (P >= T.size() || T[P] != '"')
      return false;
    ++P;
    while (P < T.size() && T[P] != '"') {
      char C = T[P++];
      if (C != '\\') {
        S += C;
        continue;
      }
      if (P >= T.size())
        return false;
      char E = T[P++];
      switch (E) {
      case 'n': S += '\n'; break;
      case 't': S += '\t'; break;
      case 'r': S += '\r'; break;
      case 'b': S += '\b'; break;
      case 'f': S += '\f'; break;
      case 'u':
        // The export only escapes control characters; keep the code
        // point's low byte, which is all such an escape can carry.
        if (P + 4 > T.size())
          return false;
        S += static_cast<char>(
            std::strtol(std::string(T.substr(P, 4)).c_str(), nullptr, 16));
        P += 4;
        break;
      default: S += E; break;
      }
    }
    if (P >= T.size())
      return false;
    ++P;
    return true;
  }

  bool parseValue(JsonValue &V, unsigned Depth) {
    if (Depth > MaxDepth)
      return false;
    skipSpace();
    if (P >= T.size())
      return false;
    char C = T[P];
    if (C == '{') {
      V.K = JsonValue::Kind::Object;
      ++P;
      skipSpace();
      if (P < T.size() && T[P] == '}') {
        ++P;
        return true;
      }
      while (true) {
        skipSpace();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipSpace();
        if (P >= T.size() || T[P] != ':')
          return false;
        ++P;
        if (!parseValue(V.Obj[Key], Depth + 1))
          return false;
        skipSpace();
        if (P < T.size() && T[P] == ',') {
          ++P;
          continue;
        }
        if (P < T.size() && T[P] == '}') {
          ++P;
          return true;
        }
        return false;
      }
    }
    if (C == '[') {
      V.K = JsonValue::Kind::Array;
      ++P;
      skipSpace();
      if (P < T.size() && T[P] == ']') {
        ++P;
        return true;
      }
      while (true) {
        V.Arr.emplace_back();
        if (!parseValue(V.Arr.back(), Depth + 1))
          return false;
        skipSpace();
        if (P < T.size() && T[P] == ',') {
          ++P;
          continue;
        }
        if (P < T.size() && T[P] == ']') {
          ++P;
          return true;
        }
        return false;
      }
    }
    if (C == '"') {
      V.K = JsonValue::Kind::String;
      return parseString(V.Str);
    }
    if (literal("true")) {
      V.K = JsonValue::Kind::Bool;
      V.B = true;
      return true;
    }
    if (literal("false")) {
      V.K = JsonValue::Kind::Bool;
      return true;
    }
    if (literal("null"))
      return true;
    std::string Num;
    while (P < T.size() && (std::isdigit(static_cast<unsigned char>(T[P])) ||
                            T[P] == '-' || T[P] == '+' || T[P] == '.' ||
                            T[P] == 'e' || T[P] == 'E'))
      Num += T[P++];
    if (Num.empty())
      return false;
    char *End = nullptr;
    V.K = JsonValue::Kind::Number;
    V.Num = std::strtod(Num.c_str(), &End);
    return End && *End == '\0';
  }

  std::string_view T;
  std::size_t P = 0;
};

bool isNumber(const JsonValue *V) {
  return V && V->K == JsonValue::Kind::Number;
}

bool isArray(const JsonValue *V) {
  return V && V->K == JsonValue::Kind::Array;
}

} // namespace

bool perfbench::addAvailCoverage(std::string_view Export, AvailCoverage &Cov) {
  JsonValue Doc;
  if (!Parser(Export).parseDocument(Doc))
    return false;
  const JsonValue *Schema = Doc.get("schema");
  const JsonValue *Funcs = Doc.get("functions");
  if (!Schema || Schema->Str != "sldb-dwarf-0" || !isArray(Funcs) ||
      !isArray(Doc.get("globals")))
    return false;
  for (const JsonValue &F : Funcs->Arr) {
    const JsonValue *N = F.get("num_instrs");
    const JsonValue *Vars = F.get("variables");
    if (!isNumber(N) || !isArray(Vars))
      return false;
    Cov.TotalInstrs += N->Num * static_cast<double>(Vars->Arr.size());
    for (const JsonValue &V : Vars->Arr) {
      const JsonValue *Ranges = V.get("availability");
      if (!isArray(Ranges) || !isArray(V.get("locations")))
        return false;
      double PrevHi = 0;
      for (const JsonValue &R : Ranges->Arr) {
        const JsonValue *Lo = R.get("lo");
        const JsonValue *Hi = R.get("hi");
        // Half-open, strictly monotone, non-overlapping, inside the
        // function: the export's documented range contract.
        if (!isNumber(Lo) || !isNumber(Hi) || Lo->Num < PrevHi ||
            Hi->Num <= Lo->Num || Hi->Num > N->Num)
          return false;
        PrevHi = Hi->Num;
        Cov.AvailInstrs += Hi->Num - Lo->Num;
      }
    }
  }
  return true;
}

std::string perfbench::jsonQuote(std::string_view S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    case '\r': Out += "\\r"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}

std::string perfbench::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}
