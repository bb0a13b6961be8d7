//===- perfbench/Spans.h - In-memory span recorder for traced runs --------===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder.  Spans are opened and closed by the
/// benchmark's own code around its calls into each layer (nothing inside
/// src/ is instrumented), kept in memory, and written out when the run
/// ends.  Each span has a name, a layer, start and end, and its parent;
/// all spans of one op share the op's id.
///
/// Spans are recorded from the benchmark's single client thread only;
/// work a layer fans out to its own threads is inside the span of the
/// call that waited for it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = "";
  const char *Layer = "";
  std::uint64_t Op = 0;   ///< Op id; 0 for the fixed ledger slice.
  std::int32_t Parent = -1;
  bool Replay = false;    ///< Root of a replay outside the op's latency.
  std::uint64_t StartNs = 0, EndNs = 0; ///< Since the recorder's epoch.
};

class Tracer {
public:
  Tracer() : Epoch(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Sets the op id stamped on spans opened from now on.
  void setOp(std::uint64_t Op) { CurOp = Op; }

  /// Opens a span under the innermost open one.  \p Replay marks a root
  /// span whose tree re-runs an op's work against lower layers; it is
  /// written out but kept out of the op's latency and self-time table.
  std::int32_t begin(const char *Name, const char *Layer, bool Replay = false);
  void end(std::int32_t Id);

  /// Duration of a closed span, milliseconds.
  double ms(std::int32_t Id) const;

  /// Self time per layer, summed over the spans of op trees (spans with
  /// a non-zero op id under a non-replay root): each span's duration
  /// minus the part its children cover.
  std::map<std::string, double> selfMsByLayer() const;

  /// Writes the spans of ops 1..\p MaxOp and of the fixed slice (op 0)
  /// as JSON, one object per line inside "spans", preceded by \p Header's
  /// members.  Returns false on I/O failure.
  bool write(const std::string &Path, const std::string &Header,
             std::uint64_t MaxOp) const;

private:
  std::uint64_t nowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  std::chrono::steady_clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<std::int32_t> Open;
  std::uint64_t CurOp = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
