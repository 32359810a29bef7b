#ifndef ESSDDS_PERFBENCH_TRACE_H_
#define ESSDDS_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Wall-clock nanoseconds on the monotonic clock. The simulated network's
/// own clock is virtual, so every span the benchmark records is taken here.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call. `parent` indexes the op's span list (-1 for the op's
/// root). A replica span times a layer on the same inputs outside its
/// parent's interval (for example the codec steps of an index build, re-run
/// beside the real call); it still counts as the parent's child when self
/// times are computed.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  bool replica = false;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Per (op type, span name) totals over every traced op.
struct LayerRow {
  uint64_t calls = 0;
  int64_t total_ns = 0;  // inclusive durations
  int64_t self_ns = 0;   // duration minus the durations of its children
};

/// Span recorder for the traced run. Ops are traced one at a time by a
/// single client thread: BeginOp opens the root span, Begin/End nest spans
/// under the innermost open one, EndOp closes the root and folds the op into
/// the layer table. The spans of the first `keep_ops` ops are retained for
/// WriteSpans; the table covers every op.
class Tracer {
 public:
  explicit Tracer(size_t keep_ops) : keep_ops_(keep_ops) {}

  /// Root-span duration and self time of a finished op. `child_self_ns`
  /// sums max(0, self time) over every span but the root, so a replica
  /// that runs longer than its parent adds to it instead of cancelling out.
  struct OpTimes {
    int64_t root_ns = 0;
    int64_t root_self_ns = 0;
    int64_t child_self_ns = 0;
  };

  void BeginOp(const char* op_type);
  /// Closes the root span if it is still open (replicas are added after
  /// End(kRoot) so they stay outside it) and folds the op into the table.
  OpTimes EndOp();
  int Begin(const char* name);
  void End(int span);
  /// Records a replica child of span `parent` measured over [start, end).
  void AddReplica(const char* name, int parent, int64_t start_ns,
                  int64_t end_ns);

  /// Root span of the op in flight (its index is always 0).
  static constexpr int kRoot = 0;

  /// op type -> span name -> totals. The root span is named after its op
  /// type, so table().at(op).at(op) holds the ops' end-to-end durations
  /// (total_ns) and the time no child span accounts for (self_ns).
  const std::map<std::string, std::map<std::string, LayerRow>>& table()
      const {
    return table_;
  }

  /// Writes the kept spans as JSON: one [op_id, span_id, parent, name,
  /// start_ns, end_ns, replica] row per span, times relative to the first
  /// recorded span. Returns false when the file cannot be written.
  bool WriteSpans(const std::string& path) const;

 private:
  struct KeptSpan {
    uint64_t op_id;
    Span span;
  };

  size_t keep_ops_;
  uint64_t next_op_id_ = 0;
  const char* op_type_ = nullptr;
  std::vector<Span> spans_;  // spans of the op in flight
  std::vector<int> open_;    // stack of open span indexes
  std::vector<KeptSpan> kept_;
  std::map<std::string, std::map<std::string, LayerRow>> table_;
};

/// Times the enclosing scope as a span of the tracer's current op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), span_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return span_; }

 private:
  Tracer& tracer_;
  int span_;
};

}  // namespace perfbench

#endif  // ESSDDS_PERFBENCH_TRACE_H_
