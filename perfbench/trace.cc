#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace perfbench {

void Tracer::BeginOp(const char* op_type) {
  ESSDDS_CHECK(op_type_ == nullptr) << "ops do not nest";
  op_type_ = op_type;
  spans_.clear();
  open_.clear();
  Begin(op_type);
}

Tracer::OpTimes Tracer::EndOp() {
  if (!open_.empty()) End(kRoot);
  ESSDDS_CHECK(open_.empty()) << "span left open at the end of an op";
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.duration_ns();
  }
  auto& rows = table_[op_type_];
  OpTimes times;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t self_ns = spans_[i].duration_ns() - child_ns[i];
    LayerRow& row = rows[spans_[i].name];
    row.calls++;
    row.total_ns += spans_[i].duration_ns();
    row.self_ns += self_ns;
    if (i != kRoot) times.child_self_ns += std::max<int64_t>(0, self_ns);
  }
  times.root_ns = spans_[kRoot].duration_ns();
  times.root_self_ns = times.root_ns - child_ns[kRoot];
  if (next_op_id_ < keep_ops_) {
    for (const Span& s : spans_) kept_.push_back({next_op_id_, s});
  }
  ++next_op_id_;
  op_type_ = nullptr;
  return times;
}

int Tracer::Begin(const char* name) {
  ESSDDS_CHECK(op_type_ != nullptr) << "span outside an op";
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, NowNs(), 0, open_.empty() ? -1 : open_.back(),
                        false});
  open_.push_back(index);
  return index;
}

void Tracer::End(int span) {
  ESSDDS_CHECK(!open_.empty() && open_.back() == span)
      << "spans must close innermost first";
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  open_.pop_back();
}

void Tracer::AddReplica(const char* name, int parent, int64_t start_ns,
                        int64_t end_ns) {
  ESSDDS_CHECK(parent >= 0 && static_cast<size_t>(parent) < spans_.size());
  spans_.push_back(Span{name, start_ns, end_ns, parent, true});
}

bool Tracer::WriteSpans(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = kept_.empty() ? 0 : kept_.front().span.start_ns;
  std::fprintf(f,
               "{\"columns\": [\"op_id\", \"span_id\", \"parent\", \"name\", "
               "\"start_ns\", \"end_ns\", \"replica\"],\n\"spans\": [");
  uint64_t op = ~uint64_t{0};
  int span_id = 0;
  for (size_t i = 0; i < kept_.size(); ++i) {
    const KeptSpan& k = kept_[i];
    if (k.op_id != op) {
      op = k.op_id;
      span_id = 0;
    }
    std::fprintf(f, "%s\n[%llu, %d, %d, \"%s\", %lld, %lld, %d]",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(k.op_id),
                 span_id++, k.span.parent, k.span.name,
                 static_cast<long long>(k.span.start_ns - t0),
                 static_cast<long long>(k.span.end_ns - t0),
                 k.span.replica ? 1 : 0);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
