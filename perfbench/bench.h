#ifndef ESSDDS_PERFBENCH_BENCH_H_
#define ESSDDS_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the result file and the span dump go.
  std::string out_dir = "perfbench/out";
  /// Parent of the durable_churn data directories (one fresh directory per
  /// store, removed after use).
  std::string data_root = ".bench_build/perfbench/data";
  /// Shrinks every corpus ~20x; used by the trace-coverage test.
  bool small = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// How the value was taken (percentile and sample count, base of a
  /// ratio); empty when the name says it all.
  std::string note = {};
};

/// What one run measured. `metrics` is the set printed on the last line:
/// the end-to-end metrics with tracing off, the per-layer metrics with
/// tracing on. `detail` holds the per-workload end-to-end names
/// (insert_p99_us, search_fp_per_query, ...) that the workload-generic
/// metrics summarize.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  /// Pre-rendered JSON: the corpus sizes of this workload and, for traced
  /// runs, the layer table of self times per op type.
  std::string corpus_json = "{}";
  std::string layer_table_json = "{}";
  /// Human-readable layer table and the span dump's path (traced runs).
  std::string layer_table_text;
  std::string spans_file;

  void Fail(std::string what) {
    failed++;
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

/// Runs one workload (ingest, search, durable_churn) to completion.
/// Returns false with a message for an unknown workload name.
bool RunWorkload(const Args& args, RunResult* out, std::string* error);

/// Scheme and file parameters every workload uses, as JSON.
std::string ConfigJson();

}  // namespace perfbench

#endif  // ESSDDS_PERFBENCH_BENCH_H_
