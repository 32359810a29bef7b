// Layered benchmark of the encrypted store: see README.md.
//
//   essdds_perfbench --workload ingest|search|durable_churn --seed N
//                    --seconds S --trace 0|1 [--out-dir DIR]
//                    [--data-root DIR] [--small]
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. The full
// result (machine, build, config, detail metrics, layer table) goes to
// <out-dir>/<workload>-seed<N>-trace<T>.json.

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.h"
#include "util/json_writer.h"

namespace perfbench {
namespace {

using essdds::JsonWriter;

template <typename T>
bool ParseNumber(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseArgs(int argc, char** argv, Args* a, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      a->small = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      ok = ParseNumber(v, &a->seed);
    } else if (flag == "--seconds") {
      ok = ParseNumber(v, &a->seconds) && a->seconds > 0;
    } else if (flag == "--trace") {
      ok = v == "0" || v == "1";
      a->trace = v == "1";
    } else if (flag == "--out-dir") {
      a->out_dir = v;
    } else if (flag == "--data-root") {
      a->data_root = v;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (!ok) {
      *error = "bad value for " + flag + ": " + v;
      return false;
    }
  }
  if (a->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

std::string MachineJson() {
  JsonWriter w;
  w.BeginObject();
  w.KV("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
#if defined(__x86_64__) || defined(__i386__)
  w.KV("aes_ni", static_cast<bool>(__builtin_cpu_supports("aes")));
#else
  w.KV("aes_ni", false);
#endif
  w.KV("compiler", __VERSION__);
  w.EndObject();
  return w.str();
}

std::string BuildJson() {
  JsonWriter w;
  w.BeginObject();
  w.KV("build_type", PERFBENCH_BUILD_TYPE);
#ifdef ESSDDS_THREADS
  w.KV("ESSDDS_THREADS", "ON");
#else
  w.KV("ESSDDS_THREADS", "OFF");
#endif
#ifdef ESSDDS_METRICS
  w.KV("ESSDDS_METRICS", "ON");
#else
  w.KV("ESSDDS_METRICS", "OFF");
#endif
#ifdef ESSDDS_PERSIST
  w.KV("ESSDDS_PERSIST", "ON");
#else
  w.KV("ESSDDS_PERSIST", "OFF");
#endif
  w.EndObject();
  return w.str();
}

void WriteMetrics(JsonWriter& w, const std::vector<Metric>& metrics,
                  bool with_notes) {
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject();
    w.KV("value", m.value);
    w.KV("unit", m.unit);
    if (with_notes && !m.note.empty()) w.KV("note", m.note);
    w.EndObject();
  }
  w.EndObject();
}

std::string ResultJson(const Args& a, const RunResult& r) {
  JsonWriter w;
  w.BeginObject();
  w.KV("workload", a.workload);
  w.KV("seed", a.seed);
  w.KV("seconds", a.seconds);
  w.KV("trace", a.trace);
  w.KV("small", a.small);
  w.Key("machine").Raw(MachineJson());
  w.Key("build").Raw(BuildJson());
  w.Key("config").Raw(ConfigJson());
  w.Key("corpus").Raw(r.corpus_json);
  w.KV("correct", r.correct);
  w.KV("attempted", r.attempted);
  w.KV("failed", r.failed);
  w.Key("errors").BeginArray();
  for (const std::string& e : r.errors) w.Value(e);
  w.EndArray();
  w.Key("metrics");
  WriteMetrics(w, r.metrics, true);
  w.Key("detail");
  WriteMetrics(w, r.detail, true);
  if (a.trace) {
    w.Key("layer_table").Raw(r.layer_table_json);
    w.KV("spans_file", r.spans_file);
  }
  w.EndObject();
  return w.str();
}

void PrintMetric(const char* kind, const Metric& m) {
  std::printf("%-7s %-34s %18.6f %-9s %s\n", kind, m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "essdds_perfbench: %s\n", error.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  std::filesystem::create_directories(args.data_root);

  RunResult r;
  if (!RunWorkload(args, &r, &error)) {
    std::fprintf(stderr, "essdds_perfbench: %s\n", error.c_str());
    return 2;
  }

  const std::string result_path =
      args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
      "-trace" + (args.trace ? "1" : "0") + ".json";
  FILE* f = std::fopen(result_path.c_str(), "w");
  if (f == nullptr ||
      std::fprintf(f, "%s\n", ResultJson(args, r).c_str()) < 0 ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "essdds_perfbench: cannot write %s\n",
                 result_path.c_str());
    return 1;
  }

  for (const std::string& e : r.errors) std::printf("error   %s\n", e.c_str());
  for (const Metric& m : r.detail) PrintMetric("detail", m);
  for (const Metric& m : r.metrics) PrintMetric("metric", m);
  std::fputs(r.layer_table_text.c_str(), stdout);
  std::printf("result  %s\n", result_path.c_str());

  JsonWriter w;
  w.BeginObject();
  w.KV("correct", r.correct);
  w.KV("attempted", r.attempted);
  w.KV("failed", r.failed);
  w.Key("metrics");
  WriteMetrics(w, r.metrics, false);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
