// essdds_client: pipelined LH* client for a real essdds_server cluster.
//
// Runs a verifying workload over TCP or unix-domain sockets: inserts --ops
// seeded records with up to --depth operations in flight per connection
// (the request-id machinery matches replies to ops, stale replies of
// retried requests are discarded), then reads every record back and checks
// the payloads, optionally runs a substring scan, then deletes everything.
//
//   essdds_client --cluster uds:/tmp/a.sock,uds:/tmp/b.sock
//                 --ops 2000 --depth 64 --scan "needle 17"
//
// Exit code 0 = every operation completed and verified.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/flag_limits.h"
#include "net/socket_client.h"
#include "util/json_writer.h"

namespace {

namespace flag_limits = essdds::net::flag_limits;

std::string ValueFor(uint64_t key) {
  // The needle digit varies per op (keys step by 1000), so a substring
  // scan for "needle N" selects ~10% of the records.
  return "value for key " + std::to_string(key) + " needle " +
         std::to_string((key / 1000) % 10);
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --cluster <ep,ep,...> [options]\n"
      "  --cluster LIST   comma-separated endpoints (host 0 first)\n"
      "  --client-id N    distinguishes concurrent clients (default 0)\n"
      "  --ops N          records to insert/verify/delete (default 1000)\n"
      "  --depth N        max in-flight pipelined ops (default 64)\n"
      "  --scan NEEDLE    also run a substring scan for NEEDLE\n"
      "  --keep           skip the delete pass (leave records behind)\n"
      "  --timeout-us N   per-request timeout (default 200000)\n"
      "  --retries N      retransmissions before giving up (default 8)\n"
      "  --slow-op-us N   log ops slower than N microseconds (default off)\n"
      "  --metrics PATH   write a workload/metrics JSON ('-' = stdout)\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cluster_spec;
  std::string scan_needle;
  std::string metrics_path;
  bool do_scan = false;
  bool keep = false;
  uint64_t ops = 1000;
  size_t depth = 64;
  uint32_t client_id = 0;
  uint64_t timeout_us = 200'000;
  uint32_t retries = 8;
  uint64_t slow_op_us = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto flag = [&](essdds::net::FlagLimit limit) {
      auto value = essdds::net::ParseFlag(next(), limit);
      if (!value.ok()) {
        std::fprintf(stderr, "bad %s: %s\n", arg.c_str(),
                     value.status().ToString().c_str());
        std::exit(2);
      }
      return *value;
    };
    if (arg == "--cluster") {
      cluster_spec = next();
    } else if (arg == "--client-id") {
      client_id = static_cast<uint32_t>(flag(flag_limits::kClientId));
    } else if (arg == "--ops") {
      ops = flag(flag_limits::kOps);
    } else if (arg == "--depth") {
      depth = static_cast<size_t>(flag(flag_limits::kDepth));
    } else if (arg == "--scan") {
      do_scan = true;
      scan_needle = next();
    } else if (arg == "--keep") {
      keep = true;
    } else if (arg == "--timeout-us") {
      timeout_us = flag(flag_limits::kTimeoutUs);
    } else if (arg == "--retries") {
      retries = static_cast<uint32_t>(flag(flag_limits::kRetries));
    } else if (arg == "--slow-op-us") {
      slow_op_us = flag(flag_limits::kSlowOpUs);
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else {
      return Usage(argv[0]);
    }
  }
  if (cluster_spec.empty()) return Usage(argv[0]);

  auto cluster = essdds::net::ClusterMap::Parse(cluster_spec);
  if (!cluster.ok()) {
    std::fprintf(stderr, "bad --cluster: %s\n",
                 cluster.status().ToString().c_str());
    return 2;
  }

  essdds::net::SocketClient::Options opts;
  opts.cluster = *cluster;
  opts.client_id = client_id;
  opts.max_inflight = depth;
  opts.lh.request_timeout_us = timeout_us;
  opts.lh.max_request_retries = retries;
  opts.lh.slow_op_us = slow_op_us;
  essdds::net::SocketClient client(opts);
  if (essdds::Status s = client.Connect(); !s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Key spacing keeps concurrent clients (--client-id) disjoint.
  auto key_of = [&](uint64_t i) {
    return uint64_t{1} + i * 1000 + client_id;
  };

  const uint64_t t0 = client.now_us();
  // Insert pass, pipelined.
  for (uint64_t i = 0; i < ops; ++i) {
    const std::string v = ValueFor(key_of(i));
    auto token = client.SubmitInsert(
        key_of(i), essdds::Bytes(v.begin(), v.end()));
    if (!token.ok()) {
      std::fprintf(stderr, "insert submit failed: %s\n",
                   token.status().ToString().c_str());
      return 1;
    }
  }
  if (essdds::Status s = client.AwaitAll(); !s.ok()) {
    std::fprintf(stderr, "insert pass failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const uint64_t t_insert = client.now_us();

  // Verify pass: every record reads back byte-identical.
  uint64_t verify_failures = 0;
  for (uint64_t i = 0; i < ops; ++i) {
    auto value = client.Lookup(key_of(i));
    const std::string want = ValueFor(key_of(i));
    if (!value.ok() ||
        std::string(value->begin(), value->end()) != want) {
      ++verify_failures;
      std::fprintf(stderr, "verify failed for key %llu: %s\n",
                   static_cast<unsigned long long>(key_of(i)),
                   value.ok() ? "payload mismatch"
                              : value.status().ToString().c_str());
    }
  }
  const uint64_t t_verify = client.now_us();
  if (verify_failures != 0) return 1;

  size_t scan_hits = 0;
  if (do_scan) {
    // Filter 1 of the standard server set: substring-of-value.
    auto scan = client.Scan(
        1, essdds::Bytes(scan_needle.begin(), scan_needle.end()));
    if (!scan.ok()) {
      std::fprintf(stderr, "scan failed: %s\n",
                   scan.status().ToString().c_str());
      return 1;
    }
    scan_hits = scan->hits.size();
  }

  if (!keep) {
    for (uint64_t i = 0; i < ops; ++i) {
      if (essdds::Status s = client.Delete(key_of(i)); !s.ok()) {
        std::fprintf(stderr, "delete failed for key %llu: %s\n",
                     static_cast<unsigned long long>(key_of(i)),
                     s.ToString().c_str());
        return 1;
      }
    }
  }
  const uint64_t t_end = client.now_us();

  essdds::JsonWriter json;
  json.BeginObject();
  json.KV("ops", ops);
  json.KV("depth", static_cast<uint64_t>(opts.max_inflight));
  json.KV("insert_us", t_insert - t0);
  json.KV("verify_us", t_verify - t_insert);
  json.KV("total_us", t_end - t0);
  const double secs = static_cast<double>(t_insert - t0) / 1e6;
  json.KV("insert_ops_per_sec",
          secs > 0 ? static_cast<double>(ops) / secs : 0.0, 1);
  json.KV("scan_hits", static_cast<uint64_t>(scan_hits));
  json.KV("image_level", static_cast<uint64_t>(client.image().level));
  json.KV("image_split_pointer",
          static_cast<uint64_t>(client.image().split_pointer));
  json.KV("retries", client.retry_count());
  json.KV("stale_replies", client.stale_reply_count());
  json.KV("iams", client.iam_count());
  // The final op's trace id: paste into `essdds_admin trace <id>` to see
  // the op's cross-host path (0 with metrics compiled out).
  json.KV("last_trace_id", client.last_trace_id());
  json.EndObject();
  const std::string out = json.str();
  if (!metrics_path.empty() && metrics_path != "-") {
    FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::fputs(out.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  } else {
    std::fputs(out.c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return 0;
}
