// essdds_server: one bucket-site process of a real LH* cluster.
//
// Serves every logical bucket the cluster map places on this host (bucket b
// lives on host b mod N) over TCP or unix-domain sockets, with the durable
// encrypted-at-rest bucket logs of src/persist when --data-dir is given.
// Host 0 additionally runs the split coordinator. Start one process per
// entry in --cluster:
//
//   essdds_server --cluster uds:/tmp/a.sock,uds:/tmp/b.sock,uds:/tmp/c.sock
//                 --host 0 --capacity 64 --data-dir /tmp/essdds-0
//
// SIGINT/SIGTERM shut the process down cleanly: the --metrics JSON (if
// requested) is written and the exit code is 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/bucket_host.h"
#include "net/flag_limits.h"
#include "sdds/scan_executor.h"
#include "util/bytes.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace {

namespace flag_limits = essdds::net::flag_limits;

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

// The standard filter set; every server of a cluster (and any baseline
// system used for comparison runs) must install the same filters in the
// same order, since the wire carries only the filter index.
//   0: match-all (arg ignored)
//   1: substring-of-value (arg = the needle bytes)
void InstallStandardFilters(essdds::net::BucketHost& host) {
  using essdds::ByteSpan;
  host.InstallFilter(essdds::sdds::MakeScanFilter(
      [](uint64_t, ByteSpan, ByteSpan) { return true; }));
  host.InstallFilter(essdds::sdds::MakeScanFilter(
      [](uint64_t, ByteSpan value, ByteSpan arg) {
        if (arg.empty()) return false;
        if (arg.size() > value.size()) return false;
        for (size_t i = 0; i + arg.size() <= value.size(); ++i) {
          if (std::memcmp(value.data() + i, arg.data(), arg.size()) == 0) {
            return true;
          }
        }
        return false;
      }));
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --cluster <ep,ep,...> --host <index> [options]\n"
      "  --cluster LIST   comma-separated endpoints (uds:/path or\n"
      "                   tcp:host:port), host 0 first\n"
      "  --host N         this process's index into the cluster list\n"
      "  --capacity N     records per bucket before a split (default 64)\n"
      "  --scan-threads N parallel scan workers 0..%zu (0 = inline)\n"
      "  --data-dir DIR   durable encrypted bucket logs (default RAM-only)\n"
      "  --metrics PATH   write a metrics JSON on shutdown ('-' = stdout)\n",
      argv0, essdds::sdds::ScanWorkerPool::kMaxThreads);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cluster_spec;
  std::string data_dir;
  std::string metrics_path;
  size_t host_index = SIZE_MAX;
  essdds::sdds::LhOptions lh;

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
    } else if (arg == "--host" || arg == "--site") {
      host_index = static_cast<size_t>(flag(flag_limits::kHost));
    } else if (arg == "--capacity") {
      lh.bucket_capacity = static_cast<size_t>(flag(flag_limits::kCapacity));
    } else if (arg == "--scan-threads") {
      auto threads = essdds::ParseDecimal(
          next(), essdds::sdds::ScanWorkerPool::kMaxThreads);
      if (!threads.ok()) {
        std::fprintf(stderr, "bad --scan-threads: %s\n",
                     threads.status().ToString().c_str());
        return Usage(argv[0]);
      }
      lh.scan_threads = static_cast<size_t>(*threads);
    } else if (arg == "--data-dir") {
      data_dir = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else {
      return Usage(argv[0]);
    }
  }
  if (cluster_spec.empty() || host_index == SIZE_MAX) return Usage(argv[0]);

  auto cluster = essdds::net::ClusterMap::Parse(cluster_spec);
  if (!cluster.ok()) {
    std::fprintf(stderr, "bad --cluster: %s\n",
                 cluster.status().ToString().c_str());
    return 2;
  }
  if (host_index >= cluster->hosts.size()) {
    std::fprintf(stderr, "--host %zu out of range (cluster has %zu hosts)\n",
                 host_index, cluster->hosts.size());
    return 2;
  }

  essdds::net::BucketHost::Config config;
  config.cluster = *cluster;
  config.host_index = host_index;
  config.options = lh;
  config.data_dir = data_dir;
  essdds::net::BucketHost host(config);
  InstallStandardFilters(host);

  if (essdds::Status s = host.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::fprintf(stderr, "essdds_server host %zu serving %s\n", host_index,
               cluster->hosts[host_index].ToString().c_str());

  while (!g_stop) {
    host.RunOnce(/*timeout_ms=*/100);
  }

  if (!metrics_path.empty()) {
    essdds::JsonWriter json;
    json.BeginObject();
    json.KV("host_index", static_cast<uint64_t>(host_index));
    json.KV("known_extent", host.known_extent());
    json.KV("local_buckets", static_cast<uint64_t>(host.local_bucket_count()));
    json.KV("frames_received", host.network().frames_received());
    json.Key("net");
    json.Raw(host.network().stats().ToJson());
    json.Key("metrics");
    json.Raw(host.network().metrics().ToJson());
    json.EndObject();
    const std::string out = json.str();
    if (metrics_path == "-") {
      std::fputs(out.c_str(), stdout);
      std::fputc('\n', stdout);
    } else {
      FILE* f = std::fopen(metrics_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
        return 1;
      }
      std::fputs(out.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }
  std::fprintf(stderr, "essdds_server host %zu: clean shutdown\n", host_index);
  return 0;
}
