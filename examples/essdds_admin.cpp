// essdds_admin: live observability scrape of an essdds_server cluster.
//
// Dials every host of a running cluster on a read-only admin connection
// (no hello — admin connections can never be addressed by protocol
// messages) and pulls merged telemetry:
//
//   essdds_admin --cluster uds:/tmp/a.sock,uds:/tmp/b.sock metrics
//       one merged JSON document: per-host sections plus a cluster
//       section whose counters/NetworkStats sum and whose histograms
//       merge bucket-wise (cluster p50/p95/p99 over all hosts' samples)
//   essdds_admin --cluster ... health
//       per-host health summaries (buckets, records, backpressure,
//       recovery counters) — works fully against METRICS=OFF servers
//   essdds_admin --cluster ... trace <id> [--json]
//       pulls every host's trace ring and stitches the causally ordered
//       cross-host timeline of one client operation (ids come from
//       essdds_client's last_trace_id / the shell's `trace last`)
//   essdds_admin --cluster ... watch [--interval-ms N] [--count N]
//       polls metrics and prints delta rates (msgs/s, bytes/s, drops)
//
// Exit code 0 = scrape succeeded.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "net/admin.h"
#include "net/flag_limits.h"
#include "util/json_writer.h"

namespace {

namespace flag_limits = essdds::net::flag_limits;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --cluster <ep,ep,...> <command>\n"
      "commands:\n"
      "  metrics                     merged cluster metrics JSON\n"
      "  health                      per-host health JSON array\n"
      "  trace <id> [--json]         assembled cross-host trace\n"
      "  watch [--interval-ms N] [--count N]\n"
      "                              poll metrics, print delta rates\n",
      argv0);
  return 2;
}

int RunWatch(essdds::net::AdminClient& admin, uint64_t interval_ms,
             uint64_t count) {
  essdds::sdds::NetworkStats prev;
  bool have_prev = false;
  for (uint64_t round = 0; count == 0 || round < count; ++round) {
    if (round != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    auto metrics = admin.Metrics();
    if (!metrics.ok()) {
      std::fprintf(stderr, "scrape failed: %s\n",
                   metrics.status().ToString().c_str());
      return 1;
    }
    const essdds::sdds::NetworkStats now = metrics->MergedStats();
    if (have_prev) {
      const double secs = static_cast<double>(interval_ms) / 1e3;
      auto rate = [&](uint64_t cur, uint64_t old) {
        return secs > 0 ? static_cast<double>(cur - old) / secs : 0.0;
      };
      std::printf("msgs/s %10.1f  bytes/s %12.1f  fwd/s %8.1f  "
                  "drop/s %6.1f  retry/s %6.1f  (totals: %" PRIu64
                  " msgs, %" PRIu64 " bytes)\n",
                  rate(now.total_messages, prev.total_messages),
                  rate(now.total_bytes, prev.total_bytes),
                  rate(now.forwarded_messages, prev.forwarded_messages),
                  rate(now.dropped_messages, prev.dropped_messages),
                  rate(now.retried_messages, prev.retried_messages),
                  now.total_messages, now.total_bytes);
    } else {
      std::printf("baseline: %" PRIu64 " msgs, %" PRIu64
                  " bytes across %zu host(s)\n",
                  now.total_messages, now.total_bytes,
                  metrics->hosts.size());
    }
    std::fflush(stdout);
    prev = now;
    have_prev = true;
  }
  return 0;
}

std::string TraceJson(const essdds::net::AssembledTrace& trace) {
  essdds::JsonWriter w;
  w.BeginObject()
      .KV("trace_id", trace.trace_id)
      .KV("ordered", trace.ordered)
      .KV("overwritten", trace.overwritten)
      .Key("hops")
      .BeginArray();
  for (const essdds::net::ClusterHop& hop : trace.hops) {
    w.BeginObject()
        .KV("host", static_cast<int64_t>(hop.host))
        .KV("time_us", hop.ev.time_us)
        .KV("kind", essdds::obs::HopKindName(hop.ev.kind))
        .KV("type", essdds::sdds::MsgTypeToString(
                        static_cast<essdds::sdds::MsgType>(hop.ev.msg_type)))
        .KV("request_id", hop.ev.request_id)
        .KV("key", hop.ev.key)
        .KV("from", static_cast<uint64_t>(hop.ev.from))
        .KV("to", static_cast<uint64_t>(hop.ev.to))
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string cluster_spec;
  std::string command;
  uint64_t trace_id = 0;
  bool json = false;
  uint64_t interval_ms = 1000;
  uint64_t count = 0;  // 0 = forever

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
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--interval-ms") {
      interval_ms = flag(flag_limits::kIntervalMs);
    } else if (arg == "--count") {
      count = flag(flag_limits::kCount);
    } else if (command.empty()) {
      command = arg;
    } else if (command == "trace" && trace_id == 0) {
      trace_id = std::strtoull(arg.c_str(), nullptr, 0);
    } else {
      return Usage(argv[0]);
    }
  }
  if (cluster_spec.empty() || command.empty()) return Usage(argv[0]);

  auto cluster = essdds::net::ClusterMap::Parse(cluster_spec);
  if (!cluster.ok()) {
    std::fprintf(stderr, "bad --cluster: %s\n",
                 cluster.status().ToString().c_str());
    return 2;
  }

  essdds::net::AdminClient::Options opts;
  opts.cluster = *cluster;
  essdds::net::AdminClient admin(opts);
  if (essdds::Status s = admin.Connect(); !s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return 1;
  }

  if (command == "metrics") {
    auto metrics = admin.Metrics();
    if (!metrics.ok()) {
      std::fprintf(stderr, "scrape failed: %s\n",
                   metrics.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", metrics->ToJson().c_str());
    return 0;
  }
  if (command == "health") {
    auto health = admin.Health();
    if (!health.ok()) {
      std::fprintf(stderr, "scrape failed: %s\n",
                   health.status().ToString().c_str());
      return 1;
    }
    essdds::JsonWriter w;
    w.BeginArray();
    for (const essdds::net::HostHealth& h : *health) w.Raw(h.json);
    w.EndArray();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  if (command == "trace") {
    if (trace_id == 0) {
      std::fprintf(stderr, "trace needs a nonzero id\n");
      return 2;
    }
    auto trace = admin.AssembleTrace(trace_id);
    if (!trace.ok()) {
      std::fprintf(stderr, "scrape failed: %s\n",
                   trace.status().ToString().c_str());
      return 1;
    }
    if (json) {
      std::printf("%s\n", TraceJson(*trace).c_str());
    } else {
      std::fputs(essdds::net::FormatAssembledTrace(*trace).c_str(), stdout);
    }
    return 0;
  }
  if (command == "watch") {
    return RunWatch(admin, interval_ms, count);
  }
  return Usage(argv[0]);
}
