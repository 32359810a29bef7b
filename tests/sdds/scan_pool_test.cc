// Persistent scan worker pool battery: lifecycle stress (repeated
// start/run/destroy cycles, lazy start, never-started pools), determinism
// (every pool size bit-for-bit equal to serial evaluation and to a map-walk
// oracle), oversubscription in both directions, empty batches, the
// ESSDDS_THREADS=OFF serial-fallback guarantee, and the deferred-scan
// snapshot contract under scripted pause/scan/split interleavings on the
// event network. Every task is one whole bucket presented as a ColumnStore
// slice, as bucket servers build them.

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sdds/column_store.h"
#include "sdds/event_network.h"
#include "sdds/lh_system.h"
#include "sdds/scan_executor.h"
#include "util/bytes.h"
#include "util/random.h"

namespace essdds::sdds {
namespace {

Bytes Val(uint64_t k) { return ToBytes("value-" + std::to_string(k)); }

std::map<uint64_t, Bytes> BuildRecords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::map<uint64_t, Bytes> records;
  while (records.size() < n) {
    const uint64_t k = rng.Next();
    records[k] = Val(k);
  }
  return records;
}

/// One bucket's records twice over: the map the oracle walks, and the
/// column store a bucket server keeps in lockstep and hands to scan tasks.
struct Bucket {
  std::map<uint64_t, Bytes> records;
  ColumnStore columns;
};

/// A deque, because a ColumnStore is neither copyable nor movable: buckets
/// are built in place and never relocate.
using Buckets = std::deque<Bucket>;

void AddBucket(Buckets& buckets, std::map<uint64_t, Bytes> records) {
  Bucket& bucket = buckets.emplace_back();
  bucket.records = std::move(records);
  bucket.columns.RebuildFrom(bucket.records);
}

/// A filter selective enough that hit sets are a strict, non-empty subset.
bool Selective(uint64_t key, ByteSpan value, ByteSpan arg) {
  if (arg.empty()) return true;
  return !value.empty() && key % 3 == static_cast<uint64_t>(arg[0]) % 3;
}

std::unique_ptr<ScanFilter> SelectiveFilter() {
  return MakeScanFilter(Selective);
}

ScanTask MakeTask(uint64_t bucket, const ColumnStore& columns,
                  const ScanFilter& filter, Bytes arg) {
  ScanTask task;
  task.bucket = bucket;
  task.columns = columns.slice();
  task.filter = &filter;
  task.arg = std::move(arg);
  task.reply.type = MsgType::kScanReply;
  task.reply.key = bucket;
  return task;
}

/// Fresh tasks over `buckets`, one per bucket, all with the same argument.
std::vector<ScanTask> MakeBatch(const Buckets& buckets,
                                const ScanFilter& filter, const Bytes& arg) {
  std::vector<ScanTask> tasks;
  tasks.reserve(buckets.size());
  for (size_t b = 0; b < buckets.size(); ++b) {
    tasks.push_back(MakeTask(b, buckets[b].columns, filter, arg));
  }
  return tasks;
}

/// The ground truth, independent of the columnar path: the predicate
/// called directly over each bucket's map, in key order.
std::vector<std::vector<WireRecord>> OracleHits(const Buckets& buckets,
                                                const Bytes& arg) {
  std::vector<std::vector<WireRecord>> hits(buckets.size());
  for (size_t b = 0; b < buckets.size(); ++b) {
    for (const auto& [key, value] : buckets[b].records) {
      if (Selective(key, value, arg)) {
        hits[b].push_back(WireRecord{key, value});
      }
    }
  }
  return hits;
}

/// Serial inline evaluation of a fresh batch, asserted equal to the oracle.
std::vector<std::vector<WireRecord>> SerialHits(const Buckets& buckets,
                                                const ScanFilter& filter,
                                                const Bytes& arg) {
  std::vector<ScanTask> tasks = MakeBatch(buckets, filter, arg);
  for (ScanTask& task : tasks) ExecuteScanTask(task);
  std::vector<std::vector<WireRecord>> hits;
  hits.reserve(tasks.size());
  for (ScanTask& task : tasks) hits.push_back(std::move(task.reply.records));
  EXPECT_EQ(hits, OracleHits(buckets, arg))
      << "serial columnar scan diverged from the map-walk oracle";
  return hits;
}

void ExpectPoolMatchesSerial(
    ScanWorkerPool& pool, const Buckets& buckets, const ScanFilter& filter,
    const Bytes& arg, const std::vector<std::vector<WireRecord>>& expected) {
  std::vector<ScanTask> tasks = MakeBatch(buckets, filter, arg);
  pool.Run(tasks);
  ASSERT_EQ(tasks.size(), expected.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    EXPECT_TRUE(tasks[t].evaluated) << "task " << t;
    EXPECT_EQ(tasks[t].reply.records, expected[t])
        << "task " << t << " diverged (threads=" << pool.thread_count()
        << ")";
  }
}

TEST(ScanPoolTest, PoolSizeOneMatchesSerialBitForBit) {
  Buckets buckets;
  for (uint64_t b = 0; b < 5; ++b) AddBucket(buckets, BuildRecords(120, b + 1));
  auto filter = SelectiveFilter();
  const Bytes arg = ToBytes("a");
  const auto expected = SerialHits(buckets, *filter, arg);
  size_t total = 0;
  for (const auto& h : expected) total += h.size();
  ASSERT_GT(total, 0u) << "filter selected nothing";

  ScanWorkerPool pool(1);
  for (int batch = 0; batch < 3; ++batch) {
    ExpectPoolMatchesSerial(pool, buckets, *filter, arg, expected);
  }
  // A size-1 pool is the serial path: no worker ever starts.
  EXPECT_EQ(pool.started_workers(), 0u);
}

TEST(ScanPoolTest, ThreadCountSweepMatchesSerialAtTaskLevel) {
  // Uneven buckets — large, tiny, empty, mid-sized — so workers finish out
  // of order and the pool must still hand back every reply intact.
  Buckets buckets;
  AddBucket(buckets, BuildRecords(700, 11));
  AddBucket(buckets, BuildRecords(3, 12));
  AddBucket(buckets, {});
  AddBucket(buckets, BuildRecords(256, 13));
  auto filter = SelectiveFilter();
  for (const Bytes& arg : {Bytes{}, ToBytes("b")}) {
    const auto expected = SerialHits(buckets, *filter, arg);
    for (size_t threads :
         {size_t{0}, size_t{1}, size_t{2}, size_t{4}, size_t{16}}) {
      ScanWorkerPool pool(threads);
      for (int batch = 0; batch < 3; ++batch) {
        ExpectPoolMatchesSerial(pool, buckets, *filter, arg, expected);
      }
    }
  }
}

TEST(ScanPoolTest, RepeatedStartRunDestroyCyclesAreClean) {
  Buckets buckets;
  for (uint64_t b = 0; b < 4; ++b) AddBucket(buckets, BuildRecords(90, b + 40));
  auto filter = SelectiveFilter();
  const Bytes arg = ToBytes("c");
  const auto expected = SerialHits(buckets, *filter, arg);

  for (int cycle = 0; cycle < 16; ++cycle) {
    ScanWorkerPool pool(4);
    EXPECT_EQ(pool.started_workers(), 0u) << "pool must start lazily";
    for (int batch = 0; batch < 3; ++batch) {
      ExpectPoolMatchesSerial(pool, buckets, *filter, arg, expected);
    }
    // Destructor joins the workers; the next cycle builds a fresh pool.
  }
  // Construct-and-destroy without ever running: nothing to join, no hang.
  for (int i = 0; i < 8; ++i) {
    ScanWorkerPool idle(8);
    EXPECT_EQ(idle.started_workers(), 0u);
  }
}

TEST(ScanPoolTest, OversubscriptionInBothDirections) {
  auto filter = SelectiveFilter();
  const Bytes arg = ToBytes("d");

  // Threads >> tasks: 32 workers, 2 buckets.
  Buckets few;
  AddBucket(few, BuildRecords(50, 7));
  AddBucket(few, BuildRecords(8, 8));
  const auto few_expected = SerialHits(few, *filter, arg);
  ScanWorkerPool wide(32);
  ExpectPoolMatchesSerial(wide, few, *filter, arg, few_expected);

  // Tasks >> threads: 2 workers, 48 buckets.
  Buckets many;
  for (uint64_t b = 0; b < 48; ++b) AddBucket(many, BuildRecords(30, 100 + b));
  const auto many_expected = SerialHits(many, *filter, arg);
  ScanWorkerPool narrow(2);
  ExpectPoolMatchesSerial(narrow, many, *filter, arg, many_expected);
}

TEST(ScanPoolTest, EmptyBatchesAndEmptyBucketsDoNotDeadlock) {
  ScanWorkerPool pool(4);
  std::vector<ScanTask> none;
  pool.Run(none);
  pool.Run(none);
  EXPECT_EQ(pool.started_workers(), 0u) << "empty batch must not start workers";

  // Tasks over empty buckets, beside one populated bucket.
  auto filter = SelectiveFilter();
  Buckets buckets;
  AddBucket(buckets, {});
  AddBucket(buckets, BuildRecords(20, 5));
  AddBucket(buckets, {});
  const auto expected = SerialHits(buckets, *filter, {});
  ExpectPoolMatchesSerial(pool, buckets, *filter, {}, expected);

  // System level: draining with nothing queued is a no-op, and scanning an
  // empty file answers one empty bucket.
  LhSystem sys(LhOptions{.scan_threads = 4});
  sys.network().DrainDeferredScans();
  const uint64_t match_all =
      sys.InstallFilter([](uint64_t, ByteSpan, ByteSpan) { return true; });
  auto result = sys.NewClient()->Scan(match_all, {});
  EXPECT_EQ(result.hits.size(), 0u);
  EXPECT_EQ(result.buckets_answered, 1u);
}

TEST(ScanPoolTest, ThreadSupportGateCompilesPoolToSerialPath) {
  Buckets buckets;
  AddBucket(buckets, BuildRecords(64, 21));
  AddBucket(buckets, BuildRecords(64, 22));
  auto filter = SelectiveFilter();
  const auto expected = SerialHits(buckets, *filter, {});

  ScanWorkerPool pool(4);
  ExpectPoolMatchesSerial(pool, buckets, *filter, {}, expected);
#if ESSDDS_THREADS
  EXPECT_TRUE(ScanWorkerPool::threads_compiled_in());
  EXPECT_EQ(pool.started_workers(), 4u)
      << "a parallel batch must have started the full pool";
#else
  // Thread support compiled out: the pool IS the serial path — identical
  // results (asserted above) with no worker ever created.
  EXPECT_FALSE(ScanWorkerPool::threads_compiled_in());
  EXPECT_EQ(pool.started_workers(), 0u);
#endif
}

// --- system level: the pool behind LhSystem scans ---

/// One LH* file plus a selective filter and a deterministic workload.
struct Workload {
  explicit Workload(size_t scan_threads)
      : sys(LhOptions{.bucket_capacity = 8, .scan_threads = scan_threads}),
        client(sys.NewClient()) {
    filter_id =
        sys.InstallFilter([](uint64_t key, ByteSpan value, ByteSpan arg) {
          if (arg.empty()) return true;
          return !value.empty() &&
                 (key % arg.size()) == static_cast<uint64_t>(arg[0] % 7);
        });
  }

  void Fill(int n, uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      const uint64_t k = rng.Next();
      client->Insert(k, Val(k));
    }
  }

  LhSystem sys;
  LhClient* client;
  uint64_t filter_id = 0;
};

TEST(ScanPoolTest, SystemThreadCountSweepMatchesSerial) {
  Workload serial(0);
  serial.Fill(1500, 77);
  serial.sys.network().ResetStats();
  const Bytes arg = ToBytes("sweep");
  const auto expected = serial.client->Scan(serial.filter_id, arg);
  const NetworkStats expected_stats = serial.sys.network().stats();
  ASSERT_GT(expected.hits.size(), 0u);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{16}}) {
    SCOPED_TRACE("scan_threads " + std::to_string(threads));
    Workload pooled(threads);
    pooled.Fill(1500, 77);
    pooled.sys.network().ResetStats();
    const auto got = pooled.client->Scan(pooled.filter_id, arg);
    EXPECT_EQ(got.hits, expected.hits);
    EXPECT_EQ(got.buckets_answered, expected.buckets_answered);
    EXPECT_EQ(pooled.sys.network().stats(), expected_stats);
  }
}

TEST(ScanPoolTest, OnePoolServesManyScansAndManySystemsCycle) {
  // Pool reuse: one system, many scans — the pool starts once and serves
  // every batch.
  Workload serial(0), pooled(4);
  serial.Fill(600, 9);
  pooled.Fill(600, 9);
  for (int i = 0; i < 12; ++i) {
    const Bytes arg(1, static_cast<uint8_t>('a' + i));
    EXPECT_EQ(pooled.client->Scan(pooled.filter_id, arg).hits,
              serial.client->Scan(serial.filter_id, arg).hits)
        << "scan " << i;
  }
#if ESSDDS_THREADS
  EXPECT_EQ(pooled.sys.network().scan_pool().started_workers(), 4u);
#endif
  // System churn: each LhSystem owns its pool; create, scan, destroy.
  for (int cycle = 0; cycle < 6; ++cycle) {
    Workload w(4);
    w.Fill(200, 50 + static_cast<uint64_t>(cycle));
    const auto result = w.client->Scan(w.filter_id, {});
    EXPECT_EQ(result.hits.size(), 200u) << "cycle " << cycle;
  }
}

// --- the deferred-scan snapshot contract (dangling-pointer hazard) ---

TEST(ScanPoolDeathTest, StaleSnapshotAbortsInsteadOfReadingDanglingState) {
  // The backstop behind the resolve-before-mutation protocol: if a mutation
  // path ever misses its AboutToMutateRecords() call, evaluation must abort
  // on the generation mismatch, not silently scan a mutated (or freed)
  // column store.
  Buckets buckets;
  AddBucket(buckets, BuildRecords(10, 99));
  const ColumnStore& columns = buckets[0].columns;
  auto filter = SelectiveFilter();
  ScanTask task = MakeTask(0, columns, *filter, {});
  uint64_t generation = 7;
  task.live_generation = &generation;
  task.enqueue_generation = 7;
  ExecuteScanTask(task);  // generations agree: fine
  EXPECT_TRUE(task.evaluated);

  ScanTask stale = MakeTask(0, columns, *filter, {});
  stale.live_generation = &generation;
  stale.enqueue_generation = 7;
  generation = 8;  // the bucket "mutated" after enqueue
  EXPECT_DEATH(ExecuteScanTask(stale), "mutated record map");
}

/// Bare reply sink for hand-rolled scan fan-outs.
struct Collector final : Site {
  std::vector<Message> replies;
  void OnMessage(Message& msg, Network&) override {
    replies.push_back(std::move(msg));
  }
};

// A split delivered while a scan task is queued must not change what the
// task returns: the bucket resolves the task against the pre-split content
// (what serial inline evaluation saw at kScan delivery). Scripted as
// pause(coordinator) / overflow / scan fan-out / resume / split / drain.
TEST(ScanPoolTest, SplitArrivingWhileTaskQueuedKeepsPreSplitSnapshot) {
  LhOptions opt;
  opt.bucket_capacity = 8;
  opt.hash_keys = false;  // raw placement: the split moves exactly the odds
  opt.scan_threads = 4;
  opt.network_mode = NetworkMode::kEvent;
  opt.event_net.seed = 13;
  LhSystem sys(opt);
  EventNetwork* net = sys.event_network();
  ASSERT_NE(net, nullptr);
  const uint64_t match_all =
      sys.InstallFilter([](uint64_t, ByteSpan, ByteSpan) { return true; });
  LhClient* client = sys.NewClient();

  for (uint64_t k = 1; k <= 8; ++k) client->Insert(k, Val(k));
  net->PumpUntilIdle();
  ASSERT_EQ(sys.bucket_count(), 1u);

  // Park the overflow report at the paused coordinator: the split is now
  // pending but cannot start.
  net->PauseSite(sys.CoordinatorSite());
  client->Insert(9, Val(9));
  net->PumpUntilIdle();
  ASSERT_EQ(net->parked_messages(), 1u) << "overflow not parked";
  ASSERT_EQ(sys.bucket_count(), 1u);

  // Hand-rolled scan fan-out, so the test controls what happens between the
  // task enqueue and the drain.
  Collector collector;
  const SiteId cid = sys.network().Register(&collector);
  Message scan;
  scan.type = MsgType::kScan;
  scan.from = cid;
  scan.reply_to = cid;
  scan.request_id = 4242;
  scan.filter_id = match_all;
  scan.assumed_level = 0;
  scan.to = sys.SiteOfBucket(0);
  sys.network().Send(std::move(scan));
  net->PumpUntilIdle();
  ASSERT_TRUE(collector.replies.empty()) << "scan answered before drain";

  // Release the overflow: the split races the queued task and mutates
  // bucket 0's record map. The bucket must resolve the task first.
  net->ResumeSite(sys.CoordinatorSite());
  net->PumpUntilIdle();
  ASSERT_EQ(sys.bucket_count(), 2u) << "split did not run";
  ASSERT_LT(sys.bucket(0).record_count(), 9u) << "split moved nothing";

  sys.network().DrainDeferredScans();
  net->PumpUntilIdle();

  // The reply carries the full pre-split bucket — exactly the serial
  // result — not the post-split remainder.
  ASSERT_EQ(collector.replies.size(), 1u);
  std::vector<WireRecord> expected;
  for (uint64_t k = 1; k <= 9; ++k) expected.push_back(WireRecord{k, Val(k)});
  EXPECT_EQ(collector.replies[0].records, expected);
}

// A kScan parked at a paused bucket replays after its initiator already
// drained: the late task waits in the pending queue, and the next mutation
// (here an insert) must resolve it before touching the map — otherwise the
// snapshot assert aborts. The eventual reply reaches the client as a
// discarded stale reply; the next scan is complete and correct.
TEST(ScanPoolTest, LateReplayedScanResolvesBeforeNextMutation) {
  LhOptions opt;
  opt.bucket_capacity = 64;
  opt.scan_threads = 4;
  opt.network_mode = NetworkMode::kEvent;
  opt.event_net.seed = 29;
  LhSystem sys(opt);
  EventNetwork* net = sys.event_network();
  const uint64_t match_all =
      sys.InstallFilter([](uint64_t, ByteSpan, ByteSpan) { return true; });
  LhClient* client = sys.NewClient();

  for (uint64_t k = 1; k <= 6; ++k) client->Insert(k, Val(k));
  net->PumpUntilIdle();

  // The whole fan-out parks: the scan returns empty-handed.
  net->PauseSite(sys.SiteOfBucket(0));
  auto blocked = client->Scan(match_all, {});
  EXPECT_EQ(blocked.buckets_answered, 0u);
  EXPECT_EQ(blocked.hits.size(), 0u);

  // Replay the parked kScan: the bucket enqueues a task nobody is waiting
  // for. The following insert mutates the map and must resolve it first.
  net->ResumeSite(sys.SiteOfBucket(0));
  net->PumpUntilIdle();
  client->Insert(7, Val(7));
  net->PumpUntilIdle();

  // The next scan drains both replies: its own (7 records) and the stale
  // one (6 pre-insert records), which the client discards.
  auto fresh = client->Scan(match_all, {});
  EXPECT_EQ(fresh.buckets_answered, 1u);
  EXPECT_EQ(fresh.hits.size(), 7u);
  EXPECT_EQ(client->stale_reply_count(), 1u);
}

}  // namespace
}  // namespace essdds::sdds
