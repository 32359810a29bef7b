// Whole-bucket task battery over degenerate key distributions — empty
// buckets, keys pinned at 0 and UINT64_MAX, tight clusters, heavy skew,
// consecutive keys, single records: the ColumnStore slice a task scans
// must present every record exactly once, in ascending key order, and
// serial and pooled evaluation must both reproduce a map-walk oracle byte
// for byte on every one of them.

#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sdds/column_store.h"
#include "sdds/lh_options.h"
#include "sdds/scan_executor.h"
#include "util/bytes.h"
#include "util/random.h"

namespace essdds::sdds {
namespace {

Bytes Val(uint64_t k) { return ToBytes("value-" + std::to_string(k)); }

bool Selective(uint64_t key, ByteSpan value, ByteSpan arg) {
  if (arg.empty()) return true;
  return !value.empty() && key % 3 == static_cast<uint64_t>(arg[0]) % 3;
}

std::unique_ptr<ScanFilter> SelectiveFilter() {
  return MakeScanFilter(Selective);
}

/// Key distributions at the edges of the key space. Each returns the
/// record map; the sweep runs every (distribution, thread count)
/// combination against the map-walk oracle.
std::vector<std::pair<std::string, std::map<uint64_t, Bytes>>>
ExtremeDistributions() {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::vector<std::pair<std::string, std::map<uint64_t, Bytes>>> out;

  auto add = [&](std::string name, std::vector<uint64_t> keys) {
    std::map<uint64_t, Bytes> records;
    for (uint64_t k : keys) records[k] = Val(k);
    out.emplace_back(std::move(name), std::move(records));
  };

  add("empty", {});
  add("single_zero", {0});
  add("single_max", {kMax});
  add("both_extremes", {0, kMax});
  add("extremes_and_midpoint", {0, kMax / 2, kMax});
  {
    std::vector<uint64_t> keys;  // tight cluster far from the origin
    for (uint64_t k = 0; k < 100; ++k) keys.push_back(1'000'000 + k);
    add("tight_cluster", std::move(keys));
  }
  {
    std::vector<uint64_t> keys;  // consecutive from zero: span == n - 1
    for (uint64_t k = 0; k < 64; ++k) keys.push_back(k);
    add("consecutive", std::move(keys));
  }
  {
    // A cluster at the origin plus one outlier at kMax.
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 50; ++k) keys.push_back(k);
    keys.push_back(kMax);
    add("cluster_plus_max_outlier", std::move(keys));
  }
  {
    std::vector<uint64_t> keys;  // two clusters hugging both ends
    for (uint64_t k = 0; k < 40; ++k) {
      keys.push_back(k);
      keys.push_back(kMax - k);
    }
    add("bimodal_extremes", std::move(keys));
  }
  {
    Rng rng(51);  // uniform hashed keys: the well-behaved baseline
    std::vector<uint64_t> keys;
    for (int i = 0; i < 200; ++i) keys.push_back(rng.Next());
    add("uniform", std::move(keys));
  }
  return out;
}

ScanTask MakeTask(const ColumnStore& columns, const ScanFilter& filter,
                  Bytes arg) {
  ScanTask task;
  task.bucket = 0;
  task.columns = columns.slice();
  task.filter = &filter;
  task.arg = std::move(arg);
  task.reply.type = MsgType::kScanReply;
  return task;
}

/// The ground truth, independent of the columnar path: the predicate
/// called directly over the map, in key order.
std::vector<WireRecord> OracleHits(const std::map<uint64_t, Bytes>& records,
                                   const Bytes& arg) {
  std::vector<WireRecord> hits;
  for (const auto& [key, value] : records) {
    if (Selective(key, value, arg)) hits.push_back(WireRecord{key, value});
  }
  return hits;
}

void ExpectSameHits(const std::vector<WireRecord>& actual,
                    const std::vector<WireRecord>& expected,
                    const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].key, expected[i].key) << label << " hit " << i;
    EXPECT_EQ(actual[i].value, expected[i].value) << label << " hit " << i;
  }
}

TEST(ScanPlannerTest, ExtremeKeyDistributionsMatchSerial) {
  const auto distributions = ExtremeDistributions();
  const std::unique_ptr<ScanFilter> filter = SelectiveFilter();
  const Bytes arg = {uint8_t{1}};
  // One column store per distribution, built in place (not movable).
  std::deque<ColumnStore> stores(distributions.size());
  std::vector<std::vector<WireRecord>> expected;
  for (size_t d = 0; d < distributions.size(); ++d) {
    const auto& [name, records] = distributions[d];
    stores[d].RebuildFrom(records);
    expected.push_back(OracleHits(records, arg));
    ScanTask task = MakeTask(stores[d], *filter, arg);
    ExecuteScanTask(task);
    ExpectSameHits(task.reply.records, expected[d], name + " serial");
  }
  // Pooled: every distribution in one batch, so workers claim buckets of
  // wildly different sizes (empty included) concurrently.
  for (const size_t threads : {2u, 4u, 8u, 16u}) {
    ScanWorkerPool pool(threads);
    std::vector<ScanTask> tasks;
    for (const ColumnStore& columns : stores) {
      tasks.push_back(MakeTask(columns, *filter, arg));
    }
    pool.Run(tasks);
    for (size_t d = 0; d < tasks.size(); ++d) {
      ExpectSameHits(tasks[d].reply.records, expected[d],
                     distributions[d].first + " threads=" +
                         std::to_string(threads));
    }
  }
}

TEST(ScanPlannerTest, MatchAllKeepsEveryRecordExactlyOnce) {
  // With a pass-everything filter the reply must be the whole map, in key
  // order — a dropped, duplicated or reordered record in the column slice
  // shows up immediately here.
  const auto distributions = ExtremeDistributions();
  const std::unique_ptr<ScanFilter> filter = SelectiveFilter();
  ScanWorkerPool pool(8);
  for (const auto& [name, records] : distributions) {
    ColumnStore columns;
    columns.RebuildFrom(records);
    // Two tasks over the same bucket, so the pool evaluates them (a single
    // pending task runs inline on the caller).
    std::vector<ScanTask> tasks;
    tasks.push_back(MakeTask(columns, *filter, {}));
    tasks.push_back(MakeTask(columns, *filter, {}));
    pool.Run(tasks);
    for (const ScanTask& task : tasks) {
      const auto& hits = task.reply.records;
      ASSERT_EQ(hits.size(), records.size()) << name;
      size_t i = 0;
      for (const auto& [key, value] : records) {
        EXPECT_EQ(hits[i].key, key) << name << " index " << i;
        EXPECT_EQ(hits[i].value, value) << name << " index " << i;
        ++i;
      }
    }
  }
}

}  // namespace
}  // namespace essdds::sdds
