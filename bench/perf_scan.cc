// Scan benchmark: (1) the BatchMatcher kernel alone — BatchMatcher::Matches
// over index streams that are already decoded, so it leaves out the
// DeserializeStreamInto decode every real bucket scan pays before matching
// (checked against the naive FindOccurrences matcher, untimed); (2)
// end-to-end encrypted search on the phonebook workload, serial vs pooled
// index scans (the pool evaluates whole buckets, one per worker at a
// time). Emits one JSON object so CI can track the numbers.
//
// Scale with ESSDDS_RECORDS=<n> (default 20,000 — the kernel rate is
// size-independent, the end-to-end part is wall-clock bound).

#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#if ESSDDS_THREADS
#include <thread>
#endif

#include "bench/bench_util.h"
#include "core/batch_matcher.h"
#include "core/encrypted_store.h"
#include "core/matcher.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "util/json_writer.h"

namespace essdds::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One stored index record as the scan sees it: coordinates plus stream.
struct IndexedStream {
  uint32_t family;
  uint32_t site;
  std::vector<uint64_t> stream;
};

/// Reference matching: FindOccurrences per series pattern, the oracle the
/// kernel's hit count is checked against.
bool NaiveMatch(const core::SearchQuery& query, const IndexedStream& rec) {
  for (const core::QuerySeries& s : query.SeriesFor(rec.family)) {
    const std::vector<uint64_t>& pattern = query.PatternFor(s, rec.site);
    if (!core::FindOccurrences(rec.stream, pattern).empty()) return true;
  }
  return false;
}

struct MatcherNumbers {
  double decoded_records_per_sec = 0;
  size_t records = 0;
  size_t matched = 0;
};

MatcherNumbers RunMatcherKernel(size_t corpus_size) {
  const core::SchemeParams params{.codes_per_chunk = 4, .dispersal_sites = 2};
  auto corpus = LoadCorpus(corpus_size);
  std::vector<std::string> training;
  training.reserve(corpus.size());
  for (const auto& r : corpus) training.push_back(r.name);
  auto pipeline =
      core::IndexPipeline::Create(params, ToBytes("perf-scan-key"), training);
  ESSDDS_CHECK(pipeline.ok()) << pipeline.status();

  std::vector<IndexedStream> records;
  for (const auto& r : corpus) {
    for (core::IndexRecordData& rec :
         pipeline->BuildIndexRecords(r.rid, r.name)) {
      records.push_back(
          IndexedStream{rec.family, rec.site, std::move(rec.stream)});
    }
  }
  auto built = pipeline->BuildQuery("SCHWARZ");
  ESSDDS_CHECK(built.ok()) << built.status();
  const core::SearchQuery query = *std::move(built);

  MatcherNumbers out;
  out.records = records.size();

  size_t naive_matched = 0;
  for (const IndexedStream& rec : records) {
    naive_matched += NaiveMatch(query, rec) ? 1 : 0;
  }

  // Several passes so the kernel runs long enough to time reliably.
  const int kPasses = 5;
  const core::BatchMatcher batch(&query);
  size_t batch_matched = 0;
  const auto t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const IndexedStream& rec : records) {
      batch_matched += batch.Matches(rec.family, rec.site, rec.stream) ? 1 : 0;
    }
  }
  const double batch_s = SecondsSince(t0);
  ESSDDS_CHECK(batch_matched == naive_matched * kPasses)
      << "batch matcher disagreement: " << batch_matched / kPasses << " vs "
      << naive_matched;

  out.decoded_records_per_sec =
      static_cast<double>(records.size()) * kPasses / batch_s;
  out.matched = naive_matched;
  return out;
}

struct ScanNumbers {
  double ms_per_search = 0;
  double index_records_per_sec = 0;
  size_t hits = 0;
  // Batch-shape histogram from the index network's metric registry
  // (zero-count with -DESSDDS_METRICS=OFF): tasks (buckets) per drained
  // batch. Serial scans never batch, so it stays empty in the serial leg.
  obs::Histogram::Summary batch_tasks;
};

/// Emits a Histogram::Summary as the next value (an object).
void SummaryValue(JsonWriter& w, const obs::Histogram::Summary& s) {
  w.BeginObject()
      .KV("count", s.count)
      .KV("p50", s.p50)
      .KV("p95", s.p95)
      .KV("p99", s.p99)
      .KV("max", s.max)
      .EndObject();
}

ScanNumbers RunStoreSearches(size_t corpus_size, size_t scan_threads) {
  core::EncryptedStore::Options opts;
  opts.params = core::SchemeParams{.codes_per_chunk = 4, .dispersal_sites = 2};
  opts.record_file.bucket_capacity = 64;
  opts.index_file.bucket_capacity = 128;
  opts.index_file.scan_threads = scan_threads;
  auto store =
      core::EncryptedStore::Create(opts, ToBytes("perf-scan-key"), {});
  ESSDDS_CHECK(store.ok()) << store.status();

  auto corpus = LoadCorpus(corpus_size);
  for (const auto& r : corpus) {
    ESSDDS_CHECK((*store)->Insert(r.rid, r.name).ok());
  }
  const double index_records =
      static_cast<double>((*store)->index_file().TotalRecords());

  const std::vector<std::string> queries = {"SCHWARZ", "MARIA",  "GARCIA",
                                            "JOHNSON", "THOMAS", "NGUYEN"};
  ScanNumbers out;
  // Warm once (image adjustments, allocator), then reset so the reported
  // metrics cover exactly the measured phase, and measure.
  ESSDDS_CHECK((*store)->Search(queries[0]).ok());
  (*store)->index_file().network().ResetStats();
  auto t0 = Clock::now();
  for (const std::string& q : queries) {
    auto rids = (*store)->Search(q);
    ESSDDS_CHECK(rids.ok()) << rids.status();
    out.hits += rids->size();
  }
  const double elapsed = SecondsSince(t0);
  out.ms_per_search = 1e3 * elapsed / static_cast<double>(queries.size());
  // Every search evaluates every index record once at its site.
  out.index_records_per_sec =
      index_records * static_cast<double>(queries.size()) / elapsed;
  obs::MetricRegistry& metrics = (*store)->index_file().network().metrics();
  out.batch_tasks = metrics.histogram("scan.batch_tasks").Summarize();
  return out;
}

int Main() {
  const size_t corpus_size = CorpusSize(/*default_size=*/20000);
#if ESSDDS_THREADS
  size_t threads = std::thread::hardware_concurrency();
  if (threads < 2) threads = 2;
#else
  const size_t threads = 0;  // thread support compiled out
#endif

  const MatcherNumbers m = RunMatcherKernel(corpus_size);
  const ScanNumbers serial = RunStoreSearches(corpus_size, 0);
  const ScanNumbers parallel = RunStoreSearches(corpus_size, threads);
  const bool hits_agree = serial.hits == parallel.hits;

  JsonWriter w;
  w.BeginObject();
  w.KV("corpus_records", static_cast<uint64_t>(corpus_size));
  w.Key("matcher").BeginObject();
  w.KV("index_records", static_cast<uint64_t>(m.records));
  w.KV("records_matched", static_cast<uint64_t>(m.matched));
  w.KV("batch_matcher_decoded_records_per_sec", m.decoded_records_per_sec, 0);
  w.EndObject();
  w.Key("search").BeginObject();
  w.KV("scan_threads", static_cast<uint64_t>(threads));
  w.KV("serial_ms_per_search", serial.ms_per_search, 2);
  w.KV("parallel_ms_per_search", parallel.ms_per_search, 2);
  w.KV("serial_index_records_per_sec", serial.index_records_per_sec, 0);
  w.KV("parallel_index_records_per_sec", parallel.index_records_per_sec, 0);
  w.KV("hits_agree", hits_agree);
  // Batch-shape histogram of the measured phase (metrics builds only;
  // a zero-count object with -DESSDDS_METRICS=OFF).
  w.Key("parallel_batch_tasks");
  SummaryValue(w, parallel.batch_tasks);
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return hits_agree ? 0 : 1;
}

}  // namespace
}  // namespace essdds::bench

int main() { return essdds::bench::Main(); }
