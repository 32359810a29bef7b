// The three workloads of the layered benchmark. Every workload runs the
// paper's complete scheme in-process on SimNetwork, driven by one
// closed-loop client on one thread (the index file scans serially).
//
// Untraced runs (--trace 0) time whole store calls and report the
// end-to-end metrics. Traced runs (--trace 1) re-issue the store's
// operations as compositions of the public layer calls the store itself
// makes, with a wall-clock span around each call, and report the per-layer
// metrics. See README.md for the metric definitions.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "codec/chunker.h"
#include "codec/dispersal.h"
#include "core/batch_matcher.h"
#include "core/encrypted_store.h"
#include "core/pipeline.h"
#include "crypto/aes.h"
#include "crypto/ecb.h"
#include "crypto/hmac.h"
#include "crypto/key_chain.h"
#include "crypto/record_cipher.h"
#include "trace.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "workload/phonebook.h"

namespace perfbench {
namespace {

namespace codec = essdds::codec;
namespace core = essdds::core;
namespace crypto = essdds::crypto;
namespace sdds = essdds::sdds;
using essdds::Bytes;
using essdds::ByteSpan;
using essdds::JsonWriter;
using essdds::Rng;
using essdds::Status;
using essdds::workload::PhonebookGenerator;
using essdds::workload::PhoneRecord;

// ---------------------------------------------------------------------------
// Fixed configuration (the paper's complete scheme, §5).

// Stage 2 on (32 codes), 4 codes per chunk => 4 chunkings, each dispersed
// over 4 sites: 16 index records per data record.
const core::SchemeParams kParams{
    .num_codes = 32, .codes_per_chunk = 4, .dispersal_sites = 4};
constexpr size_t kRecordBucketCapacity = 128;
constexpr size_t kIndexBucketCapacity = 512;
// Serial scan on the calling thread: with a 2-thread scan pool, repeats of
// one query differed by up to +-20% on a shared 4-vCPU host (pool wake-ups
// measure the scheduler); serial repeats mostly stayed within +-5%.
constexpr size_t kScanThreads = 1;
constexpr std::string_view kMasterKey = "perfbench master key";
// Set-ups per untraced run: at least kMinSetups, and for cheap set-ups as
// many as fit in kSetupBudgetS (at most kMaxSetups); setup_s is the median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.0;
// Untraced ingest and search run whole blocks (ingest passes, passes over
// the query list) until --seconds is up, at least kMinBlocks ingest passes
// and kMinSearchPasses passes over the query list.
// durable_churn runs a fixed number of ops per --seconds second in blocks
// of kChurnBlock, so its end state (store size, logs, disk bytes) repeats
// for a seed however fast the machine runs.
constexpr size_t kMinBlocks = 3;
constexpr size_t kMinSearchPasses = 3;
constexpr size_t kChurnOpsPerSecond = 12000;
constexpr size_t kChurnBlock = 4000;
// Tail of the search latencies: the highest percentile with ten of the
// list's 100 queries beyond it.
constexpr double kSearchTailP = 90;
// Ops per block when a traced run alternates untraced and traced blocks.
constexpr size_t kBlock = 256;
// Traced ops whose spans are written out (the layer table covers all).
constexpr size_t kKeptOps = 2000;

struct Sizes {
  size_t ingest_records;    // one ingest pass
  size_t preload_records;   // search and durable_churn start state
  size_t training_records;  // Stage-2 encoder training sample
  size_t queries;           // search list; its first pass fixes the FP count
  size_t verify_gets;       // Gets checked after each ingest pass
  size_t traced_searches;   // search workload, traced run, per 10 s
  size_t traced_churn_ops;  // durable_churn, traced run, per 10 s
  size_t kernel_queries;    // traced searches that also time decode/match
};

Sizes SizesFor(const Args& args) {
  if (args.small) return {2000, 1000, 1000, 16, 50, 16, 2000, 2};
  return {40000, 20000, 20000, 100, 200, 128, 40000, 4};
}

ByteSpan MasterKey() {
  return ByteSpan(reinterpret_cast<const uint8_t*>(kMasterKey.data()),
                  kMasterKey.size());
}

crypto::KeyChain Keys() {
  return crypto::KeyChain(Bytes(MasterKey().begin(), MasterKey().end()));
}

ByteSpan AsBytes(std::string_view s) {
  return ByteSpan(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::unique_ptr<core::EncryptedStore> MakeStore(
    std::span<const std::string> training, const std::string& data_dir) {
  core::EncryptedStore::Options opts;
  opts.params = kParams;
  opts.record_file.bucket_capacity = kRecordBucketCapacity;
  opts.index_file.bucket_capacity = kIndexBucketCapacity;
  opts.index_file.scan_threads = kScanThreads;
  if (!data_dir.empty()) {
    // persist_fsync stays off: appends flush to the OS page cache only.
    opts.record_file.data_dir = data_dir + "/record_file";
    opts.index_file.data_dir = data_dir + "/index_file";
  }
  auto store = core::EncryptedStore::Create(opts, MasterKey(), training);
  ESSDDS_CHECK(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Latency samples of one op type, in nanoseconds.
class Latencies {
 public:
  void Add(int64_t ns) {
    ns_.push_back(ns);
    total_ns_ += ns;
  }
  size_t count() const { return ns_.size(); }
  int64_t total_ns() const { return total_ns_; }
  double mean_ns() const {
    return ns_.empty() ? 0 : static_cast<double>(total_ns_) / count();
  }
  /// Nearest-rank percentile, p in (0, 100].
  double Percentile(double p) const {
    if (ns_.empty()) return 0;
    std::vector<int64_t> sorted = ns_;
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    const size_t idx = std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1);
    std::nth_element(sorted.begin(), sorted.begin() + idx, sorted.end());
    return static_cast<double>(sorted[idx]);
  }

 private:
  std::vector<int64_t> ns_;
  int64_t total_ns_ = 0;
};

/// "p99 of 12345 samples"; flags a percentile with fewer than ten samples
/// beyond it.
std::string PercentileNote(double p, size_t n) {
  const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
  char buf[96];
  std::snprintf(buf, sizeof buf, "p%g of %zu samples%s", p, n,
                beyond < 10 ? " (fewer than 10 beyond)" : "");
  return buf;
}

/// The plaintext oracle: live rid -> content, with uniform sampling over
/// the live rids.
class Plaintext {
 public:
  void Put(uint64_t rid, std::string content) {
    auto it = index_.find(rid);
    if (it == index_.end()) {
      index_[rid] = rids_.size();
      rids_.push_back(rid);
    } else {
      user_bytes_ -= contents_[rid].size();
    }
    user_bytes_ += content.size();
    contents_[rid] = std::move(content);
  }
  void Erase(uint64_t rid) {
    auto it = index_.find(rid);
    ESSDDS_CHECK(it != index_.end());
    const size_t pos = it->second;
    rids_[pos] = rids_.back();
    index_[rids_[pos]] = pos;
    rids_.pop_back();
    index_.erase(rid);
    user_bytes_ -= contents_[rid].size();
    contents_.erase(rid);
  }
  const std::string& Content(uint64_t rid) const { return contents_.at(rid); }
  uint64_t Sample(Rng& rng) const {
    return rids_[static_cast<size_t>(rng.Uniform(rids_.size()))];
  }
  size_t size() const { return rids_.size(); }
  uint64_t user_bytes() const { return user_bytes_; }
  /// Every live rid whose content contains `needle`, ascending.
  std::vector<uint64_t> Matching(std::string_view needle) const {
    std::vector<uint64_t> out;
    for (const auto& [rid, content] : contents_) {
      if (content.find(needle) != std::string::npos) out.push_back(rid);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::unordered_map<uint64_t, std::string> contents_;
  std::unordered_map<uint64_t, size_t> index_;
  std::vector<uint64_t> rids_;
  uint64_t user_bytes_ = 0;
};

/// Compares a search answer with the oracle's: a missed rid fails the op,
/// an extra rid is a false positive. Returns the false-positive count.
size_t CheckSearch(std::string_view query, const std::vector<uint64_t>& got,
                   const std::vector<uint64_t>& expected, RunResult* out) {
  std::vector<uint64_t> missed;
  std::set_difference(expected.begin(), expected.end(), got.begin(),
                      got.end(), std::back_inserter(missed));
  if (!missed.empty()) {
    out->Fail("search '" + std::string(query) + "' missed " +
              std::to_string(missed.size()) + " of " +
              std::to_string(expected.size()) + " records");
  }
  return got.size() + missed.size() - expected.size();
}

void CheckGet(uint64_t rid, const essdds::Result<std::string>& got,
              const Plaintext& oracle, RunResult* out) {
  if (!got.ok()) {
    out->Fail("get " + std::to_string(rid) + ": " + got.status().ToString());
  } else if (*got != oracle.Content(rid)) {
    out->Fail("get " + std::to_string(rid) + " returned the wrong content");
  }
}

void CheckStatus(const char* op, uint64_t rid, const Status& s,
                 RunResult* out) {
  if (!s.ok()) {
    out->Fail(std::string(op) + " " + std::to_string(rid) + ": " +
              s.ToString());
  }
}

uint64_t RamStoredBytes(const sdds::LhSystem& file) {
  uint64_t bytes = 0;
  for (size_t b = 0; b < file.bucket_count(); ++b) {
    for (const auto& [key, value] : file.bucket(b).records()) {
      bytes += sizeof(key) + value.size();
    }
  }
  return bytes;
}

uint64_t RamStoredBytes(core::EncryptedStore& store) {
  return RamStoredBytes(store.record_file()) +
         RamStoredBytes(store.index_file());
}

/// Bytes of the regular files under `dir`; with `logs_only`, only the
/// bucket logs (bucket-<N>.log).
uint64_t DiskBytes(const std::string& dir, bool logs_only) {
  uint64_t bytes = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    if (logs_only && !(name.starts_with("bucket-") && name.ends_with(".log"))) {
      continue;
    }
    bytes += e.file_size();
  }
  return bytes;
}

/// Sum of a registry counter over both files of the store. Registry
/// counters exist only with -DESSDDS_METRICS=ON; callers report them as
/// absent otherwise.
uint64_t Counter(core::EncryptedStore& store, std::string_view name) {
  return store.record_file().network().metrics().counter(name).value() +
         store.index_file().network().metrics().counter(name).value();
}

struct NetTotals {
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

NetTotals Net(core::EncryptedStore& store) {
  const auto& r = store.record_file().network().stats();
  const auto& i = store.index_file().network().stats();
  return {r.total_messages + i.total_messages, r.total_bytes + i.total_bytes};
}

double ColumnWasteRatio(const sdds::LhSystem& file) {
  uint64_t waste = 0;
  uint64_t arena = 0;
  for (size_t b = 0; b < file.bucket_count(); ++b) {
    waste += file.bucket(b).columns().waste_bytes();
    arena += file.bucket(b).columns().arena_bytes();
  }
  return arena == 0 ? 0 : static_cast<double>(waste) / arena;
}

// ---------------------------------------------------------------------------
// Traced operations: the store's Insert/Get/Delete/Search issued as the
// public layer calls the store makes, each call in a wall-clock span.

/// Per-layer counts the spans alone do not carry.
struct LayerCounts {
  uint64_t inserts = 0;  // insert + update ops
  uint64_t aes_blocks = 0;
  uint64_t chunks = 0;
  NetTotals insert_net;
  uint64_t searches = 0;
  NetTotals search_net;
  uint64_t candidates = 0;
  uint64_t families_confirmed = 0;
  uint64_t false_positives = 0;
  uint64_t kernel_records = 0;
  int64_t decode_ns = 0;
  int64_t match_ns = 0;
  // trace.coverage: attributed layer time over op time, per op type
  // (insert, update, search).
  struct Coverage {
    int64_t covered_ns = 0;
    int64_t total_ns = 0;
  };
  std::map<std::string, Coverage> coverage;
};

class TracedOps {
 public:
  TracedOps(core::EncryptedStore& store, Tracer& tracer, LayerCounts& counts)
      : store_(store),
        tracer_(tracer),
        counts_(counts),
        cipher_(crypto::RecordCipher::Create(MasterKey()).value()),
        aes_(crypto::Aes::Create(crypto::DeriveKey(
                                     MasterKey(), "essdds/record/enc", 16))
                 .value()),
        chunker_(codec::Chunker::Create(&store.pipeline().encoder(),
                                        kParams.codes_per_chunk)
                     .value()),
        codebook_(crypto::EcbCodebook::Create(Keys().ChunkKey(0),
                                              kParams.chunk_bits(),
                                              /*tweak=*/0)
                      .value()),
        disperser_(codec::Disperser::Create(kParams.chunk_bits(),
                                            kParams.dispersal_sites,
                                            Keys().DispersalMatrixSeed())
                       .value()),
        record_client_(store.record_file().NewClient()),
        index_client_(store.index_file().NewClient()) {}

  /// Feeds `text` through the replica codebook untimed. Every untraced
  /// store op that encrypts chunks (index builds and query builds) is
  /// mirrored here, so the replica's memo holds exactly what the store's
  /// codebook holds and the timed replica sees the same memo misses.
  void Mirror(std::string_view text) {
    for (int f = 0; f < kParams.num_chunkings(); ++f) {
      for (uint64_t c : chunker_.BuildChunks(
               text, static_cast<size_t>(f * kParams.chunking_stride))) {
        codebook_.Encrypt(c);
      }
    }
  }

  /// EncryptedStore::Insert as its calls: seal, record-file insert, index
  /// build, then serialize + index-file insert per index record. `op` names
  /// the op type ("insert" for a fresh rid, "update" for an overwrite).
  Status Insert(const char* op, uint64_t rid, std::string_view content) {
    const NetTotals before = Net(store_);
    tracer_.BeginOp(op);
    Bytes sealed;
    int seal_span;
    {
      ScopedSpan s(tracer_, "crypto.seal");
      seal_span = s.index();
      // Sequences far above the store's own counter: the benchmark's
      // composed inserts never reuse a (rid, sequence) nonce input.
      sealed = cipher_.Seal(rid, kSequenceBase + sequence_++, AsBytes(content));
    }
    {
      ScopedSpan s(tracer_, "sdds.record_insert");
      record_client_->Insert(rid, std::move(sealed));
    }
    std::vector<core::IndexRecordData> records;
    int build_span;
    {
      ScopedSpan s(tracer_, "core.build_index");
      build_span = s.index();
      records = store_.pipeline().BuildIndexRecords(rid, content);
    }
    for (const core::IndexRecordData& rec : records) {
      Bytes stream;
      {
        ScopedSpan s(tracer_, "core.serialize");
        stream = store_.pipeline().SerializeStream(rec.stream);
      }
      ScopedSpan s(tracer_, "sdds.index_insert");
      index_client_->Insert(
          core::MakeIndexKey(rid, rec.family, rec.site, kParams),
          std::move(stream));
    }
    tracer_.End(Tracer::kRoot);
    const NetTotals after = Net(store_);
    counts_.inserts++;
    counts_.insert_net.messages += after.messages - before.messages;
    counts_.insert_net.bytes += after.bytes - before.bytes;
    Status replica = TimeReplicas(rid, content, records, seal_span, build_span);
    const Tracer::OpTimes t = tracer_.EndOp();
    // The root's self time is loop glue, not a layer.
    LayerCounts::Coverage& cov = counts_.coverage[op];
    cov.covered_ns += t.child_self_ns;
    cov.total_ns += t.root_ns;
    return replica;
  }

  essdds::Result<std::string> Get(uint64_t rid) {
    tracer_.BeginOp("get");
    essdds::Result<Bytes> sealed = [&] {
      ScopedSpan s(tracer_, "sdds.lookup");
      return record_client_->Lookup(rid);
    }();
    if (!sealed.ok()) {
      tracer_.EndOp();
      return sealed.status();
    }
    essdds::Result<Bytes> plain = [&] {
      ScopedSpan s(tracer_, "crypto.open");
      return cipher_.Open(rid, *sealed);
    }();
    tracer_.EndOp();
    if (!plain.ok()) return plain.status();
    return std::string(plain->begin(), plain->end());
  }

  Status Delete(uint64_t rid) {
    tracer_.BeginOp("delete");
    Status status = [&] {
      ScopedSpan s(tracer_, "sdds.record_delete");
      return record_client_->Delete(rid);
    }();
    for (int f = 0; f < kParams.num_chunkings() && status.ok(); ++f) {
      for (int d = 0; d < kParams.dispersal_sites; ++d) {
        ScopedSpan s(tracer_, "sdds.index_delete");
        Status st = index_client_->Delete(core::MakeIndexKey(
            rid, static_cast<uint32_t>(f), static_cast<uint32_t>(d), kParams));
        if (!st.ok() && !st.IsNotFound()) status = st;
      }
    }
    tracer_.EndOp();
    return status;
  }

  /// The root span is the store's own SearchDetailed. Query build and scan
  /// are re-issued beside it on the same inputs (BuildQuery, then
  /// LhClient::Scan on this client against the store's match filter) and
  /// recorded as its replica children, so the root's self time is the
  /// client-side confirmation. With `kernels`, also times the site-side
  /// decode and match over every index record the store holds.
  essdds::Result<core::EncryptedStore::SearchOutcome> Search(
      std::string_view query, bool kernels, RunResult* out) {
    Mirror(query);
    const NetTotals before = Net(store_);
    tracer_.BeginOp("search");
    auto outcome = store_.SearchDetailed(query);
    tracer_.End(Tracer::kRoot);
    const NetTotals after = Net(store_);

    const int64_t q0 = NowNs();
    auto built = store_.pipeline().BuildQuery(query);
    const int64_t q1 = NowNs();
    tracer_.AddReplica("core.build_query", Tracer::kRoot, q0, q1);
    if (!built.ok() || !outcome.ok()) {
      tracer_.EndOp();
      return outcome.ok() ? built.status() : outcome.status();
    }
    Bytes wire = built->Serialize();
    const int64_t s0 = NowNs();
    sdds::LhClient::ScanResult scan =
        index_client_->Scan(kMatchFilterId, std::move(wire));
    const int64_t s1 = NowNs();
    tracer_.AddReplica("sdds.scan", Tracer::kRoot, s0, s1);
    const Tracer::OpTimes t = tracer_.EndOp();
    // The root's self time is confirmation, a layer of its own, so coverage
    // is 1 unless the replicas run longer than the real op.
    LayerCounts::Coverage& cov = counts_.coverage["search"];
    cov.covered_ns += t.child_self_ns + std::max<int64_t>(0, t.root_self_ns);
    cov.total_ns += t.root_ns;

    const auto& stats = outcome->stats;
    if (scan.hits.size() != stats.candidate_index_records) {
      out->Fail("replica scan of '" + std::string(query) + "' returned " +
                std::to_string(scan.hits.size()) + " hits, the store saw " +
                std::to_string(stats.candidate_index_records));
    }
    counts_.searches++;
    counts_.search_net.messages += after.messages - before.messages;
    counts_.search_net.bytes += after.bytes - before.bytes;
    counts_.candidates += stats.candidate_index_records;
    counts_.families_confirmed += stats.families_confirmed;
    if (kernels) TimeKernels(*built, stats.candidate_index_records, out);
    return outcome;
  }

 private:
  // EncryptedStore installs its match filter first on a fresh index file.
  static constexpr uint64_t kMatchFilterId = 0;
  static constexpr uint64_t kSequenceBase = uint64_t{1} << 40;

  /// Times the crypto and codec steps of the insert again on the same
  /// inputs and checks they rebuild the index streams the store wrote.
  Status TimeReplicas(uint64_t rid, std::string_view content,
                      const std::vector<core::IndexRecordData>& records,
                      int seal_span, int build_span) {
    // AES: one block per 16 content bytes, as the seal's CTR keystream.
    const size_t blocks = (content.size() + 15) / 16;
    uint8_t block[crypto::Aes::kBlockSize] = {};
    const int64_t a0 = NowNs();
    for (size_t b = 0; b < blocks; ++b) {
      block[15] = static_cast<uint8_t>(b);
      aes_.EncryptBlock(block, block);
    }
    const int64_t a1 = NowNs();
    tracer_.AddReplica("crypto.aes", seal_span, a0, a1);
    counts_.aes_blocks += blocks;

    std::vector<std::vector<uint64_t>> chunks;
    const int64_t e0 = NowNs();
    for (int f = 0; f < kParams.num_chunkings(); ++f) {
      chunks.push_back(chunker_.BuildChunks(
          content, static_cast<size_t>(f * kParams.chunking_stride)));
    }
    const int64_t e1 = NowNs();
    for (auto& family : chunks) {
      for (uint64_t& c : family) c = codebook_.Encrypt(c);
    }
    const int64_t e2 = NowNs();
    std::vector<std::vector<uint32_t>> pieces;
    for (const auto& family : chunks) {
      for (uint64_t c : family) pieces.push_back(disperser_.DisperseChunk(c));
    }
    const int64_t e3 = NowNs();
    tracer_.AddReplica("codec.encode", build_span, e0, e1);
    tracer_.AddReplica("crypto.prp", build_span, e1, e2);
    tracer_.AddReplica("codec.disperse", build_span, e2, e3);
    counts_.chunks += pieces.size();

    // records[f * k + d].stream[c] == pieces[chunk c of family f][d].
    const size_t k = static_cast<size_t>(kParams.dispersal_sites);
    size_t first = 0;
    for (size_t f = 0; f < chunks.size(); ++f) {
      for (size_t d = 0; d < k; ++d) {
        const auto& stream = records[f * k + d].stream;
        if (stream.size() != chunks[f].size()) {
          return Status::Internal("replica chunk count differs");
        }
        for (size_t c = 0; c < stream.size(); ++c) {
          if (stream[c] != pieces[first + c][d]) {
            return Status::Internal("replica index stream differs for rid " +
                                    std::to_string(rid));
          }
        }
      }
      first += chunks[f].size();
    }
    return Status::OK();
  }

  /// Site-side kernels on the store's real packed payloads: decode every
  /// index record (DeserializeStreamInto), then match the decoded streams
  /// (BatchMatcher::Matches), timed in batches so clock reads stay out of
  /// the per-record figures. The match count must equal the scan's.
  void TimeKernels(const core::SearchQuery& query, size_t expected_hits,
                   RunResult* out) {
    const core::BatchMatcher matcher(&query);
    const core::IndexPipeline& pipeline = store_.pipeline();
    constexpr size_t kBatch = 1024;
    std::vector<std::vector<uint64_t>> streams(kBatch);
    std::vector<std::pair<uint32_t, uint32_t>> family_site(kBatch);
    size_t hits = 0;
    const sdds::LhSystem& file = store_.index_file();
    for (size_t b = 0; b < file.bucket_count(); ++b) {
      const sdds::ColumnStore& cols = file.bucket(b).columns();
      for (size_t begin = 0; begin < cols.size(); begin += kBatch) {
        const size_t n = std::min(kBatch, cols.size() - begin);
        const int64_t d0 = NowNs();
        for (size_t i = 0; i < n; ++i) {
          uint64_t rid;
          ParseIndexKey(cols.key(begin + i), kParams, &rid,
                        &family_site[i].first, &family_site[i].second);
          if (!pipeline.DeserializeStreamInto(cols.payload(begin + i),
                                              &streams[i])
                   .ok()) {
            out->Fail("undecodable index record in bucket " +
                      std::to_string(b));
          }
        }
        const int64_t d1 = NowNs();
        for (size_t i = 0; i < n; ++i) {
          hits += matcher.Matches(family_site[i].first, family_site[i].second,
                                  streams[i]);
        }
        const int64_t d2 = NowNs();
        counts_.decode_ns += d1 - d0;
        counts_.match_ns += d2 - d1;
        counts_.kernel_records += n;
      }
    }
    if (hits != expected_hits) {
      out->Fail("kernel replica matched " + std::to_string(hits) +
                " index records, the scan returned " +
                std::to_string(expected_hits));
    }
  }

  core::EncryptedStore& store_;
  Tracer& tracer_;
  LayerCounts& counts_;
  crypto::RecordCipher cipher_;
  crypto::Aes aes_;
  codec::Chunker chunker_;
  crypto::EcbCodebook codebook_;
  codec::Disperser disperser_;
  sdds::LhClient* record_client_;
  sdds::LhClient* index_client_;
  uint64_t sequence_ = 0;
};


// ---------------------------------------------------------------------------
// Workload state shared by the untraced and traced runs.

/// Issues one op straight through the store, or through TracedOps when a
/// traced block is running.
struct Client {
  core::EncryptedStore& store;
  TracedOps* traced = nullptr;
  /// Set on the untraced blocks of a traced run (see TracedOps::Mirror).
  TracedOps* mirror = nullptr;

  /// Called before the clock starts on an untraced op that encrypts `text`.
  void Mirror(std::string_view text) {
    if (mirror) mirror->Mirror(text);
  }

  Status Insert(const char* op, uint64_t rid, std::string_view content) {
    return traced ? traced->Insert(op, rid, content)
                  : store.Insert(rid, content);
  }
  essdds::Result<std::string> Get(uint64_t rid) {
    return traced ? traced->Get(rid) : store.Get(rid);
  }
  Status Delete(uint64_t rid) {
    return traced ? traced->Delete(rid) : store.Delete(rid);
  }
  essdds::Result<core::EncryptedStore::SearchOutcome> Search(
      std::string_view query, bool kernels, RunResult* out) {
    return traced ? traced->Search(query, kernels, out)
                  : store.SearchDetailed(query);
  }
};

/// Seeded inputs: the preload corpus, a generator continuing past it for
/// fresh records, a second generator for overwrite contents, the op-choice
/// stream, and the plaintext oracle of what the store holds.
struct State {
  State(uint64_t seed, size_t preload_count, size_t training_count)
      : gen(seed),
        contents(seed ^ 0xc0ffee),
        rng(seed * 0x9e3779b97f4a7c15ULL + 1),
        preload(gen.Generate(preload_count)),
        next_seq(preload_count) {
    for (size_t i = 0; i < std::min(training_count, preload.size()); ++i) {
      training.push_back(preload[i].name);
    }
  }

  PhoneRecord FreshRecord() { return gen.GenerateOne(next_seq++); }
  std::string NextContent() { return contents.GenerateOne(content_seq++).name; }

  /// The surname of a live record, at least the scheme's minimum query
  /// length.
  std::string SampleQuery() {
    for (;;) {
      const std::string& name = oracle.Content(oracle.Sample(rng));
      const std::string surname = name.substr(0, name.find(' '));
      if (surname.size() >= kParams.min_query_symbols()) return surname;
    }
  }

  PhonebookGenerator gen;
  PhonebookGenerator contents;
  Rng rng;
  std::vector<PhoneRecord> preload;
  std::vector<std::string> training;
  uint64_t next_seq;
  uint64_t content_seq = 0;
  Plaintext oracle;
};

/// Inserts the preload through the store (the start state of search and
/// durable_churn) and fills the oracle.
void Preload(core::EncryptedStore& store, State& st, RunResult* out,
             TracedOps* mirror = nullptr) {
  for (const PhoneRecord& r : st.preload) {
    if (mirror) mirror->Mirror(r.name);
    CheckStatus("preload insert", r.rid, store.Insert(r.rid, r.name), out);
    st.oracle.Put(r.rid, r.name);
  }
}

/// A fresh directory for one durable store under --data-root.
std::string NewDataDir(const Args& args) {
  static int n = 0;
  const std::string dir = args.data_root + "/churn-" +
                          std::to_string(getpid()) + "-" + std::to_string(n++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Runs one search through `c`, checks it against the oracle and returns
/// its false-positive count (0 when it failed). `ns` receives the time of
/// the search call alone.
size_t SearchAndCheck(Client& c, State& st, const std::string& query,
                      bool kernels, RunResult* out, int64_t* ns = nullptr) {
  out->attempted++;
  c.Mirror(query);
  const int64_t t0 = NowNs();
  auto outcome = c.Search(query, kernels, out);
  if (ns) *ns = NowNs() - t0;
  if (!outcome.ok()) {
    out->Fail("search '" + query + "': " + outcome.status().ToString());
    return 0;
  }
  return CheckSearch(query, outcome->rids, st.oracle.Matching(query), out);
}

/// One op of the durable_churn mix over the live rids: 50% Get, 25%
/// overwrite, 15% fresh Insert, 10% Delete. Returns the op type and its
/// latency through `ns`.
const char* ChurnStep(Client& c, State& st, RunResult* out, int64_t* ns) {
  out->attempted++;
  const uint64_t roll = st.rng.Uniform(100);
  if (roll < 50) {
    const uint64_t rid = st.oracle.Sample(st.rng);
    const int64_t t0 = NowNs();
    auto got = c.Get(rid);
    *ns = NowNs() - t0;
    CheckGet(rid, got, st.oracle, out);
    return "get";
  }
  if (roll < 75) {
    const uint64_t rid = st.oracle.Sample(st.rng);
    std::string content = st.NextContent();
    c.Mirror(content);
    const int64_t t0 = NowNs();
    Status s = c.Insert("update", rid, content);
    *ns = NowNs() - t0;
    CheckStatus("update", rid, s, out);
    st.oracle.Put(rid, std::move(content));
    return "update";
  }
  if (roll < 90) {
    PhoneRecord r = st.FreshRecord();
    c.Mirror(r.name);
    const int64_t t0 = NowNs();
    Status s = c.Insert("insert", r.rid, r.name);
    *ns = NowNs() - t0;
    CheckStatus("insert", r.rid, s, out);
    st.oracle.Put(r.rid, std::move(r.name));
    return "insert";
  }
  const uint64_t rid = st.oracle.Sample(st.rng);
  const int64_t t0 = NowNs();
  Status s = c.Delete(rid);
  *ns = NowNs() - t0;
  CheckStatus("delete", rid, s, out);
  st.oracle.Erase(rid);
  return "delete";
}

// ---------------------------------------------------------------------------
// Untraced runs: end-to-end metrics.
//
// The host's speed wanders from second to second, so a run splits its ops
// into blocks of identical or comparable work (an ingest pass, a block of
// churn ops, the repeats of one search query) and reports the median over
// the blocks: a slow spell that covers fewer than half the blocks leaves
// the figure alone.

struct E2e {
  // One entry per block: its throughput (1/s), the median latency of the
  // workload's most frequent op and its tail latency (ns).
  std::vector<double> rates;
  std::vector<double> p50s_ns;
  std::vector<double> tails_ns;
  std::string p50_note;
  std::string tail_note;
  std::vector<double> setups_s;
  double stored_bytes_per_user_byte = 0;
  /// Taken at the end of the run unless a workload sets it earlier.
  double peak_rss_mb = 0;
};

/// Times set-ups into e->setups_s. `setup` tears down the previous store
/// (untimed), then returns the seconds it took to bring up a new one.
template <typename Setup>
void TimeSetups(E2e* e, Setup setup) {
  const int64_t start = NowNs();
  while (e->setups_s.size() < kMinSetups ||
         (Seconds(NowNs() - start) < kSetupBudgetS &&
          e->setups_s.size() < kMaxSetups)) {
    e->setups_s.push_back(setup());
  }
}

void ReportE2e(const E2e& e, const std::string& rate_note, RunResult* out) {
  out->metrics = {
      {"ops_per_s", Median(e.rates), "1/s", rate_note},
      {"p50_us", Median(e.p50s_ns) / 1e3, "us", e.p50_note},
      {"tail_us", Median(e.tails_ns) / 1e3, "us", e.tail_note},
      {"stored_bytes_per_user_byte", e.stored_bytes_per_user_byte, "B/B"},
      {"peak_rss_mb", e.peak_rss_mb > 0 ? e.peak_rss_mb : PeakRssMb(), "MB"},
      {"setup_s", Median(e.setups_s), "s",
       "median of " + std::to_string(e.setups_s.size()) + " set-ups"},
  };
}

void Detail(RunResult* out, std::string name, double value, std::string unit,
            std::string note = {}) {
  out->detail.push_back({std::move(name), value, std::move(unit),
                         std::move(note)});
}

void DetailLatency(RunResult* out, const std::string& name,
                   const Latencies& l, double p, double scale,
                   const char* unit) {
  Detail(out, name, l.Percentile(p) / scale, unit, PercentileNote(p, l.count()));
}

/// `n` scaled from a 10-second run to --seconds.
size_t Scaled(size_t n, const Args& args) {
  return std::max<size_t>(
      2, static_cast<size_t>(std::llround(n * args.seconds / 10.0)));
}

/// After an ingest pass: both files hold every record, and sampled Gets
/// and one search agree with the oracle.
void VerifyIngestPass(Client& c, State& st, size_t gets, RunResult* out) {
  core::EncryptedStore& store = c.store;
  out->attempted++;
  const uint64_t n = st.oracle.size();
  const uint64_t index_records =
      n * static_cast<uint64_t>(kParams.index_records_per_record());
  if (store.record_count() != n ||
      store.index_file().TotalRecords() != index_records) {
    out->Fail("ingest pass holds " + std::to_string(store.record_count()) +
              " records / " +
              std::to_string(store.index_file().TotalRecords()) +
              " index records, expected " + std::to_string(n) + " / " +
              std::to_string(index_records));
  }
  for (size_t i = 0; i < gets; ++i) {
    out->attempted++;
    const uint64_t rid = st.oracle.Sample(st.rng);
    CheckGet(rid, store.Get(rid), st.oracle, out);
  }
  SearchAndCheck(c, st, st.SampleQuery(), false, out);
}

void RunIngest(const Args& args, const Sizes& z, RunResult* out) {
  // The corpus doubles as the "preload" list: each pass inserts all of it
  // into an empty store, so every pass does the same work.
  State st(args.seed, z.ingest_records, z.training_records);
  E2e e;
  std::unique_ptr<core::EncryptedStore> store;
  TimeSetups(&e, [&] {
    store.reset();
    const int64_t t0 = NowNs();
    store = MakeStore(st.training, "");
    return Seconds(NowNs() - t0);
  });
  for (const PhoneRecord& r : st.preload) st.oracle.Put(r.rid, r.name);

  Latencies all;
  const int64_t start = NowNs();
  size_t passes = 0;
  for (; passes < kMinBlocks || Seconds(NowNs() - start) < args.seconds;
       ++passes) {
    if (passes > 0) {
      store.reset();
      store = MakeStore(st.training, "");
    }
    Latencies pass;
    for (const PhoneRecord& r : st.preload) {
      out->attempted++;
      const int64_t t0 = NowNs();
      Status s = store->Insert(r.rid, r.name);
      const int64_t ns = NowNs() - t0;
      pass.Add(ns);
      all.Add(ns);
      CheckStatus("insert", r.rid, s, out);
    }
    e.rates.push_back(pass.count() / Seconds(pass.total_ns()));
    e.p50s_ns.push_back(pass.Percentile(50));
    e.tails_ns.push_back(pass.Percentile(99));
    // Later passes rebuild the same store; their count follows the
    // machine's speed, and so would the heap's fragmentation.
    if (passes == 0) e.peak_rss_mb = PeakRssMb();
    Client c{*store};
    VerifyIngestPass(c, st, z.verify_gets, out);
  }
  const std::string blocks =
      std::to_string(passes) + " passes of " +
      std::to_string(z.ingest_records) + " inserts";
  e.p50_note = "insert p50, " + blocks;
  e.tail_note = "insert p99, " + blocks;
  e.stored_bytes_per_user_byte =
      static_cast<double>(RamStoredBytes(*store)) / st.oracle.user_bytes();
  ReportE2e(e, "median over " + blocks, out);
  Detail(out, "insert_per_s", out->metrics[0].value, "1/s", blocks);
  Detail(out, "insert_p50_us", out->metrics[1].value, "us", blocks);
  Detail(out, "insert_p99_us", out->metrics[2].value, "us", blocks);
  Detail(out, "insert_p99_us_pooled", all.Percentile(99) / 1e3, "us",
         PercentileNote(99, all.count()));
  Detail(out, "passes", static_cast<double>(passes), "count",
         std::to_string(z.ingest_records) + " inserts each");
}

void RunSearch(const Args& args, const Sizes& z, RunResult* out) {
  State st(args.seed, z.preload_records, z.training_records);
  E2e e;
  std::unique_ptr<core::EncryptedStore> store;
  TimeSetups(&e, [&] {
    store.reset();
    st.oracle = Plaintext();
    const int64_t t0 = NowNs();
    store = MakeStore(st.training, "");
    Preload(*store, st, out);
    return Seconds(NowNs() - t0);
  });
  std::vector<std::string> queries;
  for (size_t i = 0; i < z.queries; ++i) queries.push_back(st.SampleQuery());
  std::vector<std::vector<uint64_t>> expected;
  for (const std::string& q : queries) expected.push_back(st.oracle.Matching(q));

  // Whole passes over the query list; the store is static, so passes are
  // identical and the first fixes search_fp_per_query for the seed. Each
  // query's latency is the median of its repeats, one per pass, so a pass
  // that the host ran unusually slow or fast does not set it.
  std::vector<Latencies> per_query(queries.size());
  Latencies all;
  size_t fp_first_pass = 0;
  uint64_t candidates = 0;
  const int64_t start = NowNs();
  size_t passes = 0;
  for (; passes < kMinSearchPasses ||
         Seconds(NowNs() - start) < args.seconds;
       ++passes) {
    for (size_t q = 0; q < queries.size(); ++q) {
      out->attempted++;
      const int64_t t0 = NowNs();
      auto outcome = store->SearchDetailed(queries[q]);
      const int64_t ns = NowNs() - t0;
      per_query[q].Add(ns);
      all.Add(ns);
      if (!outcome.ok()) {
        out->Fail("search '" + queries[q] +
                  "': " + outcome.status().ToString());
        continue;
      }
      const size_t fp =
          CheckSearch(queries[q], outcome->rids, expected[q], out);
      if (passes == 0) fp_first_pass += fp;
      candidates += outcome->stats.candidate_index_records;
    }
  }
  Latencies medians;
  for (const Latencies& l : per_query) {
    medians.Add(static_cast<int64_t>(l.Percentile(50)));
  }
  // ops_per_s: searches per second with every query at its median time.
  e.rates = {medians.count() / Seconds(medians.total_ns())};
  e.p50s_ns = {medians.Percentile(50)};
  e.tails_ns = {medians.Percentile(kSearchTailP)};
  const std::string blocks = "each query's median of " +
                             std::to_string(passes) + " repeats";
  e.p50_note = "search p50 over " + std::to_string(queries.size()) +
               " queries, " + blocks;
  e.tail_note = PercentileNote(kSearchTailP, queries.size()) + ", " + blocks;
  e.stored_bytes_per_user_byte =
      static_cast<double>(RamStoredBytes(*store)) / st.oracle.user_bytes();
  ReportE2e(e, "every query at its median of " + std::to_string(passes) +
                   " repeats", out);
  Detail(out, "search_per_s", out->metrics[0].value, "1/s", blocks);
  Detail(out, "search_p50_ms", out->metrics[1].value / 1e3, "ms", blocks);
  Detail(out, "search_p90_ms", out->metrics[2].value / 1e3, "ms",
         e.tail_note);
  Detail(out, "search_p95_ms", all.Percentile(95) / 1e6, "ms",
         PercentileNote(95, all.count()) + ", every search");
  Detail(out, "search_fp_per_query",
         static_cast<double>(fp_first_pass) / queries.size(), "count",
         "first pass over " + std::to_string(queries.size()) + " queries");
  Detail(out, "candidates_per_search",
         static_cast<double>(candidates) / all.count(), "count");
  Detail(out, "passes", static_cast<double>(passes), "count",
         std::to_string(queries.size()) + " searches each");
}

void RunChurn(const Args& args, const Sizes& z, RunResult* out) {
  State st(args.seed, z.preload_records, z.training_records);
  E2e e;
  std::unique_ptr<core::EncryptedStore> store;
  std::string dir;
  TimeSetups(&e, [&] {
    store.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    st.oracle = Plaintext();
    dir = NewDataDir(args);
    const int64_t t0 = NowNs();
    store = MakeStore(st.training, dir);
    Preload(*store, st, out);
    return Seconds(NowNs() - t0);
  });

  std::map<std::string, Latencies> by_type;
  Latencies all;
  Client c{*store};
  const size_t blocks = std::max<size_t>(
      kMinBlocks, Scaled(kChurnOpsPerSecond * 10, args) / kChurnBlock);
  for (size_t b = 0; b < blocks; ++b) {
    Latencies block;
    Latencies block_gets;
    for (size_t i = 0; i < kChurnBlock; ++i) {
      int64_t ns = 0;
      const char* type = ChurnStep(c, st, out, &ns);
      by_type[type].Add(ns);
      all.Add(ns);
      block.Add(ns);
      if (std::string_view(type) == "get") block_gets.Add(ns);
    }
    e.rates.push_back(block.count() / Seconds(block.total_ns()));
    e.p50s_ns.push_back(block_gets.Percentile(50));
    e.tails_ns.push_back(block.Percentile(99));
  }
  const std::string blocks_note = std::to_string(blocks) + " blocks of " +
                                  std::to_string(kChurnBlock) + " ops";
  e.p50_note = "get p50, " + blocks_note;
  e.tail_note = "p99 of the mix, " + blocks_note;
  // Disk footprint is measured before the directory goes.
  const uint64_t disk = DiskBytes(dir, /*logs_only=*/false);
  e.stored_bytes_per_user_byte =
      static_cast<double>(disk) / st.oracle.user_bytes();
  store.reset();
  std::filesystem::remove_all(dir);

  ReportE2e(e, "median over " + blocks_note, out);
  Detail(out, "churn_ops_per_s", out->metrics[0].value, "1/s", blocks_note);
  Detail(out, "get_p50_us", out->metrics[1].value, "us", blocks_note);
  DetailLatency(out, "get_p99_us", by_type["get"], 99, 1e3, "us");
  DetailLatency(out, "update_p99_us", by_type["update"], 99, 1e3, "us");
  DetailLatency(out, "delete_p99_us", by_type["delete"], 99, 1e3, "us");
  DetailLatency(out, "insert_p50_us", by_type["insert"], 50, 1e3, "us");
  Detail(out, "disk_bytes_per_user_byte", e.stored_bytes_per_user_byte, "B/B",
         "persist_fsync off (page-cache flush policy)");
}

// ---------------------------------------------------------------------------
// Traced runs: per-layer metrics.

/// A traced run does a fixed amount of work for a given --seconds (its
/// counts repeat exactly for a seed): the workload's own op stream with
/// blocks alternating untraced and traced (the untraced blocks give the
/// trace overhead), then a short probe of the op types the workload lacks,
/// so every layer row is measured on every workload.
class TraceRun {
 public:
  TraceRun(core::EncryptedStore& store, State& st, RunResult* out)
      : store_(store), st_(st), out_(out), ops_(store, tracer_, counts_) {}

  /// Runs `n` ops of the workload's own stream. `step` issues one op
  /// through the client it is given and returns its type and latency.
  template <typename Step>
  void Main(size_t n, size_t block, Step step) {
    splits0_ = Counter(store_, "coord.splits");
    frames0_ = Counter(store_, "persist.appended_frames");
    checkpoints0_ = Counter(store_, "persist.checkpoints");
    for (size_t i = 0; i < n; ++i) {
      const bool traced = (i / block) % 2 == 1;
      Client c{store_, traced ? &ops_ : nullptr, traced ? nullptr : &ops_};
      int64_t ns = 0;
      const char* type = step(c, traced, &ns);
      main_types_.insert(type);
      if (!traced) untraced_[type].Add(ns);
    }
    main_ops_ = n;
    splits_ = Counter(store_, "coord.splits") - splits0_;
    frames_ = Counter(store_, "persist.appended_frames") - frames0_;
    checkpoints_ = Counter(store_, "persist.checkpoints") - checkpoints0_;
    waste_ratio_ = ColumnWasteRatio(store_.index_file());
    log_ratio_ = 0;
    if (!data_dir_.empty() && std::filesystem::exists(data_dir_)) {
      log_ratio_ = static_cast<double>(DiskBytes(data_dir_, true)) /
                   st_.oracle.user_bytes();
    }
  }

  void set_data_dir(std::string dir) { data_dir_ = std::move(dir); }

  /// Traced searches for sampled surnames; the first `kernels` also time
  /// the site-side decode and match kernels.
  void ProbeSearches(size_t n, size_t kernels) {
    Client c{store_, &ops_};
    for (size_t i = 0; i < n; ++i) {
      counts_.false_positives +=
          SearchAndCheck(c, st_, st_.SampleQuery(), i < kernels, out_);
    }
  }
  void ProbeInserts(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      PhoneRecord r = st_.FreshRecord();
      out_->attempted++;
      CheckStatus("insert", r.rid, ops_.Insert("insert", r.rid, r.name), out_);
      st_.oracle.Put(r.rid, std::move(r.name));
    }
  }
  void ProbeGets(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      out_->attempted++;
      const uint64_t rid = st_.oracle.Sample(st_.rng);
      CheckGet(rid, ops_.Get(rid), st_.oracle, out_);
    }
  }
  void ProbeDeletes(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      out_->attempted++;
      const uint64_t rid = st_.oracle.Sample(st_.rng);
      CheckStatus("delete", rid, ops_.Delete(rid), out_);
      st_.oracle.Erase(rid);
    }
  }

  LayerCounts& counts() { return counts_; }
  TracedOps& ops() { return ops_; }

  /// Fills out->metrics with the per-layer metrics and the layer table.
  void Report(const std::string& spans_path);

 private:
  /// Sum of the rows of span `name` over op types `ops`.
  LayerRow Row(std::initializer_list<const char*> ops, const char* name) const;
  double MeanNs(std::initializer_list<const char*> ops,
                const char* name) const {
    const LayerRow r = Row(ops, name);
    return r.calls == 0 ? 0 : static_cast<double>(r.total_ns) / r.calls;
  }
  void RenderTable();

  core::EncryptedStore& store_;
  State& st_;
  RunResult* out_;
  Tracer tracer_{kKeptOps};
  LayerCounts counts_;
  TracedOps ops_;
  std::string data_dir_;
  std::set<std::string> main_types_;
  std::map<std::string, Latencies> untraced_;
  size_t main_ops_ = 0;
  uint64_t splits0_ = 0, frames0_ = 0, checkpoints0_ = 0;
  uint64_t splits_ = 0, frames_ = 0, checkpoints_ = 0;
  double waste_ratio_ = 0;
  double log_ratio_ = 0;
};

LayerRow TraceRun::Row(std::initializer_list<const char*> ops,
                       const char* name) const {
  LayerRow sum;
  for (const char* op : ops) {
    auto t = tracer_.table().find(op);
    if (t == tracer_.table().end()) continue;
    auto r = t->second.find(name);
    if (r == t->second.end()) continue;
    sum.calls += r->second.calls;
    sum.total_ns += r->second.total_ns;
    sum.self_ns += r->second.self_ns;
  }
  return sum;
}

void TraceRun::Report(const std::string& spans_path) {
  const LayerCounts& k = counts_;
  auto per = [](double num, double den) { return den == 0 ? 0 : num / den; };
  const auto ins = {"insert", "update"};
  const LayerRow del_rec = Row({"delete"}, "sdds.record_delete");
  const LayerRow del_idx = Row({"delete"}, "sdds.index_delete");
  const LayerRow search_root = Row({"search"}, "search");

  // trace.overhead: traced root time of the main-phase ops over what the
  // same number of ops of each type cost untraced.
  double traced_ns = 0;
  double untraced_ns = 0;
  for (const std::string& type : main_types_) {
    auto untraced = untraced_.find(type);
    if (untraced == untraced_.end()) continue;
    const LayerRow root = Row({type.c_str()}, type.c_str());
    traced_ns += static_cast<double>(root.total_ns);
    untraced_ns += untraced->second.mean_ns() * root.calls;
  }

  LayerCounts::Coverage coverage;
  for (const auto& [op, c] : k.coverage) {
    coverage.covered_ns += c.covered_ns;
    coverage.total_ns += c.total_ns;
  }

  std::vector<Metric>& m = out_->metrics;
  m = {
      {"crypto.aes_ns_per_block",
       per(Row(ins, "crypto.aes").total_ns, k.aes_blocks), "ns"},
      {"crypto.seal_us", MeanNs(ins, "crypto.seal") / 1e3, "us"},
      {"crypto.open_us", MeanNs({"get"}, "crypto.open") / 1e3, "us"},
      {"crypto.prp_ns_per_chunk",
       per(Row(ins, "crypto.prp").total_ns, k.chunks), "ns"},
      {"codec.encode_us", MeanNs(ins, "codec.encode") / 1e3, "us"},
      {"codec.disperse_ns_per_chunk",
       per(Row(ins, "codec.disperse").total_ns, k.chunks), "ns"},
      {"core.build_index_us", MeanNs(ins, "core.build_index") / 1e3, "us"},
      {"core.serialize_us",
       per(Row(ins, "core.serialize").total_ns, k.inserts) / 1e3, "us"},
      {"sdds.record_insert_us", MeanNs(ins, "sdds.record_insert") / 1e3,
       "us"},
      {"sdds.index_insert_us", MeanNs(ins, "sdds.index_insert") / 1e3, "us"},
      {"sdds.msgs_per_insert", per(k.insert_net.messages, k.inserts),
       "msg/op"},
      {"sdds.bytes_per_insert", per(k.insert_net.bytes, k.inserts), "B/op"},
      {"sdds.splits", static_cast<double>(splits_), "count"},
      {"core.build_query_us", MeanNs({"search"}, "core.build_query") / 1e3,
       "us"},
      {"sdds.scan_ms", MeanNs({"search"}, "sdds.scan") / 1e6, "ms"},
      {"sdds.msgs_per_search", per(k.search_net.messages, k.searches),
       "msg/op"},
      {"sdds.bytes_per_search", per(k.search_net.bytes, k.searches), "B/op"},
      {"core.decode_ns_per_index_record", per(k.decode_ns, k.kernel_records),
       "ns"},
      {"core.match_ns_per_index_record", per(k.match_ns, k.kernel_records),
       "ns"},
      {"core.confirm_ms", per(search_root.self_ns, search_root.calls) / 1e6,
       "ms"},
      {"core.candidates_per_search", per(k.candidates, k.searches), "count"},
      {"core.confirm_yield", per(k.families_confirmed, k.candidates),
       "ratio"},
      {"core.fp_per_search", per(k.false_positives, k.searches), "count"},
      {"sdds.lookup_us", MeanNs({"get"}, "sdds.lookup") / 1e3, "us"},
      {"sdds.delete_us",
       per(del_rec.total_ns + del_idx.total_ns, del_rec.calls + del_idx.calls) /
           1e3,
       "us"},
      {"persist.frames_per_op", per(frames_, main_ops_), "frame/op"},
      {"persist.checkpoints", static_cast<double>(checkpoints_), "count"},
      {"persist.log_bytes_per_user_byte", log_ratio_, "B/B"},
      {"sdds.column_waste_ratio", waste_ratio_, "ratio"},
      {"trace.coverage", per(coverage.covered_ns, coverage.total_ns),
       "ratio"},
      {"trace.overhead", per(traced_ns, untraced_ns) - 1, "ratio"},
  };
#ifndef ESSDDS_METRICS
  // Registry counters compile to stubs that read 0; report them as absent.
  std::erase_if(m, [](const Metric& x) {
    return x.name == "sdds.splits" || x.name == "persist.frames_per_op" ||
           x.name == "persist.checkpoints";
  });
#endif
  RenderTable();
  out_->spans_file = spans_path;
  if (!tracer_.WriteSpans(spans_path)) {
    out_->errors.push_back("could not write " + spans_path);
  }
}

void TraceRun::RenderTable() {
  JsonWriter w;
  w.BeginObject();
  std::string text;
  char line[256];
  for (const auto& [op, rows] : tracer_.table()) {
    const LayerRow& root = rows.at(op);
    const double ops = static_cast<double>(root.calls);
    std::snprintf(line, sizeof line,
                  "layer table  %-8s %8.0f ops  %10.2f us/op end to end\n",
                  op.c_str(), ops, root.total_ns / ops / 1e3);
    text += line;
    w.Key(op).BeginObject();
    w.KV("ops", root.calls);
    w.KV("root_us_per_op", root.total_ns / ops / 1e3);
    auto cov = counts_.coverage.find(op);
    if (cov != counts_.coverage.end()) {
      const double ratio = static_cast<double>(cov->second.covered_ns) /
                           static_cast<double>(cov->second.total_ns);
      std::snprintf(line, sizeof line, "layer table  %-8s   coverage %.4f\n",
                    op.c_str(), ratio);
      text += line;
      w.KV("coverage", ratio);
    }
    w.Key("self").BeginObject();
    for (const auto& [name, row] : rows) {
      const double self_us = row.self_ns / ops / 1e3;
      std::snprintf(line, sizeof line,
                    "layer table  %-8s   %-20s %6.2f calls/op  %10.3f us/op "
                    "self  %6.2f%%\n",
                    op.c_str(), name == op ? "(unattributed)" : name.c_str(),
                    row.calls / ops, self_us,
                    100.0 * row.self_ns / root.total_ns);
      text += line;
      w.Key(name).BeginObject();
      w.KV("calls_per_op", row.calls / ops);
      w.KV("self_us_per_op", self_us);
      w.KV("share", static_cast<double>(row.self_ns) / root.total_ns);
      w.EndObject();
    }
    w.EndObject().EndObject();
  }
  w.EndObject();
  out_->layer_table_json = w.str();
  out_->layer_table_text = text;
}

std::string SpansPath(const Args& args) {
  return args.out_dir + "/" + args.workload + "-seed" +
         std::to_string(args.seed) + "-spans.json";
}

void TraceIngest(const Args& args, const Sizes& z, RunResult* out) {
  State st(args.seed, z.ingest_records, z.training_records);
  auto store = MakeStore(st.training, "");
  TraceRun run(*store, st, out);
  size_t next = 0;
  run.Main(st.preload.size(), kBlock,
           [&](Client& c, bool, int64_t* ns) {
             const PhoneRecord& r = st.preload[next++];
             out->attempted++;
             c.Mirror(r.name);
             const int64_t t0 = NowNs();
             Status s = c.Insert("insert", r.rid, r.name);
             *ns = NowNs() - t0;
             CheckStatus("insert", r.rid, s, out);
             st.oracle.Put(r.rid, r.name);
             return "insert";
           });
  Client verify{*store, nullptr, &run.ops()};
  VerifyIngestPass(verify, st, z.verify_gets, out);
  run.ProbeSearches(z.kernel_queries * 2, z.kernel_queries);
  run.ProbeGets(z.verify_gets);
  run.ProbeDeletes(z.verify_gets / 2);
  run.Report(SpansPath(args));
}

void TraceSearch(const Args& args, const Sizes& z, RunResult* out) {
  State st(args.seed, z.preload_records, z.training_records);
  auto store = MakeStore(st.training, "");
  TraceRun run(*store, st, out);
  Preload(*store, st, out, &run.ops());
  std::vector<std::string> queries;
  for (size_t i = 0; i < z.queries; ++i) queries.push_back(st.SampleQuery());
  // Each query runs once untraced, then once traced.
  size_t next = 0;
  size_t traced = 0;
  run.Main(Scaled(z.traced_searches, args), 1,
           [&](Client& c, bool is_traced, int64_t* ns) {
             const std::string& q = queries[next++ / 2 % queries.size()];
             const bool kernels = is_traced && traced++ < z.kernel_queries;
             const size_t fp = SearchAndCheck(c, st, q, kernels, out, ns);
             if (is_traced) run.counts().false_positives += fp;
             return "search";
           });
  run.ProbeInserts(z.verify_gets);
  run.ProbeGets(z.verify_gets);
  run.ProbeDeletes(z.verify_gets / 2);
  run.Report(SpansPath(args));
}

void TraceChurn(const Args& args, const Sizes& z, RunResult* out) {
  State st(args.seed, z.preload_records, z.training_records);
  const std::string dir = NewDataDir(args);
  {
    auto store = MakeStore(st.training, dir);
    TraceRun run(*store, st, out);
    Preload(*store, st, out, &run.ops());
    run.set_data_dir(dir);
    run.Main(Scaled(z.traced_churn_ops, args), kBlock,
             [&](Client& c, bool, int64_t* ns) {
               return ChurnStep(c, st, out, ns);
             });
    run.ProbeSearches(z.kernel_queries * 2, z.kernel_queries);
    run.Report(SpansPath(args));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

bool RunWorkload(const Args& args, RunResult* out, std::string* error) {
  const Sizes z = SizesFor(args);
  using Runner = void (*)(const Args&, const Sizes&, RunResult*);
  const std::map<std::string, std::pair<Runner, Runner>> workloads = {
      {"ingest", {RunIngest, TraceIngest}},
      {"search", {RunSearch, TraceSearch}},
      {"durable_churn", {RunChurn, TraceChurn}},
  };
  auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    *error = "unknown workload '" + args.workload +
             "' (ingest, search, durable_churn)";
    return false;
  }
  JsonWriter w;
  w.BeginObject();
  if (args.workload == "ingest") {
    w.KV("ingest_records_per_pass", z.ingest_records);
  } else {
    w.KV("preload_records", z.preload_records);
  }
  w.KV("training_records", z.training_records);
  if (args.workload == "search") w.KV("query_list", z.queries);
  w.EndObject();
  out->corpus_json = w.str();
  (args.trace ? it->second.second : it->second.first)(args, z, out);
  return true;
}

std::string ConfigJson() {
  JsonWriter w;
  w.BeginObject();
  w.KV("scheme", kParams.ToString());
  w.KV("num_codes", kParams.num_codes);
  w.KV("codes_per_chunk", kParams.codes_per_chunk);
  w.KV("dispersal_sites", kParams.dispersal_sites);
  w.KV("chunkings", kParams.num_chunkings());
  w.KV("index_records_per_record", kParams.index_records_per_record());
  w.KV("record_bucket_capacity", kRecordBucketCapacity);
  w.KV("index_bucket_capacity", kIndexBucketCapacity);
  w.KV("index_scan_threads", kScanThreads);
  w.KV("network", "SimNetwork (in-process, synchronous)");
  w.KV("load", "one process, one closed-loop client");
  w.KV("persist_fsync", false);
  w.EndObject();
  return w.str();
}

}  // namespace perfbench
