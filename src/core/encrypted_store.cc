#include "core/encrypted_store.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/batch_matcher.h"
#include "core/hit_positions.h"

namespace essdds::core {

namespace {

/// Implied record-symbol position of a series match: series `alignment`
/// matched at chunk index `chunk` of the chunking at symbol offset
/// `family_offset`. May be negative (a query head hanging before the record
/// start — the paper's ADAMS-in-DAMSTER case).
int64_t ImpliedPosition(uint32_t family_offset, size_t chunk_index,
                        uint32_t symbols_per_chunk, uint32_t alignment) {
  return static_cast<int64_t>(family_offset) +
         static_cast<int64_t>(chunk_index) *
             static_cast<int64_t>(symbols_per_chunk) -
         static_cast<int64_t>(alignment);
}

/// The site-side matcher: runs at every index bucket during a scan. An
/// index record is a candidate when any query series matches its stream;
/// the site replies with the record's key and the sorted, distinct record
/// positions its matches imply (EncodeHitPositions). Cross-site AND and
/// cross-family combination happen at the client, which is the only party
/// that can correlate sites. Each scan compiles the wire query once
/// (Prepare) and matches every local record against the compiled form.
class MatchScanFilter : public sdds::ScanFilter {
 public:
  explicit MatchScanFilter(const IndexPipeline* pipeline)
      : pipeline_(pipeline) {}

  std::unique_ptr<Prepared> Prepare(ByteSpan arg) const override {
    auto query = SearchQuery::Deserialize(arg);
    if (!query.ok()) return nullptr;  // malformed query matches nothing
    return std::make_unique<PreparedMatch>(pipeline_, *std::move(query));
  }

 private:
  class PreparedMatch : public Prepared {
   public:
    PreparedMatch(const IndexPipeline* pipeline, SearchQuery query)
        : pipeline_(pipeline), query_(std::move(query)), matcher_(&query_) {}

    /// Streams the bucket's packed arena sequentially and runs the
    /// bit-parallel matcher per decoded stream; only the records it accepts
    /// pay for the occurrence walk. Hits are emitted in slice order
    /// (ascending key). One Prepared is shared by all buckets of a scan and
    /// driven concurrently in thread-pool mode, so the scratch buffers are
    /// per worker thread, not per instance.
    void MatchColumns(const sdds::ColumnSlice& slice,
                      std::vector<sdds::WireRecord>* out) const override {
      static thread_local std::vector<uint64_t> stream;
      static thread_local std::vector<int64_t> positions;
      const SchemeParams& p = pipeline_->params();
      const uint32_t symbols = static_cast<uint32_t>(p.symbols_per_chunk());
      for (size_t i = 0; i < slice.count; ++i) {
        const uint64_t key = slice.keys[i];
        uint64_t rid;
        uint32_t family, site;
        ParseIndexKey(key, p, &rid, &family, &site);
        if (!pipeline_->DeserializeStreamInto(slice.payload(i), &stream)
                 .ok()) {
          continue;  // undecodable record: no match
        }
        if (!matcher_.Matches(family, site, stream)) continue;
        const uint32_t family_offset =
            family * static_cast<uint32_t>(p.chunking_stride);
        positions.clear();
        matcher_.ForEachOccurrence(
            family, site, stream, [&](uint32_t alignment, size_t c) {
              positions.push_back(
                  ImpliedPosition(family_offset, c, symbols, alignment));
            });
        std::sort(positions.begin(), positions.end());
        positions.erase(std::unique(positions.begin(), positions.end()),
                        positions.end());
        sdds::WireRecord& hit = out->emplace_back();
        hit.key = key;
        EncodeHitPositions(positions, &hit.value);
      }
    }

   private:
    const IndexPipeline* pipeline_;
    SearchQuery query_;       // owns the buffers matcher_ points into
    BatchMatcher matcher_;
  };

  const IndexPipeline* pipeline_;
};

}  // namespace

EncryptedStore::EncryptedStore(const Options& options,
                               std::unique_ptr<IndexPipeline> pipeline,
                               crypto::RecordCipher record_cipher)
    : pipeline_(std::move(pipeline)),
      record_cipher_(std::move(record_cipher)),
      record_file_(options.record_file),
      index_file_(options.index_file) {
  record_client_ = record_file_.NewClient();
  index_client_ = index_file_.NewClient();

  match_filter_id_ = index_file_.InstallFilter(
      std::make_unique<MatchScanFilter>(pipeline_.get()));
}

Result<std::unique_ptr<EncryptedStore>> EncryptedStore::Create(
    const Options& options, ByteSpan master_key,
    std::span<const std::string> training_corpus) {
  ESSDDS_ASSIGN_OR_RETURN(
      IndexPipeline pipeline,
      IndexPipeline::Create(options.params, master_key, training_corpus));
  ESSDDS_ASSIGN_OR_RETURN(crypto::RecordCipher cipher,
                          crypto::RecordCipher::Create(master_key));
  auto store = std::unique_ptr<EncryptedStore>(
      new EncryptedStore(options, std::make_unique<IndexPipeline>(std::move(pipeline)),
                         std::move(cipher)));
  ESSDDS_RETURN_IF_ERROR(store->InitSequence(options.record_file.data_dir,
                                             options.record_file.persist_fsync));
  return store;
}

Status EncryptedStore::InitSequence(const std::string& data_dir, bool fsync) {
  // A directory holding records but no counter file predates the counter:
  // its insert-sequence high-water mark is unknown, so restart far above
  // anything the old in-RAM counter could have reached.
  const uint64_t floor = record_file_.recovered_bucket_count() > 0
                             ? persist::SequenceFile::kLegacyFloor
                             : 0;
  ESSDDS_ASSIGN_OR_RETURN(persist::SequenceFile sf,
                          persist::SequenceFile::Open(data_dir, floor, fsync));
  insert_sequence_ =
      std::make_unique<persist::SequenceFile>(std::move(sf));
  return Status::OK();
}

Status EncryptedStore::Insert(uint64_t rid, std::string_view content) {
  const uint64_t max_rid = ~uint64_t{0} >> params().subid_bits;
  if (rid > max_rid) {
    return Status::InvalidArgument("rid does not fit the key layout");
  }
  // Strongly encrypted record copy.
  Bytes sealed = record_cipher_.Seal(
      rid, insert_sequence_->Next(),
      ByteSpan(reinterpret_cast<const uint8_t*>(content.data()),
               content.size()));
  record_client_->Insert(rid, std::move(sealed));

  // Index records: one per (chunking family, dispersal site). LH* insert is
  // an upsert and the key set does not depend on the content, so replacing
  // a record replaces its whole index footprint.
  for (IndexRecordData& rec : pipeline_->BuildIndexRecords(rid, content)) {
    index_client_->Insert(MakeIndexKey(rid, rec.family, rec.site, params()),
                          pipeline_->SerializeStream(rec.stream));
  }
  return Status::OK();
}

Result<std::string> EncryptedStore::Get(uint64_t rid) {
  ESSDDS_ASSIGN_OR_RETURN(Bytes sealed, record_client_->Lookup(rid));
  ESSDDS_ASSIGN_OR_RETURN(Bytes plain, record_cipher_.Open(rid, sealed));
  return std::string(plain.begin(), plain.end());
}

Status EncryptedStore::Delete(uint64_t rid) {
  ESSDDS_RETURN_IF_ERROR(record_client_->Delete(rid));
  for (int f = 0; f < params().num_chunkings(); ++f) {
    for (int d = 0; d < params().dispersal_sites; ++d) {
      // Index records exist for every (f, d) by construction.
      Status s = index_client_->Delete(MakeIndexKey(
          rid, static_cast<uint32_t>(f), static_cast<uint32_t>(d), params()));
      if (!s.ok() && !s.IsNotFound()) return s;
    }
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> EncryptedStore::Search(
    std::string_view substring) {
  ESSDDS_ASSIGN_OR_RETURN(SearchOutcome outcome, SearchDetailed(substring));
  return std::move(outcome.rids);
}

Result<std::vector<uint64_t>> EncryptedStore::SearchWithExpansion(
    std::string_view substring, std::string_view alphabet) {
  if (substring.size() >= params().min_query_symbols()) {
    return Search(substring);
  }
  if (substring.size() + 1 != params().min_query_symbols()) {
    return Status::InvalidArgument(
        "expansion covers exactly one symbol below the minimum");
  }
  if (alphabet.empty()) {
    return Status::InvalidArgument("empty expansion alphabet");
  }
  // Expand on both sides: a right extension exists for every occurrence
  // that does not end the record, a left extension for every occurrence
  // that does not start it; their union covers every occurrence in any
  // indexable record.
  std::set<uint64_t> rids;
  for (char c : alphabet) {
    std::string extended = std::string(substring) + c;
    ESSDDS_ASSIGN_OR_RETURN(std::vector<uint64_t> right, Search(extended));
    rids.insert(right.begin(), right.end());
    extended = c + std::string(substring);
    ESSDDS_ASSIGN_OR_RETURN(std::vector<uint64_t> left, Search(extended));
    rids.insert(left.begin(), left.end());
  }
  return std::vector<uint64_t>(rids.begin(), rids.end());
}

Result<EncryptedStore::SearchOutcome> EncryptedStore::SearchDetailed(
    std::string_view substring) {
  ESSDDS_ASSIGN_OR_RETURN(SearchQuery query, pipeline_->BuildQuery(substring));

  // Parallel scan: every index bucket matches locally and ships back the
  // key and hit positions of each candidate index record.
  sdds::LhClient::ScanResult scan =
      index_client_->Scan(match_filter_id_, query.Serialize());

  SearchOutcome outcome;
  outcome.stats.candidate_index_records = scan.hits.size();

  const SchemeParams& p = params();
  const uint32_t k = static_cast<uint32_t>(p.dispersal_sites);
  const int64_t symbols = p.symbols_per_chunk();

  // A key is rid ∘ family ∘ site, so sorting the hits by key puts the k
  // site hits of each (rid, family) next to each other, rids ascending.
  // The index breaks ties so that a duplicated key keeps its last reply.
  std::vector<std::pair<uint64_t, uint32_t>> order;
  order.reserve(scan.hits.size());
  for (size_t i = 0; i < scan.hits.size(); ++i) {
    order.emplace_back(scan.hits[i].key, static_cast<uint32_t>(i));
  }
  std::sort(order.begin(), order.end());

  // Per family: positions confirmed by ALL k dispersal sites at the same
  // offset (§4: "If all dispersion sites containing dispersed chunks from
  // the same index record report a hit in the same location"). Confirmed
  // families land in (rid, family) order; their positions share one pool.
  struct Confirmed {
    uint64_t rid;
    uint32_t family;
    size_t begin, end;  // into pool
  };
  std::vector<Confirmed> confirmed;
  std::vector<int64_t> pool;
  std::vector<int64_t> family_positions, site_positions, merged;
  std::vector<uint32_t> sites;  // hit indices of one group, one per key
  for (size_t i = 0; i < order.size();) {
    uint64_t rid;
    uint32_t family, site;
    ParseIndexKey(order[i].first, p, &rid, &family, &site);
    // The group's distinct keys, each at its last reply.
    sites.clear();
    size_t j = i;
    for (; j < order.size(); ++j) {
      uint64_t r;
      uint32_t f, s;
      ParseIndexKey(order[j].first, p, &r, &f, &s);
      if (r != rid || f != family) break;
      if (j + 1 < order.size() && order[j + 1].first == order[j].first) {
        continue;  // a later reply for the same key wins
      }
      sites.push_back(order[j].second);
    }
    i = j;
    if (sites.size() < k) continue;  // some dispersal site did not match

    for (size_t n = 0; n < sites.size(); ++n) {
      std::vector<int64_t>& target = n == 0 ? family_positions : site_positions;
      ESSDDS_RETURN_IF_ERROR(
          DecodeHitPositions(scan.hits[sites[n]].value, &target));
      if (n > 0) {
        merged.clear();
        std::set_intersection(family_positions.begin(), family_positions.end(),
                              site_positions.begin(), site_positions.end(),
                              std::back_inserter(merged));
        family_positions.swap(merged);
      }
      if (family_positions.empty()) break;
    }
    if (!family_positions.empty()) {
      confirmed.push_back(Confirmed{rid, family, pool.size(),
                                    pool.size() + family_positions.size()});
      pool.insert(pool.end(), family_positions.begin(),
                  family_positions.end());
    }
  }
  outcome.stats.families_confirmed = confirmed.size();

  // Cross-family combination, one rid (a run of confirmed families) at a
  // time.
  std::vector<bool> available(static_cast<size_t>(symbols), false);
  for (const QuerySeries& s : query.SeriesFor(0)) {
    available[s.alignment] = true;
  }
  auto positions_of = [&](const Confirmed& c) {
    return std::span<const int64_t>(pool.data() + c.begin, c.end - c.begin);
  };
  for (size_t i = 0; i < confirmed.size();) {
    size_t j = i + 1;
    while (j < confirmed.size() && confirmed[j].rid == confirmed[i].rid) ++j;
    const std::span<const Confirmed> families(confirmed.data() + i, j - i);
    outcome.stats.rids_candidates++;

    bool hit = false;
    if (p.combination == CombinationMode::kAnyChunking) {
      hit = true;
    } else {
      // kAllExpectedChunkings: a position counts only when every family
      // that could structurally observe it confirms it.
      auto confirms = [&](uint32_t f, int64_t pos) {
        for (const Confirmed& c : families) {
          if (c.family != f) continue;
          const std::span<const int64_t> positions = positions_of(c);
          return std::binary_search(positions.begin(), positions.end(), pos);
        }
        return false;
      };
      for (const Confirmed& c : families) {
        for (int64_t pos : positions_of(c)) {
          bool all_expected_confirm = true;
          int expected = 0;
          for (int f = 0; f < p.num_chunkings(); ++f) {
            const int64_t offset = f * p.chunking_stride;
            const size_t alignment = static_cast<size_t>(
                ((offset - pos) % symbols + symbols) % symbols);
            if (!available[alignment]) continue;
            ++expected;
            if (!confirms(static_cast<uint32_t>(f), pos)) {
              all_expected_confirm = false;
              break;
            }
          }
          if (expected > 0 && all_expected_confirm) {
            hit = true;
            break;
          }
        }
        if (hit) break;
      }
    }
    if (hit) outcome.rids.push_back(confirmed[i].rid);
    i = j;
  }
  outcome.stats.rids_final = outcome.rids.size();
  return outcome;
}

}  // namespace essdds::core
