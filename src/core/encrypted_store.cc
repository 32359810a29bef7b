#include "core/encrypted_store.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "core/batch_matcher.h"

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
/// cross-site AND and cross-family combination happen at the client, which
/// is the only party that can correlate sites. Each scan compiles the wire
/// query once per bucket (Prepare) and matches every local record against
/// the compiled form without further allocation.
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

    bool Matches(uint64_t key, ByteSpan value) const override {
      uint64_t rid;
      uint32_t family, site;
      ParseIndexKey(key, pipeline_->params(), &rid, &family, &site);
      // Decode buffer reused across records. One Prepared is shared by all
      // buckets of a scan and driven concurrently in thread-pool mode, so
      // the scratch is per worker thread, not per instance.
      static thread_local std::vector<uint64_t> scratch;
      if (!pipeline_->DeserializeStreamInto(value, &scratch).ok()) {
        return false;
      }
      return matcher_.Matches(family, site, scratch);
    }

    /// Columnar batch path: streams the bucket's packed arena sequentially
    /// and runs the bit-parallel matcher per decoded stream. Hit records
    /// are emitted in slice order — ascending key — so the reply is
    /// byte-identical to the per-record Matches walk.
    void MatchColumns(const sdds::ColumnSlice& slice,
                      std::vector<sdds::WireRecord>* out) const override {
      static thread_local std::vector<uint64_t> scratch;
      for (size_t i = 0; i < slice.count; ++i) {
        const uint64_t key = slice.keys[i];
        uint64_t rid;
        uint32_t family, site;
        ParseIndexKey(key, pipeline_->params(), &rid, &family, &site);
        const ByteSpan payload = slice.payload(i);
        if (!pipeline_->DeserializeStreamInto(payload, &scratch).ok()) {
          continue;  // undecodable record: no match, same as Matches()
        }
        if (matcher_.Matches(family, site, scratch)) {
          out->push_back(
              sdds::WireRecord{key, Bytes(payload.begin(), payload.end())});
        }
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
  const Bytes wire = query.Serialize();
  // The client-side confirmation reuses the same bit-parallel matcher the
  // sites run: the query's automata are compiled once per search, not per
  // candidate record.
  const BatchMatcher matcher(&query);

  // Parallel scan: every index bucket matches locally and ships back only
  // the candidate index records.
  sdds::LhClient::ScanResult scan =
      index_client_->Scan(match_filter_id_, wire);

  SearchOutcome outcome;
  outcome.stats.candidate_index_records = scan.hits.size();

  const SchemeParams& p = params();
  const uint32_t k = static_cast<uint32_t>(p.dispersal_sites);
  const uint32_t symbols = static_cast<uint32_t>(p.symbols_per_chunk());

  // Group candidate index records by (rid, family).
  std::map<std::pair<uint64_t, uint32_t>, std::map<uint32_t, Bytes>> groups;
  for (const sdds::WireRecord& hit : scan.hits) {
    uint64_t rid;
    uint32_t family, site;
    ParseIndexKey(hit.key, p, &rid, &family, &site);
    groups[{rid, family}][site] = hit.value;
  }

  // Per family: positions confirmed by ALL k dispersal sites at the same
  // offset (§4: "If all dispersion sites containing dispersed chunks from
  // the same index record report a hit in the same location").
  std::map<uint64_t, std::map<uint32_t, std::set<int64_t>>> confirmed;
  std::vector<uint64_t> stream;  // decode buffer, reused across candidates
  for (const auto& [group_key, sites] : groups) {
    const auto& [rid, family] = group_key;
    if (sites.size() < k) continue;  // some dispersal site did not match
    const uint32_t family_offset =
        family * static_cast<uint32_t>(p.chunking_stride);

    std::set<int64_t> family_positions;
    bool first_site = true;
    for (const auto& [site, payload] : sites) {
      ESSDDS_RETURN_IF_ERROR(
          pipeline_->DeserializeStreamInto(payload, &stream));
      std::set<int64_t> site_positions;
      matcher.ForEachOccurrence(
          family, site, stream, [&](uint32_t alignment, size_t c) {
            site_positions.insert(
                ImpliedPosition(family_offset, c, symbols, alignment));
          });
      if (first_site) {
        family_positions = std::move(site_positions);
        first_site = false;
      } else {
        std::set<int64_t> merged;
        std::set_intersection(family_positions.begin(), family_positions.end(),
                              site_positions.begin(), site_positions.end(),
                              std::inserter(merged, merged.begin()));
        family_positions = std::move(merged);
      }
      if (family_positions.empty()) break;
    }
    if (!family_positions.empty()) {
      confirmed[rid][family] = std::move(family_positions);
      outcome.stats.families_confirmed++;
    }
  }
  outcome.stats.rids_candidates = confirmed.size();

  // Cross-family combination.
  std::set<uint32_t> available_alignments;
  for (const QuerySeries& s : matcher.query().SeriesFor(0)) {
    available_alignments.insert(s.alignment);
  }
  for (const auto& [rid, families] : confirmed) {
    bool hit = false;
    if (p.combination == CombinationMode::kAnyChunking) {
      hit = !families.empty();
    } else {
      // kAllExpectedChunkings: a position counts only when every family
      // that could structurally observe it confirms it.
      std::set<int64_t> all_positions;
      for (const auto& [family, positions] : families) {
        all_positions.insert(positions.begin(), positions.end());
      }
      for (int64_t pos : all_positions) {
        bool all_expected_confirm = true;
        int expected = 0;
        for (int f = 0; f < p.num_chunkings(); ++f) {
          const int64_t offset = f * p.chunking_stride;
          const int64_t period = symbols;
          const uint32_t alignment = static_cast<uint32_t>(
              ((offset - pos) % period + period) % period);
          if (!available_alignments.contains(alignment)) continue;
          ++expected;
          auto it = families.find(static_cast<uint32_t>(f));
          if (it == families.end() || !it->second.contains(pos)) {
            all_expected_confirm = false;
            break;
          }
        }
        if (expected > 0 && all_expected_confirm) {
          hit = true;
          break;
        }
      }
    }
    if (hit) outcome.rids.push_back(rid);
  }
  std::sort(outcome.rids.begin(), outcome.rids.end());
  outcome.stats.rids_final = outcome.rids.size();
  return outcome;
}

}  // namespace essdds::core
