// BatchMatcher battery: the bit-parallel matcher must agree with a naive
// O(n*m) reference (the oracle) on arbitrary random queries and streams —
// including byte-reduced alphabet collisions (values equal in their low
// byte but different above it, which fire the automaton and must be killed
// by verification), multi-group packing, KMP-fallback patterns longer than
// a machine word, empty patterns, out-of-range families/sites, per-site
// piece streams, per-family series, and the zero-dispersal-site clamp.
// Also pins the record-boundary property: a pattern straddling two records
// matches neither.

#include "core/batch_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "util/random.h"

namespace essdds::core {
namespace {

using OccurrenceSet = std::set<std::pair<uint32_t, size_t>>;

/// Values that collide in their low byte on purpose: the automaton sees
/// `value & 0xFF`, so streams drawn from this distribution are full of
/// candidate fires the exact verification must reject.
uint64_t CollidingValue(Rng& rng) {
  return rng.Uniform(3) | (rng.Uniform(4) << 8);
}

std::vector<uint64_t> RandomStream(Rng& rng, size_t len) {
  std::vector<uint64_t> v(len);
  for (auto& x : v) x = CollidingValue(rng);
  return v;
}

/// One random series: chunks (and pieces when k > 1) drawn from the
/// colliding distribution. Lengths mix empty, short, word-filling, and
/// longer-than-a-word (KMP fallback) patterns.
QuerySeries RandomSeries(Rng& rng, uint32_t sites) {
  QuerySeries s;
  s.alignment = static_cast<uint32_t>(rng.Uniform(4));
  size_t len;
  const uint64_t shape = rng.Uniform(10);
  if (shape == 0) {
    len = 0;  // empty pattern: must never match
  } else if (shape == 1) {
    len = 65 + rng.Uniform(16);  // past the word: KMP fallback
  } else if (shape == 2) {
    len = 20 + rng.Uniform(45);  // large in-word: forces group splits
  } else {
    len = 1 + rng.Uniform(8);
  }
  s.chunks = RandomStream(rng, len);
  if (sites > 1) {
    s.pieces.resize(sites);
    for (auto& p : s.pieces) p = RandomStream(rng, len);
    s.chunks.clear();
  }
  return s;
}

SearchQuery RandomQuery(Rng& rng) {
  SearchQuery q;
  q.symbols_per_chunk = 4;
  q.chunking_stride = 1;
  const uint64_t mode = rng.Uniform(3);
  q.dispersal_sites = mode == 0 ? 1 : (mode == 1 ? 2 : 4);
  q.per_family = rng.Bernoulli(0.3);
  auto fill = [&](std::vector<QuerySeries>& list) {
    const size_t n = rng.Uniform(6);
    for (size_t i = 0; i < n; ++i) {
      list.push_back(RandomSeries(rng, q.dispersal_sites));
    }
  };
  if (q.per_family) {
    q.family_series.resize(1 + rng.Uniform(3));
    for (auto& list : q.family_series) fill(list);
  } else {
    fill(q.series);
  }
  return q;
}

/// Ground truth: the obvious scan of every series pattern, overlapping
/// occurrences included.
OccurrenceSet NaiveOccurrences(const SearchQuery& q, uint32_t family,
                               uint32_t site,
                               const std::vector<uint64_t>& stream) {
  OccurrenceSet out;
  if (site >= q.effective_sites()) return out;
  const std::vector<QuerySeries>* list = &q.series;
  if (q.per_family) {
    if (family >= q.family_series.size()) return out;
    list = &q.family_series[family];
  }
  for (const QuerySeries& s : *list) {
    const std::vector<uint64_t>& pattern = q.PatternFor(s, site);
    if (pattern.empty() || pattern.size() > stream.size()) continue;
    for (size_t i = 0; i + pattern.size() <= stream.size(); ++i) {
      if (std::equal(pattern.begin(), pattern.end(), stream.begin() + i)) {
        out.insert({s.alignment, i});
      }
    }
  }
  return out;
}

/// Random stream that, half the time, has one of the query's own patterns
/// spliced in at a random offset — otherwise hits would be vanishingly
/// rare for the longer patterns.
std::vector<uint64_t> StreamForQuery(Rng& rng, const SearchQuery& q,
                                     uint32_t family, uint32_t site) {
  std::vector<uint64_t> stream = RandomStream(rng, rng.Uniform(120));
  if (!rng.Bernoulli(0.5)) return stream;
  const std::vector<QuerySeries>* list = &q.series;
  if (q.per_family && family < q.family_series.size()) {
    list = &q.family_series[family];
  }
  if (list->empty() || site >= q.effective_sites()) return stream;
  const QuerySeries& s = (*list)[rng.Uniform(list->size())];
  const std::vector<uint64_t>& pattern = q.PatternFor(s, site);
  if (pattern.empty() || pattern.size() > stream.size()) return stream;
  const size_t at = rng.Uniform(stream.size() - pattern.size() + 1);
  std::copy(pattern.begin(), pattern.end(), stream.begin() + at);
  return stream;
}

TEST(BatchMatcherTest, AgreesWithNaiveOnRandomInputs) {
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    const SearchQuery query = RandomQuery(rng);
    const BatchMatcher batch(&query);
    // Sweep coordinates past the valid range: out-of-range cells must
    // answer "no match", never crash.
    for (uint32_t family = 0; family < 4; ++family) {
      for (uint32_t site = 0; site < 6; ++site) {
        const std::vector<uint64_t> stream =
            StreamForQuery(rng, query, family, site);
        const OccurrenceSet expected =
            NaiveOccurrences(query, family, site, stream);
        EXPECT_EQ(batch.Matches(family, site, stream), !expected.empty())
            << "trial " << trial << " family " << family << " site " << site;
        OccurrenceSet batch_occ;
        batch.ForEachOccurrence(family, site, stream,
                                [&](uint32_t alignment, size_t c) {
                                  batch_occ.insert({alignment, c});
                                });
        EXPECT_EQ(batch_occ, expected)
            << "trial " << trial << " family " << family << " site " << site;
      }
    }
  }
}

TEST(BatchMatcherTest, ByteCollisionsDoNotFakeMatches) {
  // Two values with the same low byte are indistinguishable to the
  // automaton; only verification separates them. A stream of near-misses
  // (every value collides with the pattern's byte but differs above) must
  // not match.
  SearchQuery q;
  q.dispersal_sites = 1;
  QuerySeries s;
  s.alignment = 0;
  s.chunks = {0x0101, 0x0102, 0x0103};
  q.series.push_back(s);
  const BatchMatcher batch(&q);
  // Same low bytes 01/02/03, different high bytes.
  const std::vector<uint64_t> near{0x0201, 0x0202, 0x0203, 0x0301, 0x0302,
                                   0x0303};
  EXPECT_FALSE(batch.Matches(0, 0, near));
  const std::vector<uint64_t> exact{0x0201, 0x0101, 0x0102, 0x0103, 0x0303};
  EXPECT_TRUE(batch.Matches(0, 0, exact));
}

TEST(BatchMatcherTest, PatternStraddlingRecordBoundaryMatchesNeither) {
  // Index streams are matched per record: a pattern whose occurrence spans
  // the boundary between two adjacent records (adjacent in a bucket's
  // packed arena too) must match neither, even though the concatenation
  // contains it.
  SearchQuery q;
  q.dispersal_sites = 1;
  QuerySeries s;
  s.alignment = 0;
  s.chunks = {11, 22, 33, 44};
  q.series.push_back(s);
  const BatchMatcher batch(&q);
  const std::vector<uint64_t> first{5, 6, 11, 22};   // pattern head at tail
  const std::vector<uint64_t> second{33, 44, 7, 8};  // pattern tail at head
  EXPECT_FALSE(batch.Matches(0, 0, first));
  EXPECT_FALSE(batch.Matches(0, 0, second));
  std::vector<uint64_t> concat = first;
  concat.insert(concat.end(), second.begin(), second.end());
  EXPECT_TRUE(batch.Matches(0, 0, concat));  // the straddle is real...
  int occurrences = 0;
  batch.ForEachOccurrence(0, 0, first, [&](uint32_t, size_t) { ++occurrences; });
  batch.ForEachOccurrence(0, 0, second,
                          [&](uint32_t, size_t) { ++occurrences; });
  EXPECT_EQ(occurrences, 0);  // ...but belongs to no single record
}

TEST(BatchMatcherTest, ZeroSiteQueryUsesUndispersedChunks) {
  // dispersal_sites == 0 cannot arrive off the wire (Deserialize rejects
  // it) but a hand-built query can carry it; the clamp in
  // SearchQuery::effective_sites() routes the matcher to the undispersed
  // `chunks` stream instead of indexing the empty `pieces`.
  SearchQuery q;
  q.dispersal_sites = 0;
  QuerySeries s;
  s.alignment = 2;
  s.chunks = {9, 8, 7};
  q.series.push_back(s);
  ASSERT_EQ(q.effective_sites(), 1u);
  const BatchMatcher batch(&q);
  const std::vector<uint64_t> hit{1, 9, 8, 7, 2};
  const std::vector<uint64_t> miss{9, 8, 6};
  EXPECT_TRUE(batch.Matches(0, 0, hit));
  EXPECT_FALSE(batch.Matches(0, 0, miss));
  EXPECT_EQ(NaiveOccurrences(q, 0, 0, hit), (OccurrenceSet{{2, 1}}));
  // Site 1 and above stay out of range under the clamp.
  EXPECT_FALSE(batch.Matches(0, 1, hit));
}

TEST(BatchMatcherTest, ZeroSiteWireQueryIsRejected) {
  // Regression: a wire image whose dispersal_sites field is patched to 0
  // (or past the plausibility cap) must fail Deserialize, not reach the
  // matchers.
  SearchQuery q;
  q.symbols_per_chunk = 4;
  q.chunking_stride = 1;
  q.dispersal_sites = 1;
  QuerySeries s;
  s.alignment = 0;
  s.chunks = {1, 2, 3};
  q.series.push_back(s);
  Bytes wire = q.Serialize();
  ASSERT_TRUE(SearchQuery::Deserialize(wire).ok());
  // dispersal_sites is the third u32 of the header.
  Bytes zero_sites = wire;
  zero_sites[8] = zero_sites[9] = zero_sites[10] = zero_sites[11] = 0;
  EXPECT_FALSE(SearchQuery::Deserialize(zero_sites).ok());
  Bytes oversized = wire;
  oversized[8] = 65;  // > kMaxWireDispersalSites
  oversized[9] = oversized[10] = oversized[11] = 0;
  EXPECT_FALSE(SearchQuery::Deserialize(oversized).ok());
}

TEST(BatchMatcherTest, ManySeriesPackAcrossMultipleGroups) {
  // 20 series of 8 values exceed two 64-bit words: packing must spill into
  // several automaton groups and still find a hit in any of them.
  Rng rng(42);
  SearchQuery q;
  q.dispersal_sites = 1;
  for (int i = 0; i < 20; ++i) {
    QuerySeries s;
    s.alignment = static_cast<uint32_t>(i);
    s.chunks = RandomStream(rng, 8);
    q.series.push_back(s);
  }
  const BatchMatcher batch(&q);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint64_t> stream = RandomStream(rng, 60);
    const size_t pick = rng.Uniform(q.series.size());
    const size_t at = rng.Uniform(stream.size() - 8 + 1);
    std::copy(q.series[pick].chunks.begin(), q.series[pick].chunks.end(),
              stream.begin() + at);
    EXPECT_TRUE(batch.Matches(0, 0, stream)) << "trial " << trial;
    OccurrenceSet batch_occ;
    batch.ForEachOccurrence(0, 0, stream, [&](uint32_t a, size_t c) {
      batch_occ.insert({a, c});
    });
    EXPECT_EQ(batch_occ, NaiveOccurrences(q, 0, 0, stream))
        << "trial " << trial;
    EXPECT_TRUE(batch_occ.count({static_cast<uint32_t>(pick), at}) > 0)
        << "trial " << trial;
  }
}

TEST(BatchMatcherTest, DispersedQueryMatchesPerSite) {
  // k = 3: each series carries one piece stream per dispersal site, and a
  // site only ever sees (and must only ever match) its own stream.
  SearchQuery q;
  q.symbols_per_chunk = 4;
  q.chunking_stride = 2;
  q.dispersal_sites = 3;
  q.query_symbols = 8;
  QuerySeries s;
  s.alignment = 1;
  s.pieces = {{1, 2}, {3, 4}, {5, 6}};
  q.series.push_back(s);
  const BatchMatcher batch(&q);

  EXPECT_TRUE(batch.Matches(0, 0, std::vector<uint64_t>{9, 1, 2, 9}));
  EXPECT_FALSE(batch.Matches(0, 0, std::vector<uint64_t>{9, 3, 4, 9}));
  EXPECT_TRUE(batch.Matches(0, 1, std::vector<uint64_t>{3, 4}));
  EXPECT_TRUE(batch.Matches(0, 2, std::vector<uint64_t>{5, 6}));
  // A site index the query has no piece stream for cannot match.
  EXPECT_FALSE(batch.Matches(0, 3, std::vector<uint64_t>{1, 2}));
  EXPECT_FALSE(batch.Matches(0, 1000, std::vector<uint64_t>{1, 2}));
}

TEST(BatchMatcherTest, PerFamilyQueryIsolatesFamilies) {
  SearchQuery q;
  q.symbols_per_chunk = 4;
  q.chunking_stride = 1;
  q.dispersal_sites = 1;
  q.query_symbols = 8;
  q.per_family = true;
  QuerySeries f0, f1;
  f0.alignment = 0;
  f0.chunks = {10, 11};
  f1.alignment = 0;
  f1.chunks = {20, 21};
  q.family_series = {{f0}, {f1}};
  const BatchMatcher batch(&q);

  const std::vector<uint64_t> stream0 = {10, 11};
  const std::vector<uint64_t> stream1 = {20, 21};
  EXPECT_TRUE(batch.Matches(0, 0, stream0));
  EXPECT_FALSE(batch.Matches(0, 0, stream1));
  EXPECT_TRUE(batch.Matches(1, 0, stream1));
  EXPECT_FALSE(batch.Matches(1, 0, stream0));
  // A family beyond the query's series lists cannot match.
  EXPECT_FALSE(batch.Matches(2, 0, stream0));
  EXPECT_FALSE(batch.Matches(1000, 0, stream0));
}

TEST(BatchMatcherTest, EmptySeriesNeverMatch) {
  SearchQuery q;
  q.dispersal_sites = 1;
  q.series.push_back(QuerySeries{});  // alignment 0, no chunks
  const BatchMatcher batch(&q);
  EXPECT_FALSE(batch.Matches(0, 0, std::vector<uint64_t>{1, 2, 3}));
  EXPECT_FALSE(batch.Matches(0, 0, std::vector<uint64_t>{}));
  int occurrences = 0;
  batch.ForEachOccurrence(0, 0, std::vector<uint64_t>{1, 2, 3},
                          [&](uint32_t, size_t) { ++occurrences; });
  EXPECT_EQ(occurrences, 0);
}

}  // namespace
}  // namespace essdds::core
