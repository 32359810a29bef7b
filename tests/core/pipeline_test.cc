#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "util/bitstream.h"
#include "util/random.h"

namespace essdds::core {
namespace {

const std::vector<std::string>& Corpus() {
  static const std::vector<std::string>& corpus = *new std::vector<std::string>{
      "SCHWARZ THOMAS", "TSUI PETER", "LITWIN WITOLD", "ADRIAN CORTEZ",
      "ABOGADO ALEJANDRO & CATHERINE", "LEE WEI", "WONG MING"};
  return corpus;
}

Bytes Master() { return ToBytes("pipeline test master key"); }

TEST(IndexKeyTest, PackUnpackRoundTrip) {
  SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = 4};
  ASSERT_TRUE(p.Validate().ok());
  for (uint64_t rid : {0ull, 1ull, 4154090271ull}) {
    for (uint32_t f = 0; f < 4; ++f) {
      for (uint32_t d = 0; d < 4; ++d) {
        const uint64_t key = MakeIndexKey(rid, f, d, p);
        uint64_t rid2;
        uint32_t f2, d2;
        ParseIndexKey(key, p, &rid2, &f2, &d2);
        EXPECT_EQ(rid2, rid);
        EXPECT_EQ(f2, f);
        EXPECT_EQ(d2, d);
      }
    }
  }
}

TEST(IndexKeyTest, SubidsOccupyLowBits) {
  // Paper §5: sub-ids as least significant bits scatter one record's index
  // records across LH* buckets.
  SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = 4};
  std::set<uint64_t> low_bits;
  for (uint32_t f = 0; f < 4; ++f) {
    for (uint32_t d = 0; d < 4; ++d) {
      low_bits.insert(MakeIndexKey(42, f, d, p) & 0xF);
    }
  }
  EXPECT_EQ(low_bits.size(), 16u);
}

TEST(IndexPipelineTest, CreateValidatesParams) {
  SchemeParams bad{.codes_per_chunk = 0};
  EXPECT_FALSE(IndexPipeline::Create(bad, Master(), Corpus()).ok());
  SchemeParams good;
  EXPECT_FALSE(IndexPipeline::Create(good, Bytes{}, Corpus()).ok());
  SchemeParams stage2{.num_codes = 8};
  EXPECT_FALSE(IndexPipeline::Create(stage2, Master(), {}).ok());
  EXPECT_TRUE(IndexPipeline::Create(stage2, Master(), Corpus()).ok());
}

TEST(IndexPipelineTest, BuildsOneRecordPerFamilyAndSite) {
  SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = 4};
  auto pipe = IndexPipeline::Create(p, Master(), {});
  ASSERT_TRUE(pipe.ok());
  auto recs = pipe->BuildIndexRecords(7, "ABCDEFGHIJKLMNOP");
  EXPECT_EQ(recs.size(), 16u);  // 4 families x 4 sites
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (const auto& r : recs) {
    EXPECT_EQ(r.rid, 7u);
    seen.insert({r.family, r.site});
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(IndexPipelineTest, StreamsAreEncrypted) {
  SchemeParams p{.codes_per_chunk = 4};
  auto pipe = IndexPipeline::Create(p, Master(), {});
  ASSERT_TRUE(pipe.ok());
  auto recs = pipe->BuildIndexRecords(1, "ABCDABCD");
  // Family 0: two chunks of "ABCD" -> equal ciphertext (ECB property) but
  // not the plaintext packing.
  const uint64_t plain_abcd = 0x41424344;
  ASSERT_EQ(recs[0].stream.size(), 2u);
  EXPECT_EQ(recs[0].stream[0], recs[0].stream[1]);
  EXPECT_NE(recs[0].stream[0], plain_abcd);
}

TEST(IndexPipelineTest, DispersedStreamsRecombineToChunkCiphertext) {
  SchemeParams with{.codes_per_chunk = 4, .dispersal_sites = 4};
  SchemeParams without{.codes_per_chunk = 4, .dispersal_sites = 1};
  auto pw = IndexPipeline::Create(with, Master(), {});
  auto po = IndexPipeline::Create(without, Master(), {});
  ASSERT_TRUE(pw.ok() && po.ok());
  auto recs_w = pw->BuildIndexRecords(1, "ABCDEFGH");
  auto recs_o = po->BuildIndexRecords(1, "ABCDEFGH");
  // recs_o[0] = family 0 chunk ciphertexts; recs_w[0..3] = its pieces.
  ASSERT_EQ(recs_o[0].stream.size(), 2u);
  ASSERT_EQ(recs_w[0].stream.size(), 2u);
  // Same master key derives the same ECB codebook, so recombining pieces
  // must give the undispersed ciphertexts. (We verify indirectly: piece
  // streams are consistent across chunks — equal chunks, equal pieces.)
  auto recs_w2 = pw->BuildIndexRecords(2, "ABCDABCD");
  for (uint32_t d = 0; d < 4; ++d) {
    const auto& stream = recs_w2[d].stream;
    ASSERT_EQ(stream.size(), 2u);
    EXPECT_EQ(stream[0], stream[1]);
  }
}

TEST(IndexPipelineTest, QueryTooShortRejected) {
  SchemeParams p{.codes_per_chunk = 4};
  auto pipe = IndexPipeline::Create(p, Master(), {});
  EXPECT_FALSE(pipe->BuildQuery("ABC").ok());
  EXPECT_TRUE(pipe->BuildQuery("ABCD").ok());
}

TEST(IndexPipelineTest, QuerySeriesMatchPaperExample) {
  // §2.4: searching "BCDEFGHIJK" with s=4 yields four series of 2,2,2,1
  // chunks at alignments 0..3.
  SchemeParams p{.codes_per_chunk = 4};
  auto pipe = IndexPipeline::Create(p, Master(), {});
  auto q = pipe->BuildQuery("BCDEFGHIJK");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->series.size(), 4u);
  EXPECT_EQ(q->series[0].alignment, 0u);
  EXPECT_EQ(q->series[0].chunks.size(), 2u);  // (BCDE)(FGHI)
  EXPECT_EQ(q->series[1].chunks.size(), 2u);  // (CDEF)(GHIJ)
  EXPECT_EQ(q->series[2].chunks.size(), 2u);  // (DEFG)(HIJK)
  EXPECT_EQ(q->series[3].chunks.size(), 1u);  // (EFGH)
}

TEST(IndexPipelineTest, QueryChunksMatchRecordChunks) {
  // The fundamental search property: a query series aligned with the record
  // chunking produces identical encrypted chunks.
  SchemeParams p{.codes_per_chunk = 4};
  auto pipe = IndexPipeline::Create(p, Master(), {});
  const std::string record = "ABCDEFGHIJKLMNOP";
  auto recs = pipe->BuildIndexRecords(1, record);
  auto q = pipe->BuildQuery("EFGHIJKL");  // occurs at p=4
  ASSERT_TRUE(q.ok());
  // Family 0 (offset 0): occurrence p=4 -> alignment (0-4) mod 4 = 0.
  const auto& family0 = recs[0].stream;
  const auto& series0 = q->series[0];
  auto hits = FindOccurrences(family0, series0.chunks);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);  // matches at chunk index 1 = symbol 4
}

TEST(IndexPipelineTest, SerializeDeserializeQueryRoundTrip) {
  for (int k : {1, 4}) {
    SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = k};
    auto pipe = IndexPipeline::Create(p, Master(), {});
    auto q = pipe->BuildQuery("ABCDEFGHIJ");
    ASSERT_TRUE(q.ok());
    Bytes wire = q->Serialize();
    auto back = SearchQuery::Deserialize(wire);
    ASSERT_TRUE(back.ok()) << "k=" << k;
    EXPECT_EQ(back->series.size(), q->series.size());
    EXPECT_EQ(back->dispersal_sites, q->dispersal_sites);
    EXPECT_EQ(back->query_symbols, q->query_symbols);
    for (size_t i = 0; i < q->series.size(); ++i) {
      EXPECT_EQ(back->SeriesLength(back->series[i]),
                q->SeriesLength(q->series[i]));
      for (uint32_t d = 0; d < static_cast<uint32_t>(k); ++d) {
        EXPECT_EQ(back->PatternFor(back->series[i], d),
                  q->PatternFor(q->series[i], d));
      }
    }
  }
}

TEST(IndexPipelineTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(SearchQuery::Deserialize(Bytes{1, 2, 3}).ok());
  Bytes zeros(24, 0);
  // dispersal_sites == 0 is implausible.
  EXPECT_FALSE(SearchQuery::Deserialize(zeros).ok());
}

TEST(IndexPipelineTest, StreamSerializationRoundTrip) {
  for (int k : {1, 2, 4}) {
    SchemeParams p{.codes_per_chunk = 4, .dispersal_sites = k};
    auto pipe = IndexPipeline::Create(p, Master(), {});
    ASSERT_TRUE(pipe.ok());
    auto recs = pipe->BuildIndexRecords(9, "ABCDEFGHIJKLMNOPQRSTUVWX");
    for (const auto& r : recs) {
      Bytes wire = pipe->SerializeStream(r.stream);
      auto back = pipe->DeserializeStream(wire);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(*back, r.stream);
    }
  }
}

TEST(IndexPipelineTest, StreamDecodeMatchesBitReaderAtEveryValueWidth) {
  // The decode unpacks whole bytes through an accumulator; this pins it to
  // a value-at-a-time BitReader walk for every stored value width a scheme
  // can have, 2..64 (undispersed chunks of one-bit codes; the PRP domain
  // and the dispersal matrix both rule out 1-bit values), and stream
  // lengths that end on and off byte boundaries.
  Rng rng(0xb175);
  for (int width = 2; width <= 64; ++width) {
    SchemeParams p{.num_codes = 2, .codes_per_chunk = width};
    auto pipe = IndexPipeline::Create(p, Master(), Corpus());
    ASSERT_TRUE(pipe.ok()) << width << ": " << pipe.status();
    ASSERT_EQ(pipe->stream_value_bits(), width);
    const uint64_t mask =
        width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{13}}) {
      std::vector<uint64_t> stream(len);
      for (uint64_t& v : stream) v = rng.Next() & mask;
      const Bytes wire = pipe->SerializeStream(stream);
      BitReader r(wire);
      ASSERT_EQ(r.Read(32).value(), len);
      std::vector<uint64_t> reference;
      for (size_t i = 0; i < len; ++i) reference.push_back(*r.Read(width));
      std::vector<uint64_t> decoded = {42};  // must be cleared first
      ASSERT_TRUE(pipe->DeserializeStreamInto(wire, &decoded).ok());
      EXPECT_EQ(decoded, reference) << "width " << width << " len " << len;
      EXPECT_EQ(decoded, stream);
    }
  }
}

TEST(IndexPipelineTest, StreamDeserializeRejectsTruncation) {
  SchemeParams p{.codes_per_chunk = 4};
  auto pipe = IndexPipeline::Create(p, Master(), {});
  Bytes wire = pipe->SerializeStream({1, 2, 3});
  Bytes truncated(wire.begin(), wire.end() - 2);
  EXPECT_FALSE(pipe->DeserializeStream(truncated).ok());
}

TEST(IndexPipelineTest, DifferentMasterKeysGiveDifferentCiphertexts) {
  SchemeParams p{.codes_per_chunk = 4};
  auto a = IndexPipeline::Create(p, ToBytes("key-a"), {});
  auto b = IndexPipeline::Create(p, ToBytes("key-b"), {});
  auto ra = a->BuildIndexRecords(1, "ABCDEFGH");
  auto rb = b->BuildIndexRecords(1, "ABCDEFGH");
  EXPECT_NE(ra[0].stream, rb[0].stream);
}

TEST(IndexPipelineTest, Stage2PipelineEndToEnd) {
  SchemeParams p{.unit_symbols = 1,
                 .num_codes = 8,
                 .codes_per_chunk = 2,
                 .dispersal_sites = 2};
  ASSERT_TRUE(p.Validate().ok());
  auto pipe = IndexPipeline::Create(p, Master(), Corpus());
  ASSERT_TRUE(pipe.ok());
  EXPECT_EQ(pipe->stream_value_bits(), 3);  // 6-bit chunks over 2 sites
  auto recs = pipe->BuildIndexRecords(1, "SCHWARZ THOMAS");
  EXPECT_EQ(recs.size(), 4u);  // 2 families x 2 sites
  auto q = pipe->BuildQuery("SCHWARZ");
  ASSERT_TRUE(q.ok());
  EXPECT_GE(q->series.size(), 1u);
}

}  // namespace
}  // namespace essdds::core
