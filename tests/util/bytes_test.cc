#include "util/bytes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bitstream.h"
#include "util/random.h"

namespace essdds {
namespace {

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(HexEncode(b), "0001abff");
  auto back = HexDecode("0001abff");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, b);
}

TEST(BytesTest, HexDecodeAcceptsUppercase) {
  auto r = HexDecode("DEADBEEF");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(HexEncode(*r), "deadbeef");
}

TEST(BytesTest, HexDecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(BytesTest, HexDecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").ok());
}

TEST(BytesTest, StringRoundTrip) {
  Bytes b = ToBytes("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(ToString(b), "hello");
}

TEST(BytesTest, ParseDecimalAcceptsCountsUpToTheLimit) {
  EXPECT_EQ(*ParseDecimal("0", 256), 0u);
  EXPECT_EQ(*ParseDecimal("4", 256), 4u);
  EXPECT_EQ(*ParseDecimal("256", 256), 256u);
  EXPECT_EQ(*ParseDecimal("007", 256), 7u);
  EXPECT_EQ(*ParseDecimal("18446744073709551615", UINT64_MAX), UINT64_MAX);
}

TEST(BytesTest, ParseDecimalRejectsSignsGarbageAndHugeValues) {
  // strtoull/atoll would wrap "-1" to SIZE_MAX and read "4x" as 4; a
  // thread count from the command line must fail instead.
  for (const char* bad : {"", "-1", "+4", " 4", "4 ", "4x", "x4", "0x10",
                          "1e3", "2.5", "-0"}) {
    EXPECT_FALSE(ParseDecimal(bad, UINT64_MAX).ok()) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseDecimal("257", 256).ok());
  EXPECT_FALSE(ParseDecimal("100000", 256).ok());
  EXPECT_FALSE(ParseDecimal("1", 0).ok());
  EXPECT_TRUE(ParseDecimal("0", 0).ok());
  // One past UINT64_MAX, and far past it: overflow, not wraparound.
  EXPECT_FALSE(ParseDecimal("18446744073709551616", UINT64_MAX).ok());
  EXPECT_FALSE(ParseDecimal("99999999999999999999999", UINT64_MAX).ok());
}

TEST(BytesTest, BigEndianRoundTrip32) {
  uint8_t buf[4];
  StoreBigEndian32(0x12345678u, buf);
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[3], 0x78);
  EXPECT_EQ(LoadBigEndian32(buf), 0x12345678u);
}

TEST(BytesTest, BigEndianRoundTrip64) {
  uint8_t buf[8];
  StoreBigEndian64(0x0123456789ABCDEFull, buf);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0xEF);
  EXPECT_EQ(LoadBigEndian64(buf), 0x0123456789ABCDEFull);
}

TEST(BytesTest, AppendBigEndian) {
  Bytes out;
  AppendBigEndian32(1, out);
  AppendBigEndian64(2, out);
  EXPECT_EQ(out.size(), 12u);
  EXPECT_EQ(LoadBigEndian32(out.data()), 1u);
  EXPECT_EQ(LoadBigEndian64(out.data() + 4), 2u);
}

TEST(BytesTest, ConstantTimeEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
}

TEST(BitStreamTest, WriteReadRoundTrip) {
  BitWriter w;
  w.Write(0b101, 3);
  w.Write(0xFF, 8);
  w.Write(0, 1);
  w.Write(0x1234, 16);
  EXPECT_EQ(w.bit_count(), 28u);

  BitReader r(w.buffer());
  EXPECT_EQ(r.Read(3).value(), 0b101u);
  EXPECT_EQ(r.Read(8).value(), 0xFFu);
  EXPECT_EQ(r.Read(1).value(), 0u);
  EXPECT_EQ(r.Read(16).value(), 0x1234u);
}

TEST(BitStreamTest, ReadPastEndFails) {
  BitWriter w;
  w.Write(1, 2);
  BitReader r(w.buffer());
  ASSERT_TRUE(r.Read(2).ok());
  // The writer padded to a full byte; 6 padding bits remain.
  EXPECT_EQ(r.remaining_bits(), 6u);
  EXPECT_TRUE(r.Read(6).ok());
  EXPECT_FALSE(r.Read(1).ok());
}

TEST(BitStreamTest, RandomizedRoundTrip) {
  Rng rng(42);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::pair<uint64_t, int>> values;
    BitWriter w;
    for (int i = 0; i < 100; ++i) {
      int bits = static_cast<int>(rng.Uniform(64)) + 1;
      uint64_t mask = bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
      uint64_t v = rng.Next() & mask;
      values.emplace_back(v, bits);
      w.Write(v, bits);
    }
    BitReader r(w.buffer());
    for (auto [v, bits] : values) {
      auto got = r.Read(bits);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, v);
    }
  }
}

/// Bit-at-a-time MSB-first packing: the layout BitWriter and BitReader
/// produce and parse whole bytes at a time, and must keep byte for byte.
void ReferenceWrite(uint64_t value, int bits, Bytes* buf, size_t* bit_count) {
  for (int i = bits - 1; i >= 0; --i) {
    if (*bit_count / 8 == buf->size()) buf->push_back(0);
    if ((value >> i) & 1) {
      (*buf)[*bit_count / 8] |=
          static_cast<uint8_t>(1u << (7 - *bit_count % 8));
    }
    ++*bit_count;
  }
}

uint64_t ReferenceRead(ByteSpan data, size_t pos, int bits) {
  uint64_t v = 0;
  for (int i = 0; i < bits; ++i, ++pos) {
    v = (v << 1) | ((data[pos / 8] >> (7 - pos % 8)) & 1);
  }
  return v;
}

TEST(BitStreamTest, WriterMatchesBitAtATimeReferenceAtEveryWidth) {
  Rng rng(64);
  for (int start = 0; start < 8; ++start) {
    for (int bits = 1; bits <= 64; ++bits) {
      BitWriter w;
      Bytes ref;
      size_t ref_bits = 0;
      if (start > 0) {
        const uint64_t lead = rng.Next();
        w.Write(lead, start);
        ReferenceWrite(lead, start, &ref, &ref_bits);
      }
      for (int i = 0; i < 9; ++i) {
        // Unmasked values: bits above the width must be ignored.
        const uint64_t v = rng.Next();
        w.Write(v, bits);
        ReferenceWrite(v, bits, &ref, &ref_bits);
      }
      ASSERT_EQ(w.buffer(), ref) << "start " << start << " width " << bits;
      EXPECT_EQ(w.bit_count(), ref_bits);
    }
  }
}

TEST(BitStreamTest, ReaderMatchesBitAtATimeReferenceAtEveryWidth) {
  Rng rng(65);
  Bytes data(40);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (int start = 0; start < 8; ++start) {
    for (int bits = 1; bits <= 64; ++bits) {
      BitReader r(data);
      size_t pos = 0;
      if (start > 0) {
        ASSERT_EQ(r.Read(start).value(), ReferenceRead(data, 0, start));
        pos = static_cast<size_t>(start);
      }
      while (r.remaining_bits() >= static_cast<size_t>(bits)) {
        auto got = r.Read(bits);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(*got, ReferenceRead(data, pos, bits))
            << "start " << start << " width " << bits << " at bit " << pos;
        pos += static_cast<size_t>(bits);
      }
      // Exhaustion fails without consuming anything.
      const size_t left = r.remaining_bits();
      EXPECT_TRUE(r.Read(bits).status().IsOutOfRange());
      EXPECT_EQ(r.remaining_bits(), left);
    }
  }
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(4);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8000; ++i) seen[rng.Uniform(8)]++;
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 expected
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleCumulativeRespectsWeights) {
  Rng rng(10);
  // Weights 1, 3 -> cumulative {1, 4}; index 1 about 3x more likely.
  std::vector<double> cum = {1.0, 4.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 40000; ++i) counts[rng.SampleCumulative(cum)]++;
  EXPECT_GT(counts[1], counts[0] * 2);
  EXPECT_LT(counts[1], counts[0] * 4);
}

}  // namespace
}  // namespace essdds
