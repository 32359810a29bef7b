// The scan-hit reply value (DESIGN.md §8): sorted, distinct record
// positions as a zigzag first varint plus varint deltas. Round trips over
// every sign and magnitude, the exact byte layout, and the parser's
// junk-in -> Corruption-out guarantee under the shared fuzz drivers.

#include "core/hit_positions.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "tests/util/fuzz_util.h"
#include "util/random.h"

namespace essdds::core {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

Bytes Encode(const std::vector<int64_t>& positions) {
  Bytes out;
  EncodeHitPositions(positions, &out);
  return out;
}

std::vector<int64_t> RoundTrip(const std::vector<int64_t>& positions) {
  std::vector<int64_t> back;
  const Status s = DecodeHitPositions(Encode(positions), &back);
  EXPECT_TRUE(s.ok()) << s;
  return back;
}

bool Rejects(const Bytes& wire) {
  std::vector<int64_t> out;
  return DecodeHitPositions(wire, &out).IsCorruption();
}

TEST(HitPositionsTest, RoundTripsNegativeAndExtremeLists) {
  const std::vector<std::vector<int64_t>> lists = {
      {},
      {0},
      {-1},
      {-3, -1, 0, 2},  // a query head hanging before the record start
      {-7, 5, 17, 29},
      {kMin},
      {kMax},
      {kMin, kMax},
      {kMin, -1, 0, 1, kMax},
      {kMax - 2, kMax - 1, kMax},
  };
  for (const auto& list : lists) {
    EXPECT_EQ(RoundTrip(list), list);
  }
}

TEST(HitPositionsTest, RandomSortedListsRoundTrip) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<int64_t> list;
    int64_t v = static_cast<int64_t>(rng.Uniform(200)) - 100;
    const size_t n = rng.Uniform(12);
    for (size_t i = 0; i < n; ++i) {
      list.push_back(v);
      v += 1 + static_cast<int64_t>(rng.Uniform(trial % 2 ? 5 : 100000));
    }
    EXPECT_EQ(RoundTrip(list), list);
  }
}

TEST(HitPositionsTest, ByteLayoutIsZigzagFirstThenDeltas) {
  EXPECT_EQ(Encode({}), Bytes{});
  EXPECT_EQ(Encode({0}), (Bytes{0x00}));
  EXPECT_EQ(Encode({-1}), (Bytes{0x01}));
  EXPECT_EQ(Encode({1}), (Bytes{0x02}));
  EXPECT_EQ(Encode({-1, 3}), (Bytes{0x01, 0x04}));
  EXPECT_EQ(Encode({64, 64 + 300}), (Bytes{0x80, 0x01, 0xAC, 0x02}));
  EXPECT_EQ(Encode({kMin}), (Bytes{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                   0xFF, 0xFF, 0x01}));
}

TEST(HitPositionsTest, RejectsMalformedLists) {
  EXPECT_TRUE(Rejects({0x80}));              // continuation past the end
  EXPECT_TRUE(Rejects({0x02, 0x81}));        // dangling trailing byte
  EXPECT_TRUE(Rejects({0x02, 0x00}));        // zero delta: a repeat
  EXPECT_TRUE(Rejects({0x80, 0x00}));        // overlong first varint
  EXPECT_TRUE(Rejects({0x02, 0x81, 0x00}));  // overlong delta
  // Eleven varint bytes, and a tenth byte carrying bits beyond 64.
  EXPECT_TRUE(Rejects({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                       0x81, 0x00}));
  EXPECT_TRUE(Rejects({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                       0x02}));
  // kMax - 1, then a delta of 2: past the top of int64.
  Bytes overflow = Encode({kMax - 1});
  overflow.push_back(0x02);
  EXPECT_TRUE(Rejects(overflow));
  // The same list one step lower is fine.
  Bytes fits = Encode({kMax - 2});
  fits.push_back(0x02);
  EXPECT_FALSE(Rejects(fits));
}

TEST(FuzzTest, HitPositionsDecodeSurvivesRandomBytes) {
  std::vector<int64_t> out;
  test::RandomBytesTrials(0x417, 4000, 48, [&](ByteSpan junk) {
    if (DecodeHitPositions(junk, &out).ok()) {
      // Whatever parses is a strictly increasing list that re-encodes to
      // the same bytes: the format has one encoding per list.
      for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1], out[i]);
      EXPECT_EQ(Encode(out), Bytes(junk.begin(), junk.end()));
    }
  });
}

TEST(FuzzTest, HitPositionsDecodeSurvivesTruncation) {
  const std::vector<int64_t> list = {-300, -2, 5, 70000, kMax};
  const Bytes wire = Encode(list);
  std::vector<int64_t> out;
  test::TruncationSweep(wire, [&](ByteSpan prefix, size_t len) {
    // No count field: a cut on a varint boundary is a shorter valid list
    // (a prefix of the original), any other cut is Corruption.
    const Status s = DecodeHitPositions(prefix, &out);
    if (s.ok()) {
      ASSERT_LT(out.size(), list.size()) << len;
      EXPECT_EQ(out, std::vector<int64_t>(list.begin(),
                                          list.begin() + out.size()))
          << len;
      EXPECT_EQ(Encode(out), Bytes(prefix.begin(), prefix.end())) << len;
    } else {
      EXPECT_TRUE(s.IsCorruption()) << len;
    }
  });
  ASSERT_TRUE(DecodeHitPositions(wire, &out).ok());
  EXPECT_EQ(out, list);
}

TEST(FuzzTest, HitPositionsDecodeSurvivesSingleByteMutations) {
  const Bytes wire = Encode({-1, 3, 7, 300, 1 << 20});
  std::vector<int64_t> out;
  test::SingleByteMutations(0x418, wire, [&](ByteSpan mutated, size_t pos) {
    const Status s = DecodeHitPositions(mutated, &out);
    if (s.ok()) {
      for (size_t i = 1; i < out.size(); ++i) {
        EXPECT_LT(out[i - 1], out[i]) << pos;
      }
    } else {
      EXPECT_TRUE(s.IsCorruption()) << pos;
    }
  });
}

}  // namespace
}  // namespace essdds::core
