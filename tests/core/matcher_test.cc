#include "core/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace essdds::core {
namespace {

using U64 = std::vector<uint64_t>;

TEST(MatcherTest, FindsSingleOccurrence) {
  U64 stream = {1, 2, 3, 4, 5};
  U64 pattern = {3, 4};
  EXPECT_EQ(FindOccurrences(stream, pattern), (std::vector<size_t>{2}));
}

TEST(MatcherTest, FindsMultipleAndOverlapping) {
  U64 stream = {7, 7, 7, 7};
  U64 pattern = {7, 7};
  EXPECT_EQ(FindOccurrences(stream, pattern), (std::vector<size_t>{0, 1, 2}));
}

TEST(MatcherTest, NoMatch) {
  U64 stream = {1, 2, 3};
  U64 pattern = {2, 1};
  EXPECT_TRUE(FindOccurrences(stream, pattern).empty());
}

TEST(MatcherTest, PatternLongerThanStream) {
  U64 stream = {1, 2};
  U64 pattern = {1, 2, 3};
  EXPECT_TRUE(FindOccurrences(stream, pattern).empty());
}

TEST(MatcherTest, EmptyPatternMatchesNothing) {
  U64 stream = {1, 2, 3};
  U64 pattern = {};
  EXPECT_TRUE(FindOccurrences(stream, pattern).empty());
}

TEST(MatcherTest, EmptyStream) {
  U64 stream = {};
  U64 pattern = {1};
  EXPECT_TRUE(FindOccurrences(stream, pattern).empty());
}

TEST(MatcherTest, FullStreamMatch) {
  U64 v = {9, 8, 7};
  EXPECT_EQ(FindOccurrences(v, v), (std::vector<size_t>{0}));
}

TEST(MatcherTest, PeriodicPatternKmpCorrectness) {
  // Classic KMP trap: pattern with repeated prefix.
  U64 stream = {1, 1, 2, 1, 1, 1, 2};
  U64 pattern = {1, 1, 2};
  EXPECT_EQ(FindOccurrences(stream, pattern), (std::vector<size_t>{0, 4}));
}

TEST(MatcherTest, MatchesNaiveSearchOnRandomInputs) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.Uniform(60);
    const size_t m = 1 + rng.Uniform(6);
    U64 stream(n), pattern(m);
    // Small alphabet to force many matches.
    for (auto& v : stream) v = rng.Uniform(3);
    for (auto& v : pattern) v = rng.Uniform(3);

    std::vector<size_t> naive;
    for (size_t i = 0; i + m <= n; ++i) {
      bool ok = true;
      for (size_t j = 0; j < m; ++j) {
        if (stream[i + j] != pattern[j]) {
          ok = false;
          break;
        }
      }
      if (ok) naive.push_back(i);
    }
    EXPECT_EQ(FindOccurrences(stream, pattern), naive)
        << "trial " << trial;
  }
}

TEST(MatcherTest, Uint32Overload) {
  std::vector<uint32_t> stream = {5, 6, 5, 6, 5};
  std::vector<uint32_t> pattern = {5, 6, 5};
  EXPECT_EQ(FindOccurrences(stream, pattern), (std::vector<size_t>{0, 2}));
}

/// Reference matcher: the obvious O(n*m) scan, overlapping occurrences
/// included. Everything faster must agree with this.
std::vector<size_t> NaiveOccurrences(const U64& stream, const U64& pattern) {
  std::vector<size_t> out;
  if (pattern.empty() || pattern.size() > stream.size()) return out;
  for (size_t i = 0; i + pattern.size() <= stream.size(); ++i) {
    if (std::equal(pattern.begin(), pattern.end(), stream.begin() + i)) {
      out.push_back(i);
    }
  }
  return out;
}

U64 RandomStream(Rng& rng, size_t len, uint64_t alphabet) {
  U64 v(len);
  for (auto& x : v) x = rng.Uniform(alphabet);
  return v;
}

TEST(KmpTest, FailureTableMatchesDefinition) {
  // fail[i] = length of the longest proper prefix of pattern[0..i] that is
  // also a suffix — checked against the quadratic definition.
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const auto pattern = RandomStream(rng, 1 + rng.Uniform(12), 3);
    const auto fail = KmpFailureTable(pattern);
    ASSERT_EQ(fail.size(), pattern.size());
    for (size_t i = 0; i < pattern.size(); ++i) {
      uint32_t expected = 0;
      for (size_t len = 1; len < i + 1; ++len) {
        if (std::equal(pattern.begin(), pattern.begin() + len,
                       pattern.begin() + (i + 1 - len))) {
          expected = static_cast<uint32_t>(len);
        }
      }
      EXPECT_EQ(fail[i], expected) << "trial " << trial << " i " << i;
    }
  }
}

TEST(KmpTest, ContainsAgreesWithNaiveMatcher) {
  Rng rng(12);
  for (int trial = 0; trial < 500; ++trial) {
    // Alphabet of 2: self-overlapping patterns (AAAB, ABAB...) are the norm,
    // which is exactly where hand-rolled matchers go wrong.
    const auto stream = RandomStream(rng, rng.Uniform(40), 2);
    const auto pattern = RandomStream(rng, 1 + rng.Uniform(6), 2);
    const auto fail = KmpFailureTable(pattern);
    EXPECT_EQ(KmpContains(stream, pattern, fail),
              !NaiveOccurrences(stream, pattern).empty())
        << "trial " << trial;
  }
}

TEST(KmpTest, FindOccurrencesAgreesWithNaiveMatcher) {
  Rng rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    const auto stream = RandomStream(rng, rng.Uniform(60), 3);
    // Mix random patterns with substrings of the stream (guaranteed hits).
    U64 pattern;
    if (rng.Bernoulli(0.5) && stream.size() >= 2) {
      const size_t len = 1 + rng.Uniform(std::min<size_t>(stream.size(), 5));
      const size_t at = rng.Uniform(stream.size() - len + 1);
      pattern.assign(stream.begin() + at, stream.begin() + at + len);
    } else {
      pattern = RandomStream(rng, 1 + rng.Uniform(5), 3);
    }
    EXPECT_EQ(FindOccurrences(stream, pattern),
              NaiveOccurrences(stream, pattern))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace essdds::core
