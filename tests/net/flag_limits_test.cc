// Range checks of the socket front ends' numeric flags: every limit admits
// its bounds and rejects the values just outside them, signs, junk and
// overflow. Pure parsing; no server, client or thread starts.

#include "net/flag_limits.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace essdds::net {
namespace {

using namespace flag_limits;

const std::vector<std::pair<const char*, FlagLimit>>& AllLimits() {
  static const auto& limits =
      *new std::vector<std::pair<const char*, FlagLimit>>{
          {"--host", kHost},
          {"--capacity", kCapacity},
          {"--client-id", kClientId},
          {"--ops", kOps},
          {"--depth", kDepth},
          {"--timeout-us", kTimeoutUs},
          {"--retries", kRetries},
          {"--slow-op-us", kSlowOpUs},
          {"--interval-ms", kIntervalMs},
          {"--count", kCount},
      };
  return limits;
}

TEST(FlagLimitsTest, EveryLimitAdmitsItsBoundsAndNothingBeyond) {
  for (const auto& [name, limit] : AllLimits()) {
    SCOPED_TRACE(name);
    ASSERT_LE(limit.min, limit.max);
    EXPECT_EQ(*ParseFlag(std::to_string(limit.min), limit), limit.min);
    EXPECT_EQ(*ParseFlag(std::to_string(limit.max), limit), limit.max);
    EXPECT_TRUE(ParseFlag(std::to_string(limit.max + 1), limit)
                    .status()
                    .IsInvalidArgument());
    if (limit.min > 0) {
      EXPECT_TRUE(ParseFlag(std::to_string(limit.min - 1), limit)
                      .status()
                      .IsInvalidArgument());
    }
  }
}

TEST(FlagLimitsTest, SignsJunkAndOverflowAreRejected) {
  for (const auto& [name, limit] : AllLimits()) {
    SCOPED_TRACE(name);
    for (const char* bad : {"", "-1", "+1", "1e3", "12abc", " 1", "0x10",
                            "18446744073709551616"}) {
      EXPECT_FALSE(ParseFlag(bad, limit).ok()) << "'" << bad << "'";
    }
  }
}

TEST(FlagLimitsTest, LimitsKeepTheFrontEndsSane) {
  // A bucket must hold at least one record before it splits.
  EXPECT_FALSE(ParseFlag("0", kCapacity).ok());
  // A pipelining window of zero would never send.
  EXPECT_FALSE(ParseFlag("0", kDepth).ok());
  // Client keys are 1 + op * 1000 + client id: ids stay below the step and
  // the largest key of the largest run stays far below 2^64.
  EXPECT_LT(kClientId.max, 1000u);
  EXPECT_LT(kOps.max * 1000 + kClientId.max + 1, uint64_t{1} << 62);
  // The zero that means "forever" / "off" stays expressible.
  EXPECT_EQ(*ParseFlag("0", kCount), 0u);
  EXPECT_EQ(*ParseFlag("0", kSlowOpUs), 0u);
}

}  // namespace
}  // namespace essdds::net
