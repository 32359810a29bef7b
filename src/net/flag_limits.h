#ifndef ESSDDS_NET_FLAG_LIMITS_H_
#define ESSDDS_NET_FLAG_LIMITS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/result.h"

namespace essdds::net {

/// Accepted range of one numeric command-line flag of the socket front ends
/// (essdds_server, essdds_client, essdds_admin).
struct FlagLimit {
  uint64_t min = 0;
  uint64_t max = 0;
};

/// The front ends' numeric flags. A value outside its range — or a sign,
/// junk or overflow, which ParseDecimal rejects — is a usage error rather
/// than a wrapped SIZE_MAX.
namespace flag_limits {
/// essdds_server --host: index into the --cluster list (the list length is
/// checked after parsing).
inline constexpr FlagLimit kHost{0, 4095};
/// essdds_server --capacity: records per bucket before a split; LH* needs
/// at least one.
inline constexpr FlagLimit kCapacity{1, uint64_t{1} << 20};
/// essdds_client --client-id: keys step by 1000 per op, so ids below 1000
/// keep concurrent clients' keys disjoint.
inline constexpr FlagLimit kClientId{0, 999};
/// essdds_client --ops: records inserted, verified and deleted.
inline constexpr FlagLimit kOps{0, 1'000'000'000};
/// essdds_client --depth: pipelined operations in flight.
inline constexpr FlagLimit kDepth{1, 65'536};
/// essdds_client --timeout-us: per-request timeout, at most an hour.
inline constexpr FlagLimit kTimeoutUs{1, 3'600'000'000};
/// essdds_client --retries: retransmissions before giving up.
inline constexpr FlagLimit kRetries{0, 1000};
/// essdds_client --slow-op-us: slow-op log threshold (0 = off).
inline constexpr FlagLimit kSlowOpUs{0, 3'600'000'000};
/// essdds_admin watch --interval-ms: pause between scrapes, at most a day.
inline constexpr FlagLimit kIntervalMs{1, 86'400'000};
/// essdds_admin watch --count: scrape rounds (0 = forever).
inline constexpr FlagLimit kCount{0, 1'000'000'000};
}  // namespace flag_limits

/// Parses a plain decimal flag value within `limit`.
inline Result<uint64_t> ParseFlag(std::string_view text, FlagLimit limit) {
  ESSDDS_ASSIGN_OR_RETURN(const uint64_t value, ParseDecimal(text, limit.max));
  if (value < limit.min) {
    std::string message(text);
    message.append(" is below the minimum ").append(std::to_string(limit.min));
    return Status::InvalidArgument(message);
  }
  return value;
}

}  // namespace essdds::net

#endif  // ESSDDS_NET_FLAG_LIMITS_H_
