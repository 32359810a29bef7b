#ifndef ESSDDS_UTIL_BYTES_H_
#define ESSDDS_UTIL_BYTES_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace essdds {

/// Owning byte buffer used throughout the library.
using Bytes = std::vector<uint8_t>;
/// Non-owning read-only byte view.
using ByteSpan = std::span<const uint8_t>;

/// Converts a string's bytes into a Bytes buffer.
Bytes ToBytes(std::string_view s);

/// Converts raw bytes into a std::string (no encoding assumed).
std::string ToString(ByteSpan b);

/// Lowercase hex encoding, e.g. {0xDE, 0xAD} -> "dead".
std::string HexEncode(ByteSpan b);

/// Parses lowercase/uppercase hex; fails on odd length or non-hex chars.
Result<Bytes> HexDecode(std::string_view hex);

/// Parses a plain decimal count in [0, max] — the command-line parser for
/// sizes and thread counts. Fails on empty input, any non-digit (so a sign
/// or a trailing unit is rejected rather than wrapped or ignored), and on
/// values above `max`, overflow included.
Result<uint64_t> ParseDecimal(std::string_view text, uint64_t max);

/// Big-endian fixed-width integer load/store (crypto code is specified
/// big-endian; SDDS keys use these for order-preserving byte layout).
void StoreBigEndian32(uint32_t v, uint8_t* out);
void StoreBigEndian64(uint64_t v, uint8_t* out);
uint32_t LoadBigEndian32(const uint8_t* p);
uint64_t LoadBigEndian64(const uint8_t* p);

/// Appends v to out in big-endian order.
void AppendBigEndian32(uint32_t v, Bytes& out);
void AppendBigEndian64(uint64_t v, Bytes& out);

/// Constant-time equality for secrets (avoids early-exit timing leaks).
bool ConstantTimeEqual(ByteSpan a, ByteSpan b);

}  // namespace essdds

#endif  // ESSDDS_UTIL_BYTES_H_
