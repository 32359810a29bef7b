#include "util/bytes.h"

namespace essdds {

namespace {

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToString(ByteSpan b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::string HexEncode(ByteSpan b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t byte : b) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xF]);
  }
  return out;
}

Result<Bytes> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("non-hex character in input");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

Result<uint64_t> ParseDecimal(std::string_view text, uint64_t max) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(std::string(text) +
                                     " is not a plain decimal count");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) {
      return Status::InvalidArgument(std::string(text) +
                                     " exceeds the limit " +
                                     std::to_string(max));
    }
    value = value * 10 + digit;
  }
  return value;
}

void StoreBigEndian32(uint32_t v, uint8_t* out) {
  out[0] = static_cast<uint8_t>(v >> 24);
  out[1] = static_cast<uint8_t>(v >> 16);
  out[2] = static_cast<uint8_t>(v >> 8);
  out[3] = static_cast<uint8_t>(v);
}

void StoreBigEndian64(uint64_t v, uint8_t* out) {
  StoreBigEndian32(static_cast<uint32_t>(v >> 32), out);
  StoreBigEndian32(static_cast<uint32_t>(v), out + 4);
}

uint32_t LoadBigEndian32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint64_t LoadBigEndian64(const uint8_t* p) {
  return (static_cast<uint64_t>(LoadBigEndian32(p)) << 32) |
         LoadBigEndian32(p + 4);
}

void AppendBigEndian32(uint32_t v, Bytes& out) {
  uint8_t buf[4];
  StoreBigEndian32(v, buf);
  out.insert(out.end(), buf, buf + 4);
}

void AppendBigEndian64(uint64_t v, Bytes& out) {
  uint8_t buf[8];
  StoreBigEndian64(v, buf);
  out.insert(out.end(), buf, buf + 8);
}

bool ConstantTimeEqual(ByteSpan a, ByteSpan b) {
  if (a.size() != b.size()) return false;
  uint8_t acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace essdds
