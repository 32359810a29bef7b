#include "core/hit_positions.h"

#include <limits>

#include "util/logging.h"

namespace essdds::core {

namespace {

void PutVarint(uint64_t v, Bytes* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Reads one minimal varint at `*pos`. At most ten bytes; the tenth may only
/// carry the value's top bit.
bool GetVarint(ByteSpan data, size_t* pos, uint64_t* v) {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos == data.size()) return false;  // continuation past the end
    const uint8_t byte = data[(*pos)++];
    if (shift == 63 && byte > 1) return false;  // beyond 64 bits
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift > 0) return false;  // overlong encoding
      *v = value;
      return true;
    }
  }
  return false;  // a tenth byte with its continuation bit set
}

}  // namespace

void EncodeHitPositions(std::span<const int64_t> positions, Bytes* out) {
  out->clear();
  if (positions.empty()) return;
  const int64_t first = positions[0];
  PutVarint((static_cast<uint64_t>(first) << 1) ^
                static_cast<uint64_t>(first >> 63),
            out);
  for (size_t i = 1; i < positions.size(); ++i) {
    ESSDDS_DCHECK(positions[i] > positions[i - 1]);
    PutVarint(static_cast<uint64_t>(positions[i]) -
                  static_cast<uint64_t>(positions[i - 1]),
              out);
  }
}

Status DecodeHitPositions(ByteSpan data, std::vector<int64_t>* out) {
  out->clear();
  if (data.empty()) return Status::OK();
  size_t pos = 0;
  uint64_t zigzag;
  if (!GetVarint(data, &pos, &zigzag)) {
    return Status::Corruption("hit positions: bad first varint");
  }
  int64_t prev = static_cast<int64_t>(zigzag >> 1) ^
                 -static_cast<int64_t>(zigzag & 1);
  out->push_back(prev);
  while (pos < data.size()) {
    uint64_t delta;
    if (!GetVarint(data, &pos, &delta)) {
      return Status::Corruption("hit positions: bad delta varint");
    }
    const uint64_t headroom = static_cast<uint64_t>(
                                  std::numeric_limits<int64_t>::max()) -
                              static_cast<uint64_t>(prev);
    if (delta == 0 || delta > headroom) {
      return Status::Corruption("hit positions: list not strictly increasing");
    }
    prev = static_cast<int64_t>(static_cast<uint64_t>(prev) + delta);
    out->push_back(prev);
  }
  return Status::OK();
}

}  // namespace essdds::core
