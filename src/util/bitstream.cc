#include "util/bitstream.h"

#include <algorithm>
#include <utility>

namespace essdds {

void BitWriter::Write(uint64_t value, int bits) {
  ESSDDS_CHECK(bits >= 1 && bits <= 64);
  // Fills the open byte, then whole bytes, then opens the last partial one.
  int left = bits;
  while (left > 0) {
    const int used = static_cast<int>(bit_count_ % 8);
    if (used == 0) buffer_.push_back(0);
    const int take = std::min(8 - used, left);
    const uint64_t piece = (value >> (left - take)) & ((1u << take) - 1);
    buffer_.back() |= static_cast<uint8_t>(piece << (8 - used - take));
    left -= take;
    bit_count_ += static_cast<size_t>(take);
  }
}

Bytes BitWriter::TakeBuffer() {
  bit_count_ = 0;
  return std::exchange(buffer_, Bytes{});
}

Result<uint64_t> BitReader::Read(int bits) {
  ESSDDS_CHECK(bits >= 1 && bits <= 64);
  if (remaining_bits() < static_cast<size_t>(bits)) {
    return Status::OutOfRange("bit stream exhausted");
  }
  // Takes every wanted bit of the current byte at once.
  uint64_t v = 0;
  int left = bits;
  while (left > 0) {
    const int used = static_cast<int>(pos_ % 8);
    const int take = std::min(8 - used, left);
    const unsigned byte = data_[pos_ / 8];
    v = (v << take) | ((byte >> (8 - used - take)) & ((1u << take) - 1));
    left -= take;
    pos_ += static_cast<size_t>(take);
  }
  return v;
}

}  // namespace essdds
