#ifndef ESSDDS_CORE_HIT_POSITIONS_H_
#define ESSDDS_CORE_HIT_POSITIONS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace essdds::core {

// The value of one scan hit: the sorted, distinct record-symbol positions
// at which a query series occurs in one index record's stream (DESIGN.md
// §8). A site computes them while it matches; the client intersects the
// k lists of one (rid, family) instead of decoding the streams again.
//
// Layout: the first position as a zigzag LEB128 varint, then each
// following position as the unsigned LEB128 varint of its (strictly
// positive) distance to the previous one. Varints are minimal: no zero
// final byte after a continuation byte. The byte length comes from the
// enclosing record, so there is no count; the empty list is the empty
// string. Positions may be negative (a query head hanging before the
// record start).

/// Replaces `*out` with the encoding of `positions`, which must be sorted
/// ascending and distinct.
void EncodeHitPositions(std::span<const int64_t> positions, Bytes* out);

/// Parses an untrusted encoding into `*out` (cleared first). Bounded and
/// exception-free: Corruption for a truncated or overlong varint, a value
/// beyond 64 bits, a zero or overflowing delta (the list must strictly
/// increase) and bytes that do not complete a varint; `*out` is then
/// unspecified.
Status DecodeHitPositions(ByteSpan data, std::vector<int64_t>* out);

}  // namespace essdds::core

#endif  // ESSDDS_CORE_HIT_POSITIONS_H_
