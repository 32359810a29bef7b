#ifndef ESSDDS_SDDS_COLUMN_STORE_H_
#define ESSDDS_SDDS_COLUMN_STORE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "util/bytes.h"

namespace essdds::sdds {

/// Read-only view of a bucket's columnar record storage, handed to scan
/// evaluation: record i is key `keys[i]` with payload bytes
/// arena[offsets[i], offsets[i] + lengths[i]). Records appear in ascending
/// key order — the same order a std::map iteration yields — so a scan over
/// the slice returns exactly the reply a walk of the bucket's map would.
///
/// The view borrows the owning ColumnStore's buffers: it is valid only
/// until the store's next mutation. Scan tasks hold one across a deferred
/// batch; buckets resolve their queued tasks before mutating.
struct ColumnSlice {
  const uint64_t* keys = nullptr;
  const uint64_t* offsets = nullptr;
  const uint32_t* lengths = nullptr;
  const uint8_t* arena = nullptr;
  size_t count = 0;

  ByteSpan payload(size_t i) const {
    return ByteSpan(arena + offsets[i], lengths[i]);
  }
};

/// Columnar projection of one bucket's record map: payload bytes packed
/// into a contiguous arena with per-record offset/length arrays, keys in a
/// flat sorted array. The map stays the authority for key operations
/// (lookup, routing, split carving); the column store exists for scans,
/// which walk every record — a flat arena turns that walk from
/// pointer-chasing map nodes into streaming reads, and gives batch matchers
/// many packed records per pass.
///
/// The owning bucket mutates both structures in lockstep:
///   - Upsert/Erase mirror single-record map mutations. An upsert whose
///     payload size is unchanged overwrites in place; otherwise the new
///     payload is appended to the arena and the old bytes become waste.
///     Entry-array edits memmove the flat arrays (cheap at bucket sizes;
///     bulk paths below avoid the quadratic trap).
///   - RebuildFrom repacks everything from the map in one pass; the bulk
///     transfer paths (split carve-out, kMoveRecords, kMergeRecords) use it
///     instead of per-record edits.
/// Appends that outrun live bytes trigger a compaction (arena rewritten in
/// key order), so the arena stays within 2x of the live payload volume and
/// scan reads stay mostly sequential.
class ColumnStore {
 public:
  ColumnStore() = default;

  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  /// Inserts or replaces the payload of `key`.
  void Upsert(uint64_t key, ByteSpan payload);

  /// Removes `key` if present.
  void Erase(uint64_t key);

  /// Drops everything (merge dissolution).
  void Clear();

  /// Repacks from `records` in ascending key order (bulk transfer paths).
  void RebuildFrom(const std::map<uint64_t, Bytes>& records);

  size_t size() const { return keys_.size(); }
  uint64_t key(size_t i) const { return keys_[i]; }
  ByteSpan payload(size_t i) const {
    return ByteSpan(arena_.data() + offsets_[i], lengths_[i]);
  }

  /// Borrowed view for scan evaluation; valid until the next mutation.
  ColumnSlice slice() const {
    ColumnSlice s;
    s.keys = keys_.data();
    s.offsets = offsets_.data();
    s.lengths = lengths_.data();
    s.arena = arena_.data();
    s.count = keys_.size();
    return s;
  }

  /// Arena bytes occupied by dead payloads (replaced or erased records);
  /// reset by compaction and rebuilds. Exposed for tests. Invariant:
  /// waste_bytes() + (sum of live payload lengths) == arena_bytes().
  uint64_t waste_bytes() const { return waste_bytes_; }

  /// Total arena size, live + waste. Exposed for the compaction-boundary
  /// tests (growth-bound and all-dead-arena assertions).
  uint64_t arena_bytes() const { return arena_.size(); }

  /// True when this store holds exactly the content of `records`, byte for
  /// byte, in ascending key order. Test/audit hook.
  bool MirrorsMap(const std::map<uint64_t, Bytes>& records) const;

 private:
  /// Index of `key` in keys_, or keys_.size() when absent.
  size_t Find(uint64_t key) const;

  /// Rewrites the arena with live payloads only, in key order.
  void Compact();

  /// Appends `payload` to the arena (compacting first when the waste has
  /// outgrown the live bytes) and returns its offset.
  uint64_t Append(ByteSpan payload);

  std::vector<uint64_t> keys_;     // ascending
  std::vector<uint64_t> offsets_;  // into arena_, parallel to keys_
  std::vector<uint32_t> lengths_;  // parallel to keys_
  std::vector<uint8_t> arena_;
  uint64_t waste_bytes_ = 0;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_COLUMN_STORE_H_
