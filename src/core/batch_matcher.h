#ifndef ESSDDS_CORE_BATCH_MATCHER_H_
#define ESSDDS_CORE_BATCH_MATCHER_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "util/bytes.h"
#include "util/logging.h"

namespace essdds::core {

/// Bit-parallel batch matcher — the one production matcher: the
/// SearchQuery's per-(family, dispersal site) pattern sets compiled into
/// multi-pattern Shift-And automata. Rather than one KMP pass per series
/// pattern, it packs every pattern of a (family, site) program into 64-bit
/// automaton words — one pass over the stream advances all of them at once
/// — which is what makes the columnar scan path (many packed records per
/// call, one stream decode each) pay off. It runs at the sites: Matches
/// picks the candidates of a scan, ForEachOccurrence yields the hit
/// positions each candidate's reply carries.
///
/// Construction: patterns whose length fits a machine word (<= 64 stream
/// values) are concatenated into as few Shift-And groups as possible; a
/// group tracks one state word over a byte-reduced alphabet
/// (`value & 0xFF`). The reduction makes the automaton a superset
/// recognizer — chunk values are up to 64 bits and adjacent patterns in a
/// word can leak carry bits into each other — so every candidate fire is
/// confirmed exactly with a memcmp against the full 64-bit pattern values
/// before it is reported. A program holding exactly one in-word pattern
/// skips the automaton for a first-value scan + memcmp (the fixed-literal
/// fast path). Patterns longer than 64 values fall back to the same
/// KMP the scalar matcher runs.
///
/// Semantics match the naive scan exactly (the property tests pit the two
/// against each other): empty patterns never match, out-of-range families
/// and sites never match, and ForEachOccurrence reports every occurrence of
/// every series pattern (occurrence *order* is unspecified; the site sorts
/// the positions it derives from them).
///
/// The matcher borrows the query: `query` must outlive it (patterns
/// reference its chunk/piece buffers; nothing is copied).
class BatchMatcher {
 public:
  explicit BatchMatcher(const SearchQuery* query);

  BatchMatcher(BatchMatcher&&) = default;
  BatchMatcher& operator=(BatchMatcher&&) = default;
  BatchMatcher(const BatchMatcher&) = delete;
  BatchMatcher& operator=(const BatchMatcher&) = delete;

  const SearchQuery& query() const { return *query_; }

  /// True when any query series matches the index stream of (family, site).
  /// Agrees with the naive scan on every input. Defined inline: this
  /// is the per-record call of the columnar scan loop, where call overhead
  /// is on the order of the match itself for short piece streams.
  bool Matches(uint32_t family, uint32_t site,
               std::span<const uint64_t> stream) const {
    const Program* prog = ProgramFor(family, site);
    if (prog == nullptr || stream.size() < prog->min_len) return false;
    return MatchesProgram(*prog, stream);
  }

  /// Invokes fn(series_alignment, chunk_index) for every occurrence of
  /// every series pattern of (family, site) in `stream`, overlapping
  /// occurrences included; order unspecified.
  template <typename Fn>
  void ForEachOccurrence(uint32_t family, uint32_t site,
                         std::span<const uint64_t> stream, Fn&& fn) const {
    const Program* prog = ProgramFor(family, site);
    if (prog == nullptr) return;
    for (const Group& g : prog->groups) {
      if (g.pattern_ids.size() == 1) {
        const Pattern& p = prog->patterns[g.pattern_ids[0]];
        ScanLiteral(p, stream, [&](size_t start) {
          fn(p.alignment, start);
          return true;  // keep scanning: report every occurrence
        });
        continue;
      }
      RunGroup(*prog, g, stream, [&](const Pattern& p, size_t start) {
        fn(p.alignment, start);
        return true;
      });
    }
    for (uint32_t id : prog->kmp) {
      const Pattern& p = prog->patterns[id];
      if (stream.size() < p.values.size()) continue;
      for (size_t i = 0, k = 0; i < stream.size(); ++i) {
        while (k > 0 && stream[i] != p.values[k]) k = p.fail[k - 1];
        if (stream[i] == p.values[k]) ++k;
        if (k == p.values.size()) {
          fn(p.alignment, i + 1 - p.values.size());
          k = p.fail[k - 1];
        }
      }
    }
  }

 private:
  struct Pattern {
    uint32_t alignment = 0;
    std::span<const uint64_t> values;  // into query_'s chunk/piece buffers
    std::vector<uint32_t> fail;        // KMP table; built only for fallback
  };

  /// One Shift-And word: up to 64 pattern positions concatenated. Bit b of
  /// the state word means "some pattern's prefix ending at position b
  /// matched the stream suffix ending here" — under the byte-reduced
  /// alphabet, so a set final bit is a candidate, not a match.
  struct Group {
    std::array<uint64_t, 256> masks{};  // masks[byte]: positions whose
                                        // pattern value reduces to `byte`
    uint64_t initial = 0;               // bit at each pattern's position 0
    uint64_t final = 0;                 // bit at each pattern's last position
    std::array<uint32_t, 64> pattern_of_bit{};  // final bit -> pattern index
    std::vector<uint32_t> pattern_ids;          // patterns packed here
  };

  /// All patterns one (family group, site) cell must match.
  struct Program {
    std::vector<Pattern> patterns;  // non-empty patterns only
    std::vector<Group> groups;      // in-word patterns (length <= 64)
    std::vector<uint32_t> kmp;      // pattern indices longer than a word
    size_t min_len = 0;             // shortest pattern: early-out bound
  };

  /// The program of (family, site), or nullptr when that cell cannot match
  /// (family/site out of range, or no non-empty patterns).
  const Program* ProgramFor(uint32_t family, uint32_t site) const {
    if (site >= sites_) return nullptr;
    const size_t fg = query_->per_family ? family : 0;
    if (fg >= family_groups_) return nullptr;
    const Program& prog = programs_[fg * sites_ + site];
    return prog.patterns.empty() ? nullptr : &prog;
  }

  /// Exact occurrence check for a candidate start (full 64-bit values; the
  /// automaton ran byte-reduced). Pattern spans and streams are contiguous,
  /// so one memcmp settles it.
  static bool VerifyAt(const Pattern& p, std::span<const uint64_t> stream,
                       size_t start) {
    return std::memcmp(stream.data() + start, p.values.data(),
                       p.values.size() * sizeof(uint64_t)) == 0;
  }

  /// Fixed-literal scan: first-value filter, then memcmp. fn(start) on each
  /// occurrence; returns false from fn to stop early.
  template <typename Fn>
  static void ScanLiteral(const Pattern& p, std::span<const uint64_t> stream,
                          Fn&& fn) {
    const size_t m = p.values.size();
    if (stream.size() < m) return;
    const uint64_t first = p.values[0];
    for (size_t i = 0; i + m <= stream.size(); ++i) {
      if (stream[i] == first && VerifyAt(p, stream, i)) {
        if (!fn(i)) return;
      }
    }
  }

  /// Runs one automaton word over the stream. fn(pattern, start) on each
  /// verified occurrence; returns false from fn to stop early.
  template <typename Fn>
  static void RunGroup(const Program& prog, const Group& g,
                       std::span<const uint64_t> stream, Fn&& fn) {
    uint64_t state = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      state = ((state << 1) | g.initial) &
              g.masks[static_cast<uint8_t>(stream[i])];
      uint64_t fired = state & g.final;
      while (fired != 0) {
        const int bit = std::countr_zero(fired);
        fired &= fired - 1;
        const Pattern& p = prog.patterns[g.pattern_of_bit[
            static_cast<size_t>(bit)]];
        const size_t start = i + 1 - p.values.size();
        if (VerifyAt(p, stream, start)) {
          if (!fn(p, start)) return;
        }
      }
    }
  }

  static Program CompileProgram(const SearchQuery& q,
                                const std::vector<QuerySeries>& list,
                                uint32_t site);

  /// The match body past the program lookup and length early-out. The
  /// one-group automaton case — every realistic query compiles to it — is
  /// inlined; multi-group programs and KMP fallbacks take the out-of-line
  /// slow path.
  bool MatchesProgram(const Program& prog,
                      std::span<const uint64_t> stream) const {
    if (prog.groups.size() == 1 && prog.kmp.empty() &&
        prog.groups[0].pattern_ids.size() > 1) {
      const Group& g = prog.groups[0];
      uint64_t state = 0;
      for (size_t i = 0; i < stream.size(); ++i) {
        state = ((state << 1) | g.initial) &
                g.masks[static_cast<uint8_t>(stream[i])];
        uint64_t fired = state & g.final;
        while (fired != 0) [[unlikely]] {
          const int bit = std::countr_zero(fired);
          fired &= fired - 1;
          const Pattern& p =
              prog.patterns[g.pattern_of_bit[static_cast<size_t>(bit)]];
          if (VerifyAt(p, stream, i + 1 - p.values.size())) return true;
        }
      }
      return false;
    }
    return MatchesProgramSlow(prog, stream);
  }

  bool MatchesProgramSlow(const Program& prog,
                          std::span<const uint64_t> stream) const;

  const SearchQuery* query_;
  size_t sites_ = 1;          // == query_->effective_sites()
  size_t family_groups_ = 1;  // 1 unless per_family
  /// programs_[fg * sites_ + site].
  std::vector<Program> programs_;
};

}  // namespace essdds::core

#endif  // ESSDDS_CORE_BATCH_MATCHER_H_
