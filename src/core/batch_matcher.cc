#include "core/batch_matcher.h"

#include <algorithm>

#include "core/matcher.h"

namespace essdds::core {

BatchMatcher::BatchMatcher(const SearchQuery* query) : query_(query) {
  ESSDDS_CHECK(query != nullptr);
  sites_ = query_->effective_sites();
  // The clamp routes a zero-site query to the undispersed `chunks` stream,
  // as SearchQuery::PatternFor does; wire queries additionally have
  // dispersal_sites >= 1 enforced at Deserialize.
  ESSDDS_DCHECK(sites_ == (query_->dispersal_sites > 1
                               ? query_->dispersal_sites
                               : 1));
  if (query_->per_family) {
    family_groups_ = query_->family_series.empty()
                         ? 1
                         : query_->family_series.size();
  } else {
    family_groups_ = 1;
  }
  programs_.reserve(family_groups_ * sites_);
  static const std::vector<QuerySeries> kNoSeries;
  for (size_t fg = 0; fg < family_groups_; ++fg) {
    const std::vector<QuerySeries>& list =
        !query_->per_family ? query_->series
        : fg < query_->family_series.size() ? query_->family_series[fg]
                                            : kNoSeries;
    for (uint32_t d = 0; d < sites_; ++d) {
      programs_.push_back(
          CompileProgram(*query_, list, static_cast<uint32_t>(d)));
    }
  }
}

BatchMatcher::Program BatchMatcher::CompileProgram(
    const SearchQuery& q, const std::vector<QuerySeries>& list,
    uint32_t site) {
  Program prog;
  prog.patterns.reserve(list.size());
  for (const QuerySeries& s : list) {
    const std::vector<uint64_t>& values = q.PatternFor(s, site);
    if (values.empty()) continue;  // empty patterns never match
    Pattern p;
    p.alignment = s.alignment;
    p.values = std::span<const uint64_t>(values);
    prog.patterns.push_back(std::move(p));
  }
  prog.min_len = SIZE_MAX;
  for (const Pattern& p : prog.patterns) {
    prog.min_len = std::min(prog.min_len, p.values.size());
  }
  // Pack word-sized patterns greedily into Shift-And groups: first-fit in
  // pattern order, a group closes when the next pattern would not fit its
  // remaining bits. Longer patterns run scalar KMP.
  size_t used = 64;  // bits consumed in the currently open group
  for (uint32_t id = 0; id < prog.patterns.size(); ++id) {
    Pattern& p = prog.patterns[id];
    const size_t len = p.values.size();
    if (len > 64) {
      p.fail = KmpFailureTable(p.values);
      prog.kmp.push_back(id);
      continue;
    }
    if (used + len > 64) {
      prog.groups.emplace_back();
      used = 0;
    }
    Group& g = prog.groups.back();
    g.initial |= uint64_t{1} << used;
    g.final |= uint64_t{1} << (used + len - 1);
    g.pattern_of_bit[used + len - 1] = id;
    g.pattern_ids.push_back(id);
    for (size_t c = 0; c < len; ++c) {
      g.masks[static_cast<uint8_t>(p.values[c])] |= uint64_t{1} << (used + c);
    }
    used += len;
  }
  return prog;
}

bool BatchMatcher::MatchesProgramSlow(const Program& prog,
                                      std::span<const uint64_t> stream) const {
  for (const Group& g : prog.groups) {
    if (g.pattern_ids.size() == 1) {
      bool hit = false;
      ScanLiteral(prog.patterns[g.pattern_ids[0]], stream, [&](size_t) {
        hit = true;
        return false;  // first occurrence settles a Matches query
      });
      if (hit) return true;
      continue;
    }
    bool hit = false;
    RunGroup(prog, g, stream, [&](const Pattern&, size_t) {
      hit = true;
      return false;
    });
    if (hit) return true;
  }
  for (uint32_t id : prog.kmp) {
    const Pattern& p = prog.patterns[id];
    if (KmpContains(stream, p.values, p.fail)) return true;
  }
  return false;
}

}  // namespace essdds::core
