#include "mining/continuous_query.h"

#include <algorithm>
#include <set>

namespace nous {

ContinuousPatternDetector::ContinuousPatternDetector(bool use_vertex_types)
    : use_vertex_types_(use_vertex_types) {}

int ContinuousPatternDetector::RegisterPattern(Pattern pattern,
                                               Callback callback) {
  Registered reg;
  reg.pattern = std::move(pattern);
  reg.callback = std::move(callback);
  queries_.push_back(std::move(reg));
  return static_cast<int>(queries_.size()) - 1;
}

void ContinuousPatternDetector::OnEdgeAdded(const TemporalWindow& window,
                                            EdgeId edge) {
  const EdgeRecord& rec = window.Edge(edge);
  for (size_t q = 0; q < queries_.size(); ++q) {
    Registered& reg = queries_[q];
    // Automorphic assignments over the same edge set fire once.
    std::set<std::vector<EdgeId>> seen_edge_sets;
    for (size_t k = 0; k < reg.pattern.edges().size(); ++k) {
      if (reg.pattern.edges()[k].pred != rec.predicate) continue;
      MatchOptions options;
      options.use_vertex_types = use_vertex_types_;
      options.pin_pattern_edge = static_cast<int>(k);
      options.pin_edge = edge;
      options.max_edge_id = edge;  // other edges strictly older
      for (PatternMatch& match :
           MatchPattern(window, reg.pattern, options)) {
        std::vector<EdgeId> sorted = match.edges;
        std::sort(sorted.begin(), sorted.end());
        if (!seen_edge_sets.insert(sorted).second) continue;
        ++reg.total;
        size_t slot;
        if (!free_slots_.empty()) {
          slot = free_slots_.back();
          free_slots_.pop_back();
        } else {
          slot = active_.size();
          active_.emplace_back();
        }
        Active& active = active_[slot];
        active.query_id = static_cast<int>(q);
        active.match = match;
        active.alive = true;
        for (EdgeId e : match.edges) edge_index_[e].push_back(slot);
        if (reg.callback) {
          ContinuousMatch event;
          event.query_id = static_cast<int>(q);
          event.match = std::move(match);
          event.completed_at = rec.meta.timestamp;
          reg.callback(event);
        }
      }
    }
  }
}

void ContinuousPatternDetector::OnEdgeExpiring(
    const TemporalWindow& /*window*/, EdgeId edge) {
  auto it = edge_index_.find(edge);
  if (it == edge_index_.end()) return;
  std::vector<size_t> slots = std::move(it->second);
  edge_index_.erase(it);
  for (size_t slot : slots) {
    Active& active = active_[slot];
    if (!active.alive) continue;
    for (EdgeId e : active.match.edges) {
      if (e == edge) continue;
      auto jt = edge_index_.find(e);
      if (jt == edge_index_.end()) continue;
      auto& list = jt->second;
      list.erase(std::remove(list.begin(), list.end(), slot),
                 list.end());
    }
    active.alive = false;
    active.match.edges.clear();
    active.match.vertices.clear();
    free_slots_.push_back(slot);
  }
}

std::vector<PatternMatch> ContinuousPatternDetector::ActiveMatches(
    int query_id) const {
  std::vector<PatternMatch> matches;
  for (const Active& active : active_) {
    if (active.alive && active.query_id == query_id) {
      matches.push_back(active.match);
    }
  }
  return matches;
}

size_t ContinuousPatternDetector::NumActiveMatches(int query_id) const {
  size_t count = 0;
  for (const Active& active : active_) {
    if (active.alive && active.query_id == query_id) ++count;
  }
  return count;
}

size_t ContinuousPatternDetector::TotalMatches(int query_id) const {
  if (query_id < 0 || static_cast<size_t>(query_id) >= queries_.size()) {
    return 0;
  }
  return queries_[static_cast<size_t>(query_id)].total;
}

}  // namespace nous
