#include "mining/pattern_matcher.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "common/logging.h"

namespace nous {

namespace {

/// Search plan: pattern edge indices reordered so the first edge has
/// the rarest predicate and every subsequent edge touches an already
/// bound variable.
std::vector<size_t> PlanOrder(const TemporalWindow& window,
                              const Pattern& pattern,
                              int pin_pattern_edge) {
  std::unordered_map<PredicateId, size_t> frequency;
  window.ForEachEdge([&frequency](EdgeId, const EdgeRecord& rec) {
    ++frequency[rec.predicate];
  });
  auto freq_of = [&frequency](PredicateId p) -> size_t {
    auto it = frequency.find(p);
    return it == frequency.end() ? 0 : it->second;
  };
  const auto& edges = pattern.edges();
  std::vector<size_t> order;
  std::vector<bool> used(edges.size(), false);
  std::vector<bool> bound(pattern.num_vertices(), false);
  // A pinned edge is fully determined; start there.
  if (pin_pattern_edge >= 0) {
    size_t pin = static_cast<size_t>(pin_pattern_edge);
    NOUS_CHECK(pin < edges.size());
    used[pin] = true;
    bound[edges[pin].src] = true;
    bound[edges[pin].dst] = true;
    order.push_back(pin);
  }
  while (order.size() < edges.size()) {
    size_t best = edges.size();
    for (size_t i = 0; i < edges.size(); ++i) {
      if (used[i]) continue;
      bool connected = order.empty() || bound[edges[i].src] ||
                       bound[edges[i].dst];
      if (!connected) continue;
      if (best == edges.size() ||
          freq_of(edges[i].pred) < freq_of(edges[best].pred)) {
        best = i;
      }
    }
    NOUS_CHECK(best < edges.size()) << "pattern is not connected";
    used[best] = true;
    bound[edges[best].src] = true;
    bound[edges[best].dst] = true;
    order.push_back(best);
  }
  return order;
}

class Matcher {
 public:
  Matcher(const TemporalWindow& window, const Pattern& pattern,
          const MatchOptions& options)
      : window_(window),
        pattern_(pattern),
        options_(options),
        order_(PlanOrder(window, pattern, options.pin_pattern_edge)),
        assignment_(pattern.num_vertices(), kInvalidVertex),
        match_edges_(pattern.num_edges(), kInvalidEdge) {}

  std::vector<PatternMatch> Run() {
    if (pattern_.num_edges() > 0) Extend(0);
    return std::move(matches_);
  }

 private:
  bool Done() const {
    return options_.limit != 0 && matches_.size() >= options_.limit;
  }

  bool VertexOk(int var, VertexId v) const {
    TypeId label = pattern_.vertex_labels()[var];
    if (options_.use_vertex_types && label != kInvalidType &&
        window_.graph().VertexType(v) != label) {
      return false;
    }
    // Injectivity across variables.
    for (size_t other = 0; other < assignment_.size(); ++other) {
      if (static_cast<int>(other) != var && assignment_[other] == v) {
        return false;
      }
    }
    return true;
  }

  bool EdgeUsed(EdgeId e) const {
    if (!options_.distinct_edges) return false;
    return std::find(match_edges_.begin(), match_edges_.end(), e) !=
           match_edges_.end();
  }

  /// Candidate filter for non-pinned pattern edges.
  bool CandidateOk(EdgeId e) const {
    if (EdgeUsed(e)) return false;
    if (options_.max_edge_id != kInvalidEdge &&
        e >= options_.max_edge_id) {
      return false;
    }
    return true;
  }

  void TryBindAndRecurse(size_t step, EdgeId edge, VertexId subject,
                         VertexId object) {
    const PatternEdge& pe = pattern_.edges()[order_[step]];
    VertexId old_s = assignment_[pe.src];
    VertexId old_d = assignment_[pe.dst];
    if (old_s == kInvalidVertex) {
      if (!VertexOk(pe.src, subject)) return;
      assignment_[pe.src] = subject;
    } else if (old_s != subject) {
      return;
    }
    if (assignment_[pe.dst] == kInvalidVertex) {
      if (!VertexOk(pe.dst, object)) {
        assignment_[pe.src] = old_s;
        return;
      }
      assignment_[pe.dst] = object;
    } else if (assignment_[pe.dst] != object) {
      assignment_[pe.src] = old_s;
      return;
    }
    match_edges_[order_[step]] = edge;
    Extend(step + 1);
    match_edges_[order_[step]] = kInvalidEdge;
    assignment_[pe.src] = old_s;
    assignment_[pe.dst] = old_d;
  }

  void Extend(size_t step) {
    if (Done()) return;
    if (step == order_.size()) {
      PatternMatch match;
      match.vertices = assignment_;
      match.edges = match_edges_;
      matches_.push_back(std::move(match));
      return;
    }
    const PatternEdge& pe = pattern_.edges()[order_[step]];
    // Pinned edge: exactly one candidate.
    if (options_.pin_pattern_edge >= 0 &&
        order_[step] == static_cast<size_t>(options_.pin_pattern_edge)) {
      if (!window_.Contains(options_.pin_edge)) return;
      const EdgeRecord& rec = window_.Edge(options_.pin_edge);
      if (rec.predicate == pe.pred) {
        TryBindAndRecurse(step, options_.pin_edge, rec.subject,
                          rec.object);
      }
      return;
    }
    const PropertyGraph& graph = window_.graph();
    VertexId bound_s = assignment_[pe.src];
    VertexId bound_d = assignment_[pe.dst];
    if (bound_s != kInvalidVertex) {
      window_.ForEachInWindow(graph.OutEdges(bound_s), [&](const AdjEntry& a) {
        if (Done() || a.predicate != pe.pred || !CandidateOk(a.edge)) return;
        TryBindAndRecurse(step, a.edge, bound_s, a.neighbor);
      });
    } else if (bound_d != kInvalidVertex) {
      window_.ForEachInWindow(graph.InEdges(bound_d), [&](const AdjEntry& a) {
        if (Done() || a.predicate != pe.pred || !CandidateOk(a.edge)) return;
        TryBindAndRecurse(step, a.edge, a.neighbor, bound_d);
      });
    } else {
      // Seed edge: scan all in-window edges with the predicate.
      window_.ForEachEdge([&](EdgeId e, const EdgeRecord& rec) {
        if (Done()) return;
        if (rec.predicate != pe.pred || !CandidateOk(e)) return;
        TryBindAndRecurse(step, e, rec.subject, rec.object);
      });
    }
  }

  const TemporalWindow& window_;
  const Pattern& pattern_;
  const MatchOptions& options_;
  std::vector<size_t> order_;
  std::vector<VertexId> assignment_;
  std::vector<EdgeId> match_edges_;
  std::vector<PatternMatch> matches_;
};

}  // namespace

std::vector<PatternMatch> MatchPattern(const TemporalWindow& window,
                                       const Pattern& pattern,
                                       const MatchOptions& options) {
  if (pattern.num_edges() == 0) return {};
  return Matcher(window, pattern, options).Run();
}

}  // namespace nous
