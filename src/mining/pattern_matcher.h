#ifndef NOUS_MINING_PATTERN_MATCHER_H_
#define NOUS_MINING_PATTERN_MATCHER_H_

#include <cstddef>
#include <vector>

#include "graph/temporal_window.h"
#include "mining/pattern.h"

namespace nous {

/// One concrete occurrence of a pattern in a window.
struct PatternMatch {
  /// Graph vertex per pattern variable position.
  std::vector<VertexId> vertices;
  /// Graph edge per pattern edge (same order as Pattern::edges()).
  std::vector<EdgeId> edges;
};

struct MatchOptions {
  /// Require graph vertex types to equal the pattern's vertex labels
  /// (labels of kInvalidType match any vertex).
  bool use_vertex_types = false;
  /// Stop after this many matches (0 = unlimited).
  size_t limit = 0;
  /// Reject matches that reuse a graph edge for two pattern edges
  /// (vertex reuse across distinct variables is always rejected).
  bool distinct_edges = true;
  /// Incremental-detection hooks: when pin_pattern_edge >= 0, that
  /// pattern edge may only bind to graph edge `pin_edge`, and every
  /// OTHER pattern edge may only bind to graph edges with id strictly
  /// below `max_edge_id` (when != kInvalidEdge). Together these
  /// restrict the search to matches completed by a newly arrived edge.
  int pin_pattern_edge = -1;
  EdgeId pin_edge = kInvalidEdge;
  EdgeId max_edge_id = kInvalidEdge;
};

/// Finds embeddings of `pattern` among the window's edges by
/// backtracking search, seeding from the pattern edge whose predicate
/// is rarest in the window — the selectivity-based ordering of the
/// authors' continuous pattern detection line of work (Choudhury et
/// al., EDBT 2015, cited as [4]). Complete up to `limit`. To match on
/// a whole graph, wrap it in a window that pins all of its edges.
std::vector<PatternMatch> MatchPattern(const TemporalWindow& window,
                                       const Pattern& pattern,
                                       const MatchOptions& options = {});

}  // namespace nous

#endif  // NOUS_MINING_PATTERN_MATCHER_H_
