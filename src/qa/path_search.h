#ifndef NOUS_QA_PATH_SEARCH_H_
#define NOUS_QA_PATH_SEARCH_H_

#include <vector>

#include "graph/property_graph.h"

namespace nous {

/// One explanation path between a source and a target entity, with the
/// provenance needed to show answers composed from multiple sources
/// (§1 contribution 3).
struct PathResult {
  std::vector<VertexId> vertices;  // source ... target
  std::vector<EdgeId> edges;       // vertices.size() - 1 entries
  /// Mean JS divergence between consecutive vertices' topic
  /// distributions; lower = more coherent.
  double coherence = 0.0;
  /// Distinct source ids across the path's edges.
  std::vector<SourceId> sources;
};

struct PathSearchConfig {
  size_t top_k = 5;
  size_t beam_width = 8;
  size_t max_hops = 4;
  /// Weight of the one-hop look-ahead term when ranking successors.
  double lookahead_weight = 0.5;
  /// Disable to ablate topic guidance (expansion order becomes
  /// arbitrary/BFS-like while scoring is unchanged).
  bool use_topic_guidance = true;
  /// Cap on successor edges considered per expansion (hub guard).
  size_t max_expansion = 64;
  /// Edges below this confidence are not traversed — explanations from
  /// trustworthy facts only.
  double min_edge_confidence = 0.0;
  /// When true, the relationship constraint is satisfied by ANY edge
  /// on the path rather than the final hop.
  bool constraint_anywhere = false;
};

/// Computes the coherence of a vertex sequence: mean JS divergence of
/// consecutive topic distributions (ln 2 for missing topics).
double ComputePathCoherence(const PropertyGraph& graph,
                            const std::vector<VertexId>& vertices);

/// NOUS's coherent path search (§3.6): beam search from source toward
/// target over the KG (edges traversable in both directions), guided
/// at every hop by the successor's topic divergence to the target
/// plus a one-step look-ahead, honoring an optional relationship
/// constraint on the path's final edge. Returns up to top_k complete
/// paths sorted by ascending coherence, ties broken lexicographically
/// by (vertices, edges) so top-k truncation is identical on every
/// platform.
class PathSearch {
 public:
  /// `graph` must outlive the searcher; vertices should already carry
  /// topic distributions (topic/doc_term.h FitVertexTopics).
  explicit PathSearch(const PropertyGraph* graph,
                      PathSearchConfig config = {})
      : graph_(graph), config_(config) {}

  std::vector<PathResult> FindPaths(
      VertexId source, VertexId target,
      PredicateId relationship = kInvalidPredicate) const;

 private:
  struct PartialPath {
    std::vector<VertexId> vertices;
    std::vector<EdgeId> edges;
    double guide_score = 0.0;  // lower = expand first
  };

  const PropertyGraph* graph_;
  PathSearchConfig config_;
};

}  // namespace nous

#endif  // NOUS_QA_PATH_SEARCH_H_
