#ifndef NOUS_MINING_SUBGRAPH_ENUM_H_
#define NOUS_MINING_SUBGRAPH_ENUM_H_

#include <functional>
#include <vector>

#include "graph/temporal_window.h"
#include "mining/miner_config.h"

namespace nous {

/// Enumerates every connected subset of in-window edges of size in [1,
/// max_edges] containing `anchor`, optionally restricted to edges with
/// id < anchor. The callback receives each subset once (sorted edge
/// ids). Returns the number of subsets visited (callback count).
///
/// Cost is linear in the adjacency scanned: candidate extensions are
/// deduplicated with per-thread epoch marks indexed by window position
/// (O(window) scratch, reused across calls), and only subsets of three
/// or more edges — the only ones reachable along two growth orders — go
/// through a seen-set. Emission order is fixed (depth-first, each
/// subset's extensions in window adjacency order of its members in
/// growth order). Pattern ids, and so TakeChurn's list order, follow
/// it; SortBySupport's result order does not.
///
/// The `older_only` restriction gives exactly-once global enumeration:
/// every connected subset has a unique maximum edge id, so enumerating
/// per-anchor over all edges (or per arriving edge in the streaming
/// miner, where the new edge is always the maximum) covers each subset
/// exactly once.
size_t EnumerateConnectedSubsets(
    const TemporalWindow& window, EdgeId anchor, const MinerConfig& config,
    bool older_only,
    const std::function<void(const std::vector<EdgeId>&)>& fn);

/// Accumulates embeddings into per-pattern MNI support counts; shared
/// by the re-enumeration baselines.
class SupportCounter {
 public:
  SupportCounter(const PropertyGraph* graph, bool use_vertex_types);

  void AddEmbedding(const std::vector<EdgeId>& edges);

  /// Folds another counter's per-pattern counts into this one (used to
  /// combine per-worker counters after a parallel enumeration).
  void Merge(const SupportCounter& other);

  /// Patterns meeting `min_support`, in SortBySupport order.
  std::vector<PatternStats> Results(size_t min_support) const;

  size_t num_patterns() const { return entries_.size(); }
  size_t total_embeddings() const { return total_embeddings_; }

 private:
  struct Entry {
    Pattern pattern;
    std::vector<std::unordered_map<VertexId, uint32_t>> position_counts;
    size_t embeddings = 0;
  };

  const PropertyGraph* graph_;
  bool use_vertex_types_;
  Pattern::Canonicalizer canonicalizer_;
  std::vector<Entry> entries_;
  std::unordered_map<Pattern, size_t, PatternHash> index_;
  size_t total_embeddings_ = 0;
};

/// Canonicalizes a concrete edge set from the graph into
/// `canonicalizer`: its pattern() is the canonical pattern and its
/// position_to_vertex() the graph vertex per canonical position.
void CanonicalizeEdgeSet(const PropertyGraph& graph,
                         const std::vector<EdgeId>& edges,
                         bool use_vertex_types,
                         Pattern::Canonicalizer* canonicalizer);

}  // namespace nous

#endif  // NOUS_MINING_SUBGRAPH_ENUM_H_
