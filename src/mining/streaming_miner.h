#ifndef NOUS_MINING_STREAMING_MINER_H_
#define NOUS_MINING_STREAMING_MINER_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/temporal_window.h"
#include "mining/miner_config.h"
#include "mining/quick_pattern_cache.h"
#include "mining/subgraph_enum.h"
#include "mining/vertex_count_table.h"

namespace nous {

/// NOUS's streaming frequent graph miner (§3.5): subscribes to a
/// TemporalWindow and maintains, fully incrementally, the embedding
/// counts and MNI supports of every connected pattern up to max_edges.
///
/// - On arrival, only subsets containing the new edge are enumerated
///   (the new edge always has the maximum id, so each subset is
///   discovered exactly once) — no global re-enumeration. Each subset
///   is matched to its pattern through its quick pattern (Arabesque's
///   two-level aggregation): only the first subset of each distinct
///   quick pattern is canonicalized.
/// - On expiry, the dead embeddings are re-derived rather than stored:
///   the expiring edge is the oldest streamed edge, so the live
///   embeddings containing it are exactly the window's connected
///   subsets containing it whose newest edge the miner was told of.
///   Each is re-enumerated and decremented through its quick pattern,
///   keyed with the vertex types read when it arrived.
/// - Sub-pattern counts are maintained alongside their super-patterns,
///   so when a pattern decays below the support threshold its smaller
///   frequent structure is immediately reportable — the paper's
///   demotion/reconstruction property.
///
/// Frequent and closed-frequent pattern sets are computed on demand
/// from the maintained counts. Baselines (gspan.h, arabesque_sim.h)
/// recompute from scratch per window for the E4 speedup comparison.
///
/// Concurrency: externally synchronized. The miner keeps no internal
/// locks; in KgPipeline it belongs to the mining stage
/// (core/mining_stage.h), whose one running job updates it, and
/// readers see it only once the stage is idle. Standalone users need
/// the same discipline or a single thread.
class StreamingMiner : public WindowListener {
 public:
  explicit StreamingMiner(MinerConfig config);

  // WindowListener:
  void OnEdgeAdded(const TemporalWindow& window, EdgeId edge) override;
  void OnEdgeExpiring(const TemporalWindow& window, EdgeId edge) override;

  /// Patterns with support >= min_support, in SortBySupport order.
  std::vector<PatternStats> FrequentPatterns() const;

  /// Frequent patterns with no frequent strict super-pattern of equal
  /// support.
  std::vector<PatternStats> ClosedFrequentPatterns() const;

  /// Support of one pattern (0 when untracked).
  size_t SupportOf(const Pattern& pattern) const;

  /// Frequency churn since the previous TakeChurn call, each list in
  /// first-seen (pattern id) order.
  struct Churn {
    std::vector<Pattern> became_frequent;
    std::vector<Pattern> became_infrequent;
  };
  Churn TakeChurn();

  size_t num_tracked_patterns() const { return patterns_.size(); }
  /// Distinct quick patterns cached: at most max_edges! per tracked
  /// pattern (one per edge order), never evicted.
  size_t num_quick_patterns() const { return quick_patterns_.size(); }
  size_t num_live_embeddings() const { return live_embeddings_; }
  size_t total_embeddings_created() const { return created_total_; }
  size_t total_embeddings_removed() const { return removed_total_; }
  const MinerConfig& config() const { return config_; }

 private:
  struct PatternEntry {
    Pattern pattern;
    std::vector<VertexCountTable> position_counts;
    size_t embeddings = 0;
  };

  /// A change of a vertex's type as the miner read it: `type` from
  /// the arrival of edge `anchor` on.
  struct Retype {
    EdgeId anchor;
    TypeId type;
  };

  /// Counts a subset that arrived with its newest edge.
  void AddEmbedding(const PropertyGraph& graph,
                    const std::vector<EdgeId>& edges);
  /// Uncounts a live subset: AddEmbedding's updates, reversed.
  void RemoveEmbedding(const PropertyGraph& graph,
                       const std::vector<EdgeId>& edges);
  /// Fills quick_key_ and local_vertices_ (the subset's vertices in
  /// first-appearance order) for `edges`.
  ///
  /// The quick-pattern key is the subset's edge count, its edges in
  /// emission (ascending id) order as (local src, predicate, local dst)
  /// with local vertices numbered by first appearance, then each local
  /// vertex's label (kInvalidType when untyped). Canonicalizer::Run is
  /// a pure function of exactly this — it interns vertices in the same
  /// order and breaks ties among edge orderings, never among concrete
  /// ids — so every subset with the same key has the same pattern and
  /// the same local vertex at each canonical position.
  ///
  /// Labels are the types as of the arrival of the subset's newest
  /// edge: read from the graph (and recorded) when `arriving`, else
  /// looked up in what was recorded then.
  void BuildQuickKey(const PropertyGraph& graph,
                     const std::vector<EdgeId>& edges, bool arriving);
  /// Keys an arriving subset and returns its quick pattern,
  /// canonicalizing (and registering a new pattern) only on a cache
  /// miss.
  const QuickPatternCache::Value& FindQuickPattern(
      const PropertyGraph& graph, const std::vector<EdgeId>& edges);
  /// `v`'s type now, read on the arrival of edge `anchor`; a type that
  /// differs from the previous read is appended to v's retype log.
  TypeId ReadType(const PropertyGraph& graph, VertexId v, EdgeId anchor);
  /// `v`'s type as read on the arrival of edge `anchor`.
  TypeId TypeAsOf(VertexId v, EdgeId anchor) const;
  size_t SupportOfEntry(const PatternEntry& entry) const;
  void PublishGauges() const;

  MinerConfig config_;
  // Cache-miss scratch, and BuildQuickKey's key and local vertices.
  Pattern::Canonicalizer canonicalizer_;
  std::vector<uint32_t> quick_key_;
  std::vector<VertexId> local_vertices_;
  std::vector<PatternEntry> patterns_;
  std::unordered_map<Pattern, uint32_t, PatternHash> pattern_index_;
  QuickPatternCache quick_patterns_;
  // The first streamed edge announced to the miner: subsets with an
  // older newest edge were never counted.
  EdgeId first_stream_edge_ = kInvalidEdge;
  // Per vertex, its type as last read on an arrival (or as of the
  // arrival that first found it in the graph); a vertex read under a
  // new type gets a log in retypes_, from anchor 0 on, in anchor order.
  // Only with use_vertex_types.
  std::vector<TypeId> read_type_;
  std::unordered_map<VertexId, std::vector<Retype>> retypes_;
  std::unordered_set<size_t> last_frequent_;  // pattern ids
  size_t live_embeddings_ = 0;
  size_t created_total_ = 0;
  size_t removed_total_ = 0;
};

}  // namespace nous

#endif  // NOUS_MINING_STREAMING_MINER_H_
