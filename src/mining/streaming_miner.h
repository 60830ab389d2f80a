#ifndef NOUS_MINING_STREAMING_MINER_H_
#define NOUS_MINING_STREAMING_MINER_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/temporal_window.h"
#include "mining/miner_config.h"
#include "mining/subgraph_enum.h"

namespace nous {

/// NOUS's streaming frequent graph miner (§3.5): subscribes to a
/// TemporalWindow and maintains, fully incrementally, the embeddings
/// and MNI supports of every connected pattern up to max_edges.
///
/// - On arrival, only subsets containing the new edge are enumerated
///   (the new edge always has the maximum id, so each subset is
///   discovered exactly once) — no global re-enumeration.
/// - On expiry, a per-edge inverted index removes exactly the dead
///   embeddings and decrements their pattern counts.
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
/// locks; KgPipeline owns it behind `kg_mutex()` (`miner_` is
/// GUARDED_BY in pipeline.h) — updates arrive under the exclusive
/// side, reads (FrequentPatterns, query serving) under the shared
/// side. Standalone users need the same discipline or a single
/// thread.
class StreamingMiner : public WindowListener {
 public:
  explicit StreamingMiner(MinerConfig config);

  // WindowListener:
  void OnEdgeAdded(const PropertyGraph& graph, EdgeId edge) override;
  void OnEdgeExpiring(const PropertyGraph& graph, EdgeId edge) override;

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

  /// Monotonic counter bumped by every window event the miner
  /// observes. Equal generations guarantee the pattern set (and its
  /// rendering) is unchanged, so snapshot publish can reuse the
  /// previous RenderedPatternSet instead of re-stringifying every
  /// closed frequent pattern.
  uint64_t generation() const { return generation_; }

  size_t num_tracked_patterns() const { return patterns_.size(); }
  size_t num_live_embeddings() const { return live_embeddings_; }
  /// Embedding slots allocated, live plus free.
  size_t num_embedding_slots() const { return slot_pattern_.size(); }
  size_t total_embeddings_created() const { return created_total_; }
  size_t total_embeddings_removed() const { return removed_total_; }
  const MinerConfig& config() const { return config_; }

 private:
  struct PatternEntry {
    Pattern pattern;
    std::vector<std::unordered_map<VertexId, uint32_t>> position_counts;
    size_t embeddings = 0;
  };

  /// slot_pattern_ value of a slot on the free list.
  static constexpr uint32_t kFreeSlot = std::numeric_limits<uint32_t>::max();

  void AddEmbedding(const PropertyGraph& graph,
                    const std::vector<EdgeId>& edges);
  void RemoveEmbedding(uint32_t embedding_id);
  size_t SupportOfEntry(const PatternEntry& entry) const;
  void PublishGauges() const;

  MinerConfig config_;
  Pattern::Canonicalizer canonicalizer_;  // AddEmbedding's scratch
  std::vector<PatternEntry> patterns_;
  std::unordered_map<Pattern, uint32_t, PatternHash> pattern_index_;
  // Embeddings live in flat slot pools indexed by embedding id: slot i
  // holds pattern slot_pattern_[i] (kFreeSlot when free), its
  // slot_num_edges_[i] edges at slot_edges_[i * max_edges] and its
  // slot_num_vertices_[i] vertex assignment (one graph vertex per
  // pattern position) at slot_vertices_[i * (max_edges + 1)].
  std::vector<uint32_t> slot_pattern_;
  std::vector<uint8_t> slot_num_edges_;
  std::vector<uint8_t> slot_num_vertices_;
  std::vector<EdgeId> slot_edges_;
  std::vector<VertexId> slot_vertices_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<EdgeId, std::vector<uint32_t>> edge_index_;
  std::unordered_set<size_t> last_frequent_;  // pattern ids
  uint64_t generation_ = 0;
  size_t live_embeddings_ = 0;
  size_t created_total_ = 0;
  size_t removed_total_ = 0;
};

}  // namespace nous

#endif  // NOUS_MINING_STREAMING_MINER_H_
