#ifndef NOUS_MINING_STREAMING_MINER_H_
#define NOUS_MINING_STREAMING_MINER_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
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
/// TemporalWindow and maintains, fully incrementally, the embeddings
/// and MNI supports of every connected pattern up to max_edges.
///
/// - On arrival, only subsets containing the new edge are enumerated
///   (the new edge always has the maximum id, so each subset is
///   discovered exactly once) — no global re-enumeration. Each subset
///   is matched to its pattern through its quick pattern (Arabesque's
///   two-level aggregation): only the first subset of each distinct
///   quick pattern is canonicalized.
/// - On expiry, a per-edge inverted index removes exactly the dead
///   embeddings and decrements their pattern counts, each in O(1)
///   through the slot's back-pointers into the index.
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

  /// Monotonic counter bumped by every window event the miner
  /// observes. Equal generations guarantee the pattern set (and its
  /// rendering) is unchanged, so snapshot publish can reuse the
  /// previous RenderedPatternSet instead of re-stringifying every
  /// closed frequent pattern.
  uint64_t generation() const { return generation_; }

  size_t num_tracked_patterns() const { return patterns_.size(); }
  /// Distinct quick patterns cached: at most max_edges! per tracked
  /// pattern (one per edge order), never evicted.
  size_t num_quick_patterns() const { return quick_patterns_.size(); }
  size_t num_live_embeddings() const { return live_embeddings_; }
  /// Embedding slots allocated, live plus free.
  size_t num_embedding_slots() const { return num_slots_; }
  size_t total_embeddings_created() const { return created_total_; }
  size_t total_embeddings_removed() const { return removed_total_; }
  const MinerConfig& config() const { return config_; }

 private:
  struct PatternEntry {
    Pattern pattern;
    std::vector<VertexCountTable> position_counts;
    size_t embeddings = 0;
  };

  /// Pattern word of a slot on the free list.
  static constexpr uint32_t kFreeSlot = std::numeric_limits<uint32_t>::max();
  /// Slot records per pool chunk (128 KiB at max_edges 2).
  static constexpr size_t kSlotsPerChunk = 4096;

  /// Slot record `id`: its pattern id word, then max_edges edge ids,
  /// then per edge the slot's position in that edge's IndexList, then
  /// max_edges + 1 vertex ids (the graph vertex at each pattern
  /// position). The pattern says how many of each are in use.
  uint32_t* Slot(uint32_t id) {
    return slot_chunks_[id / kSlotsPerChunk].get() +
           (id % kSlotsPerChunk) * slot_words_;
  }
  EdgeId* SlotEdges(uint32_t* slot) const { return slot + 1; }
  uint32_t* SlotListPos(uint32_t* slot) const {
    return slot + 1 + config_.max_edges;
  }
  VertexId* SlotVertices(uint32_t* slot) const {
    return slot + 1 + 2 * config_.max_edges;
  }

  void AddEmbedding(const PropertyGraph& graph,
                    const std::vector<EdgeId>& edges);
  /// Fills local_vertices_ with the subset's vertices in first-
  /// appearance order and returns its quick pattern, canonicalizing
  /// (and registering a new pattern) only on a cache miss.
  ///
  /// The quick-pattern key is the subset's edge count, its edges in
  /// emission order as (local src, predicate, local dst) with local
  /// vertices numbered by first appearance, then each local vertex's
  /// label (kInvalidType when untyped). Canonicalizer::Run is a pure
  /// function of exactly this — it interns vertices in the same order
  /// and breaks ties among edge orderings, never among concrete ids —
  /// so every subset with the same key has the same pattern and the
  /// same local vertex at each canonical position.
  const QuickPatternCache::Value& FindQuickPattern(
      const PropertyGraph& graph, const std::vector<EdgeId>& edges);
  /// Frees the slot and unlinks it from the index list of each of its
  /// edges except `draining_edge`, whose list the caller is consuming.
  void RemoveEmbedding(uint32_t embedding_id, EdgeId draining_edge);
  /// Live embedding ids of in-window edge `e`.
  std::vector<uint32_t>& IndexList(EdgeId e) {
    return e < pinned_index_.size() ? pinned_index_[e]
                                    : stream_index_[e - stream_index_base_];
  }
  size_t SupportOfEntry(const PatternEntry& entry) const;
  void PublishGauges() const;

  MinerConfig config_;
  // Cache-miss scratch, and FindQuickPattern's key and local vertices.
  Pattern::Canonicalizer canonicalizer_;
  std::vector<uint32_t> quick_key_;
  std::vector<VertexId> local_vertices_;
  std::vector<PatternEntry> patterns_;
  std::unordered_map<Pattern, uint32_t, PatternHash> pattern_index_;
  QuickPatternCache quick_patterns_;
  // Embeddings live in a pool of slot records (see Slot()) indexed by
  // embedding id: one record per embedding keeps an add or a removal to
  // one or two cache lines of slot data. The pool grows a chunk at a
  // time, so it never copies itself or holds twice its size mid-growth.
  size_t slot_words_;
  size_t num_slots_ = 0;
  std::vector<std::unique_ptr<uint32_t[]>> slot_chunks_;
  std::vector<uint32_t> free_slots_;
  // Live embedding ids per in-window edge (see IndexList): one list
  // per pinned edge, then one per streamed edge from stream_index_base_
  // on. Expiry pops the oldest, so only window edges have a list.
  std::vector<std::vector<uint32_t>> pinned_index_;
  std::deque<std::vector<uint32_t>> stream_index_;
  EdgeId stream_index_base_ = 0;
  std::unordered_set<size_t> last_frequent_;  // pattern ids
  uint64_t generation_ = 0;
  size_t live_embeddings_ = 0;
  size_t created_total_ = 0;
  size_t removed_total_ = 0;
};

}  // namespace nous

#endif  // NOUS_MINING_STREAMING_MINER_H_
