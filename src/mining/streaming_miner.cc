#include "mining/streaming_miner.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "obs/metrics.h"

namespace nous {

namespace {

struct MinerMetrics {
  Counter* patterns_emitted;
  Counter* patterns_demoted;
  Counter* subsets_enumerated;
  Gauge* tracked_patterns;
  Gauge* quick_patterns;
  Gauge* live_embeddings;
  Gauge* embedding_slots;
  Gauge* pool_bytes;
};

const MinerMetrics& Metrics() {
  static MinerMetrics metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    MinerMetrics m;
    m.patterns_emitted = r.GetCounter(
        "nous_mining_patterns_emitted_total",
        "Patterns that crossed min_support upward");
    m.patterns_demoted = r.GetCounter(
        "nous_mining_patterns_demoted_total",
        "Patterns that decayed below min_support");
    m.subsets_enumerated = r.GetCounter(
        "nous_mining_subsets_enumerated_total",
        "Connected edge subsets enumerated for arriving edges");
    m.tracked_patterns = r.GetGauge("nous_mining_tracked_patterns",
                                    "Distinct patterns under maintenance");
    m.quick_patterns = r.GetGauge(
        "nous_mining_quick_patterns",
        "Distinct quick patterns (edge order and labels) cached");
    m.live_embeddings = r.GetGauge("nous_mining_live_embeddings",
                                   "Live embeddings across all patterns");
    m.embedding_slots = r.GetGauge(
        "nous_mining_embedding_slots",
        "Embedding slots allocated (live plus free)");
    m.pool_bytes = r.GetGauge(
        "nous_mining_pool_bytes",
        "Capacity bytes of the embedding slot pools and free list");
    return m;
  }();
  return metrics;
}

template <typename T>
size_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

static_assert(sizeof(EdgeId) == sizeof(uint32_t) &&
              sizeof(VertexId) == sizeof(uint32_t));

StreamingMiner::StreamingMiner(MinerConfig config)
    : config_(config),
      // Edge count, 3 words per edge, one label per vertex.
      quick_key_(4 * config_.max_edges + 2),
      quick_patterns_(quick_key_.size()),
      slot_words_(3 * config_.max_edges + 2) {
  // Quick patterns index local vertices with u8; a connected pattern of
  // k edges has at most k + 1 vertices.
  NOUS_CHECK(config_.max_edges < std::numeric_limits<uint8_t>::max())
      << "max_edges " << config_.max_edges
      << " does not fit the quick patterns' u8 vertex indices";
}

void StreamingMiner::OnEdgeAdded(const TemporalWindow& window,
                                 EdgeId edge) {
  ++generation_;
  // Every pinned edge gets a list, announced to the miner or not: an
  // unannounced one still extends the subsets of later edges.
  if (pinned_index_.size() < window.num_pinned()) {
    pinned_index_.resize(window.num_pinned());
  }
  if (edge >= window.num_pinned()) {
    // Lists from the window's oldest streamed edge on: a miner attached
    // mid-stream also indexes embeddings of edges it was not told of.
    if (stream_index_.empty()) stream_index_base_ = window.stream_begin();
    stream_index_.resize(edge + 1 - stream_index_base_);
  }
  const PropertyGraph& graph = window.graph();
  // Every connected subset containing the new edge; all other edges in
  // the window are older (smaller ids), so older_only enumeration
  // discovers each subset exactly once across the stream.
  size_t subsets = EnumerateConnectedSubsets(
      window, edge, config_, /*older_only=*/true,
      [this, &graph](const std::vector<EdgeId>& subset) {
        AddEmbedding(graph, subset);
      });
  Metrics().subsets_enumerated->Increment(subsets);
  PublishGauges();
}

void StreamingMiner::OnEdgeExpiring(const TemporalWindow& /*window*/,
                                    EdgeId edge) {
  ++generation_;
  // Streamed edges expire oldest first; one that left before the miner
  // saw any edge has no list.
  if (stream_index_.empty() || edge != stream_index_base_) return;
  // Moving the list out releases its storage; RemoveEmbedding unlinks
  // each embedding from its other edges' lists only.
  std::vector<uint32_t> ids = std::move(stream_index_.front());
  stream_index_.pop_front();
  ++stream_index_base_;
  // The slots are scattered over the pool: fetch a few ahead.
  constexpr size_t kPrefetchAhead = 8;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i + kPrefetchAhead < ids.size()) {
      __builtin_prefetch(Slot(ids[i + kPrefetchAhead]));
    }
    RemoveEmbedding(ids[i], edge);
  }
  PublishGauges();
}

void StreamingMiner::PublishGauges() const {
  const MinerMetrics& m = Metrics();
  m.tracked_patterns->Set(static_cast<double>(patterns_.size()));
  m.quick_patterns->Set(static_cast<double>(quick_patterns_.size()));
  m.live_embeddings->Set(static_cast<double>(live_embeddings_));
  m.embedding_slots->Set(static_cast<double>(num_embedding_slots()));
  m.pool_bytes->Set(static_cast<double>(
      slot_chunks_.size() * kSlotsPerChunk * slot_words_ * sizeof(uint32_t) +
      CapacityBytes(free_slots_)));
}

const QuickPatternCache::Value& StreamingMiner::FindQuickPattern(
    const PropertyGraph& graph, const std::vector<EdgeId>& edges) {
  // Vertices are numbered as Canonicalizer::Add interns them.
  local_vertices_.clear();
  auto local = [this](VertexId v) {
    for (uint32_t i = 0; i < local_vertices_.size(); ++i) {
      if (local_vertices_[i] == v) return i;
    }
    local_vertices_.push_back(v);
    return static_cast<uint32_t>(local_vertices_.size() - 1);
  };
  uint32_t* key = quick_key_.data();
  std::fill(quick_key_.begin(), quick_key_.end(), 0);
  *key++ = static_cast<uint32_t>(edges.size());
  for (EdgeId e : edges) {
    const EdgeRecord& rec = graph.Edge(e);
    *key++ = local(rec.subject);
    *key++ = rec.predicate;
    *key++ = local(rec.object);
  }
  for (VertexId v : local_vertices_) {
    *key++ = config_.use_vertex_types ? graph.VertexType(v) : kInvalidType;
  }
  const QuickPatternCache::Value* cached =
      quick_patterns_.Find(quick_key_.data());
  if (cached != nullptr) return *cached;

  CanonicalizeEdgeSet(graph, edges, config_.use_vertex_types,
                      &canonicalizer_);
  const Pattern& p = canonicalizer_.pattern();
  // try_emplace copies the key only when the pattern is new.
  auto [it, inserted] = pattern_index_.try_emplace(
      p, static_cast<uint32_t>(patterns_.size()));
  if (inserted) {
    PatternEntry entry;
    entry.pattern = p;
    entry.position_counts.resize(p.num_vertices());
    patterns_.push_back(std::move(entry));
  }
  QuickPatternCache::Value quick;
  quick.pattern_id = it->second;
  const size_t num_local = local_vertices_.size();
  for (uint64_t v : canonicalizer_.position_to_vertex()) {
    uint32_t i = local(static_cast<VertexId>(v));
    NOUS_CHECK(i < num_local);
    quick.local_vertex.push_back(static_cast<uint8_t>(i));
  }
  NOUS_CHECK(quick.local_vertex.size() == num_local);
  return quick_patterns_.Insert(quick_key_.data(), std::move(quick));
}

void StreamingMiner::AddEmbedding(const PropertyGraph& graph,
                                  const std::vector<EdgeId>& edges) {
  const QuickPatternCache::Value& quick = FindQuickPattern(graph, edges);
  const uint32_t pattern_id = quick.pattern_id;
  PatternEntry& entry = patterns_[pattern_id];
  size_t support_before = SupportOfEntry(entry);
  for (size_t pos = 0; pos < quick.local_vertex.size(); ++pos) {
    entry.position_counts[pos].Increment(
        local_vertices_[quick.local_vertex[pos]]);
  }
  ++entry.embeddings;
  if (support_before < config_.min_support &&
      SupportOfEntry(entry) >= config_.min_support) {
    Metrics().patterns_emitted->Increment();
  }

  NOUS_CHECK(edges.size() <= config_.max_edges);
  NOUS_CHECK(quick.local_vertex.size() <= config_.max_edges + 1);
  uint32_t id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<uint32_t>(num_slots_);
    NOUS_CHECK(id != kFreeSlot);
    if (num_slots_ % kSlotsPerChunk == 0) {
      // Pages are touched only as slots are used.
      slot_chunks_.push_back(std::make_unique_for_overwrite<uint32_t[]>(
          kSlotsPerChunk * slot_words_));
    }
    ++num_slots_;
  }
  uint32_t* slot = Slot(id);
  slot[0] = pattern_id;
  EdgeId* slot_edges = SlotEdges(slot);
  uint32_t* list_pos = SlotListPos(slot);
  for (size_t k = 0; k < edges.size(); ++k) {
    std::vector<uint32_t>& ids = IndexList(edges[k]);
    slot_edges[k] = edges[k];
    list_pos[k] = static_cast<uint32_t>(ids.size());
    ids.push_back(id);
  }
  VertexId* vertices = SlotVertices(slot);
  for (size_t pos = 0; pos < quick.local_vertex.size(); ++pos) {
    vertices[pos] = local_vertices_[quick.local_vertex[pos]];
  }
  ++live_embeddings_;
  ++created_total_;
}

void StreamingMiner::RemoveEmbedding(uint32_t embedding_id,
                                     EdgeId draining_edge) {
  uint32_t* slot = Slot(embedding_id);
  NOUS_CHECK(slot[0] != kFreeSlot);
  PatternEntry& entry = patterns_[slot[0]];
  const VertexId* assignment = SlotVertices(slot);
  size_t support_before = SupportOfEntry(entry);
  for (size_t pos = 0; pos < entry.position_counts.size(); ++pos) {
    NOUS_CHECK(entry.position_counts[pos].Decrement(assignment[pos]));
  }
  --entry.embeddings;
  if (support_before >= config_.min_support &&
      SupportOfEntry(entry) < config_.min_support) {
    Metrics().patterns_demoted->Increment();
  }
  // Swap-remove from each sibling edge's list, then repoint the moved
  // embedding's back-pointer for that edge.
  const EdgeId* edges = SlotEdges(slot);
  const uint32_t* list_pos = SlotListPos(slot);
  for (size_t k = 0; k < entry.pattern.num_edges(); ++k) {
    const EdgeId e = edges[k];
    if (e == draining_edge) continue;
    std::vector<uint32_t>& ids = IndexList(e);
    const uint32_t at = list_pos[k];
    NOUS_CHECK(at < ids.size() && ids[at] == embedding_id);
    const uint32_t moved = ids.back();
    ids[at] = moved;
    ids.pop_back();
    if (moved == embedding_id) continue;
    uint32_t* moved_slot = Slot(moved);
    const EdgeId* moved_edges = SlotEdges(moved_slot);
    const EdgeId* moved_end =
        moved_edges + patterns_[moved_slot[0]].pattern.num_edges();
    const EdgeId* found = std::find(moved_edges, moved_end, e);
    NOUS_CHECK(found != moved_end);
    SlotListPos(moved_slot)[found - moved_edges] = at;
  }
  slot[0] = kFreeSlot;
  free_slots_.push_back(embedding_id);
  --live_embeddings_;
  ++removed_total_;
}

size_t StreamingMiner::SupportOfEntry(const PatternEntry& entry) const {
  if (entry.embeddings == 0 || entry.position_counts.empty()) return 0;
  size_t support = entry.position_counts[0].size();
  for (const auto& counts : entry.position_counts) {
    support = std::min(support, counts.size());
  }
  return support;
}

std::vector<PatternStats> StreamingMiner::FrequentPatterns() const {
  std::vector<PatternStats> results;
  for (const PatternEntry& entry : patterns_) {
    size_t support = SupportOfEntry(entry);
    if (support < config_.min_support) continue;
    PatternStats stats;
    stats.pattern = entry.pattern;
    stats.embeddings = entry.embeddings;
    stats.support = support;
    results.push_back(std::move(stats));
  }
  SortBySupport(&results);
  return results;
}

std::vector<PatternStats> StreamingMiner::ClosedFrequentPatterns() const {
  std::vector<PatternStats> frequent = FrequentPatterns();
  std::vector<PatternStats> closed;
  for (const PatternStats& p : frequent) {
    bool subsumed = false;
    for (const PatternStats& q : frequent) {
      if (q.pattern.num_edges() <= p.pattern.num_edges()) continue;
      if (q.support == p.support && q.pattern.Contains(p.pattern)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) closed.push_back(p);
  }
  return closed;
}

size_t StreamingMiner::SupportOf(const Pattern& pattern) const {
  auto it = pattern_index_.find(pattern);
  if (it == pattern_index_.end()) return 0;
  return SupportOfEntry(patterns_[it->second]);
}

StreamingMiner::Churn StreamingMiner::TakeChurn() {
  // Walk pattern ids in order so both lists come out ascending.
  Churn churn;
  std::unordered_set<size_t> now;
  for (size_t id = 0; id < patterns_.size(); ++id) {
    bool frequent = SupportOfEntry(patterns_[id]) >= config_.min_support;
    bool was_frequent = last_frequent_.count(id) != 0;
    if (frequent) now.insert(id);
    if (frequent && !was_frequent) {
      churn.became_frequent.push_back(patterns_[id].pattern);
    } else if (!frequent && was_frequent) {
      churn.became_infrequent.push_back(patterns_[id].pattern);
    }
  }
  last_frequent_ = std::move(now);
  return churn;
}

}  // namespace nous
