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

StreamingMiner::StreamingMiner(MinerConfig config) : config_(config) {
  // Per-slot edge and vertex counts are u8; a connected pattern of k
  // edges has at most k + 1 vertices.
  NOUS_CHECK(config_.max_edges < std::numeric_limits<uint8_t>::max())
      << "max_edges " << config_.max_edges
      << " does not fit the slot pools' u8 counts";
}

void StreamingMiner::OnEdgeAdded(const PropertyGraph& graph, EdgeId edge) {
  ++generation_;
  // Every connected subset containing the new edge; all other edges in
  // the window are older (smaller ids), so older_only enumeration
  // discovers each subset exactly once across the stream.
  size_t subsets = EnumerateConnectedSubsets(
      graph, edge, config_, /*older_only=*/true,
      [this, &graph](const std::vector<EdgeId>& subset) {
        AddEmbedding(graph, subset);
      });
  Metrics().subsets_enumerated->Increment(subsets);
  PublishGauges();
}

void StreamingMiner::OnEdgeExpiring(const PropertyGraph& /*graph*/,
                                    EdgeId edge) {
  ++generation_;
  auto it = edge_index_.find(edge);
  if (it == edge_index_.end()) return;
  // RemoveEmbedding mutates other edges' index entries but only reads
  // this one after the move.
  std::vector<uint32_t> ids = std::move(it->second);
  edge_index_.erase(it);
  for (uint32_t id : ids) {
    if (slot_pattern_[id] != kFreeSlot) RemoveEmbedding(id);
  }
  PublishGauges();
}

void StreamingMiner::PublishGauges() const {
  const MinerMetrics& m = Metrics();
  m.tracked_patterns->Set(static_cast<double>(patterns_.size()));
  m.live_embeddings->Set(static_cast<double>(live_embeddings_));
  m.embedding_slots->Set(static_cast<double>(slot_pattern_.size()));
  m.pool_bytes->Set(static_cast<double>(
      CapacityBytes(slot_pattern_) + CapacityBytes(slot_num_edges_) +
      CapacityBytes(slot_num_vertices_) + CapacityBytes(slot_edges_) +
      CapacityBytes(slot_vertices_) + CapacityBytes(free_slots_)));
}

void StreamingMiner::AddEmbedding(const PropertyGraph& graph,
                                  const std::vector<EdgeId>& edges) {
  CanonicalizeEdgeSet(graph, edges, config_.use_vertex_types,
                      &canonicalizer_);
  const Pattern& p = canonicalizer_.pattern();
  const std::vector<uint64_t>& assignment =
      canonicalizer_.position_to_vertex();
  // try_emplace copies the key only when the pattern is new.
  auto [it, inserted] = pattern_index_.try_emplace(
      p, static_cast<uint32_t>(patterns_.size()));
  if (inserted) {
    PatternEntry entry;
    entry.pattern = p;
    entry.position_counts.resize(p.num_vertices());
    patterns_.push_back(std::move(entry));
  }
  uint32_t pattern_id = it->second;
  PatternEntry& entry = patterns_[pattern_id];
  size_t support_before = SupportOfEntry(entry);
  for (size_t pos = 0; pos < assignment.size(); ++pos) {
    entry.position_counts[pos][static_cast<VertexId>(assignment[pos])]++;
  }
  ++entry.embeddings;
  if (support_before < config_.min_support &&
      SupportOfEntry(entry) >= config_.min_support) {
    Metrics().patterns_emitted->Increment();
  }

  const size_t edge_stride = config_.max_edges;
  const size_t vertex_stride = config_.max_edges + 1;
  NOUS_CHECK(edges.size() <= edge_stride);
  NOUS_CHECK(assignment.size() <= vertex_stride);
  uint32_t id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<uint32_t>(slot_pattern_.size());
    NOUS_CHECK(id != kFreeSlot);
    slot_pattern_.push_back(kFreeSlot);
    slot_num_edges_.push_back(0);
    slot_num_vertices_.push_back(0);
    slot_edges_.resize(slot_edges_.size() + edge_stride);
    slot_vertices_.resize(slot_vertices_.size() + vertex_stride);
  }
  slot_pattern_[id] = pattern_id;
  slot_num_edges_[id] = static_cast<uint8_t>(edges.size());
  slot_num_vertices_[id] = static_cast<uint8_t>(assignment.size());
  std::copy(edges.begin(), edges.end(),
            slot_edges_.begin() + id * edge_stride);
  std::transform(assignment.begin(), assignment.end(),
                 slot_vertices_.begin() + id * vertex_stride,
                 [](uint64_t v) { return static_cast<VertexId>(v); });
  for (EdgeId e : edges) edge_index_[e].push_back(id);
  ++live_embeddings_;
  ++created_total_;
}

void StreamingMiner::RemoveEmbedding(uint32_t embedding_id) {
  NOUS_CHECK(slot_pattern_[embedding_id] != kFreeSlot);
  PatternEntry& entry = patterns_[slot_pattern_[embedding_id]];
  const VertexId* assignment =
      slot_vertices_.data() + embedding_id * (config_.max_edges + 1);
  const EdgeId* edges = slot_edges_.data() + embedding_id * config_.max_edges;
  size_t support_before = SupportOfEntry(entry);
  for (size_t pos = 0; pos < slot_num_vertices_[embedding_id]; ++pos) {
    auto it = entry.position_counts[pos].find(assignment[pos]);
    NOUS_CHECK(it != entry.position_counts[pos].end());
    if (--it->second == 0) entry.position_counts[pos].erase(it);
  }
  --entry.embeddings;
  if (support_before >= config_.min_support &&
      SupportOfEntry(entry) < config_.min_support) {
    Metrics().patterns_demoted->Increment();
  }
  for (size_t k = 0; k < slot_num_edges_[embedding_id]; ++k) {
    auto it = edge_index_.find(edges[k]);
    if (it == edge_index_.end()) continue;  // being drained by expiry
    auto& ids = it->second;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == embedding_id) {
        ids[i] = ids.back();
        ids.pop_back();
        break;
      }
    }
  }
  slot_pattern_[embedding_id] = kFreeSlot;
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
