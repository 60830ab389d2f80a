#include "mining/streaming_miner.h"

#include <algorithm>
#include <iterator>
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
    return m;
  }();
  return metrics;
}

}  // namespace

StreamingMiner::StreamingMiner(MinerConfig config)
    : config_(config),
      // Edge count, 3 words per edge, one label per vertex.
      quick_key_(4 * config_.max_edges + 2),
      quick_patterns_(quick_key_.size()) {
  // Quick patterns index local vertices with u8; a connected pattern of
  // k edges has at most k + 1 vertices.
  NOUS_CHECK(config_.max_edges < std::numeric_limits<uint8_t>::max())
      << "max_edges " << config_.max_edges
      << " does not fit the quick patterns' u8 vertex indices";
}

void StreamingMiner::OnEdgeAdded(const TemporalWindow& window,
                                 EdgeId edge) {
  if (edge >= window.num_pinned() && first_stream_edge_ == kInvalidEdge) {
    first_stream_edge_ = edge;
  }
  const PropertyGraph& graph = window.graph();
  if (config_.use_vertex_types) {
    for (VertexId v = static_cast<VertexId>(read_type_.size());
         v < graph.NumVertices(); ++v) {
      read_type_.push_back(graph.VertexType(v));
    }
  }
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

void StreamingMiner::OnEdgeExpiring(const TemporalWindow& window,
                                    EdgeId edge) {
  // `edge` is the oldest streamed edge, so every window subset holding
  // it has only in-window edges that were in the window when its newest
  // edge arrived: the live embeddings of `edge` are exactly the subsets
  // whose newest edge the miner was told of. Subsets of a miner attached
  // mid-stream that end before its first edge were never counted; those
  // of the expiring edge with a newer, announced edge were.
  const PropertyGraph& graph = window.graph();
  EnumerateConnectedSubsets(
      window, edge, config_, /*older_only=*/false,
      [this, &graph](const std::vector<EdgeId>& subset) {
        if (subset.back() < first_stream_edge_) return;
        RemoveEmbedding(graph, subset);
      });
  PublishGauges();
}

void StreamingMiner::PublishGauges() const {
  const MinerMetrics& m = Metrics();
  m.tracked_patterns->Set(static_cast<double>(patterns_.size()));
  m.quick_patterns->Set(static_cast<double>(quick_patterns_.size()));
  m.live_embeddings->Set(static_cast<double>(live_embeddings_));
}

TypeId StreamingMiner::ReadType(const PropertyGraph& graph, VertexId v,
                                EdgeId anchor) {
  const TypeId type = graph.VertexType(v);
  TypeId& last = read_type_[v];
  if (type != last) {
    std::vector<Retype>& log = retypes_[v];
    if (log.empty()) log.push_back({0, last});
    NOUS_CHECK(log.back().anchor < anchor)
        << "vertex " << v << " retyped on arrival of edge " << anchor
        << " after edge " << log.back().anchor;
    log.push_back({anchor, type});
    last = type;
  }
  return type;
}

TypeId StreamingMiner::TypeAsOf(VertexId v, EdgeId anchor) const {
  if (!retypes_.empty()) {
    auto it = retypes_.find(v);
    if (it != retypes_.end()) {
      const std::vector<Retype>& log = it->second;
      auto after = std::upper_bound(
          log.begin(), log.end(), anchor,
          [](EdgeId a, const Retype& r) { return a < r.anchor; });
      return std::prev(after)->type;
    }
  }
  return read_type_[v];
}

void StreamingMiner::BuildQuickKey(const PropertyGraph& graph,
                                   const std::vector<EdgeId>& edges,
                                   bool arriving) {
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
  const EdgeId newest = edges.back();
  for (VertexId v : local_vertices_) {
    TypeId type = kInvalidType;
    if (config_.use_vertex_types) {
      type = arriving ? ReadType(graph, v, newest) : TypeAsOf(v, newest);
    }
    *key++ = type;
  }
}

const QuickPatternCache::Value& StreamingMiner::FindQuickPattern(
    const PropertyGraph& graph, const std::vector<EdgeId>& edges) {
  BuildQuickKey(graph, edges, /*arriving=*/true);
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
    auto found = std::find(local_vertices_.begin(), local_vertices_.end(),
                           static_cast<VertexId>(v));
    NOUS_CHECK(found != local_vertices_.end());
    quick.local_vertex.push_back(
        static_cast<uint8_t>(found - local_vertices_.begin()));
  }
  NOUS_CHECK(quick.local_vertex.size() == num_local);
  return quick_patterns_.Insert(quick_key_.data(), std::move(quick));
}

void StreamingMiner::AddEmbedding(const PropertyGraph& graph,
                                  const std::vector<EdgeId>& edges) {
  const QuickPatternCache::Value& quick = FindQuickPattern(graph, edges);
  PatternEntry& entry = patterns_[quick.pattern_id];
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
  ++live_embeddings_;
  ++created_total_;
}

void StreamingMiner::RemoveEmbedding(const PropertyGraph& graph,
                                     const std::vector<EdgeId>& edges) {
  BuildQuickKey(graph, edges, /*arriving=*/false);
  // Every live subset was keyed on arrival, and the cache never evicts.
  const QuickPatternCache::Value* quick =
      quick_patterns_.Find(quick_key_.data());
  NOUS_CHECK(quick != nullptr)
      << "expiring subset of " << edges.size() << " edges ending at edge "
      << edges.back() << " has no cached quick pattern";
  PatternEntry& entry = patterns_[quick->pattern_id];
  size_t support_before = SupportOfEntry(entry);
  for (size_t pos = 0; pos < quick->local_vertex.size(); ++pos) {
    NOUS_CHECK(entry.position_counts[pos].Decrement(
        local_vertices_[quick->local_vertex[pos]]));
  }
  --entry.embeddings;
  if (support_before >= config_.min_support &&
      SupportOfEntry(entry) < config_.min_support) {
    Metrics().patterns_demoted->Increment();
  }
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
