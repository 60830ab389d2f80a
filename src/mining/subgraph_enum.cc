#include "mining/subgraph_enum.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/stamp_set.h"

namespace nous {

namespace {

/// "Already collected" marks for extension dedup, indexed by window
/// position. One per thread, so MineArabesqueSimParallel's workers
/// never share marks. A mark set lives only while one subset's extensions are
/// collected, before any callback runs, so a callback that enumerates
/// again on the same thread is safe.
thread_local StampSet t_edge_marks;

class SubsetEnumerator {
 public:
  SubsetEnumerator(const TemporalWindow& window, EdgeId anchor,
                   const MinerConfig& config, bool older_only,
                   const std::function<void(const std::vector<EdgeId>&)>& fn)
      : window_(window),
        anchor_(anchor),
        config_(config),
        older_only_(older_only),
        fn_(fn),
        marks_(t_edge_marks),
        extensions_(config.max_edges) {
    current_.reserve(config.max_edges);
    sorted_.reserve(config.max_edges);
  }

  size_t Run() {
    current_.push_back(anchor_);
    Grow();
    return visited_;
  }

 private:
  /// Emits current_ unless already seen, then grows it by each of its
  /// extensions in turn.
  void Grow() {
    sorted_.assign(current_.begin(), current_.end());
    std::sort(sorted_.begin(), sorted_.end());
    // {anchor} is grown once and {anchor, e} once per distinct
    // extension e, so only larger subsets can repeat.
    if (sorted_.size() >= 3 && !seen_.insert(sorted_).second) return;
    ++visited_;
    fn_(sorted_);
    if (current_.size() >= config_.max_edges) return;
    std::vector<EdgeId>& extensions = extensions_[current_.size()];
    CollectExtensions(&extensions);
    for (EdgeId ext : extensions) {
      current_.push_back(ext);
      Grow();
      current_.pop_back();
    }
  }

  /// In-window edges adjacent to any endpoint of current_, outside it,
  /// in first-encounter order.
  void CollectExtensions(std::vector<EdgeId>* out) {
    out->clear();
    marks_.Reset(window_.NumEdges());
    for (EdgeId e : current_) marks_.Insert(window_.Position(e));
    auto consider = [this, out](const AdjEntry& a) {
      if (older_only_ && a.edge >= anchor_) return;
      if (marks_.Insert(window_.Position(a.edge))) out->push_back(a.edge);
    };
    const PropertyGraph& graph = window_.graph();
    for (EdgeId in_set : current_) {
      const EdgeRecord& rec = graph.Edge(in_set);
      for (VertexId v : {rec.subject, rec.object}) {
        window_.ForEachInWindow(graph.OutEdges(v), consider);
        window_.ForEachInWindow(graph.InEdges(v), consider);
      }
    }
  }

  const TemporalWindow& window_;
  const EdgeId anchor_;
  const MinerConfig& config_;
  const bool older_only_;
  const std::function<void(const std::vector<EdgeId>&)>& fn_;
  StampSet& marks_;
  std::vector<EdgeId> current_;  // growth order
  std::vector<EdgeId> sorted_;   // current_ sorted, as emitted
  std::vector<std::vector<EdgeId>> extensions_;  // per subset size
  std::set<std::vector<EdgeId>> seen_;           // subsets of 3+ edges
  size_t visited_ = 0;
};

}  // namespace

size_t EnumerateConnectedSubsets(
    const TemporalWindow& window, EdgeId anchor, const MinerConfig& config,
    bool older_only,
    const std::function<void(const std::vector<EdgeId>&)>& fn) {
  NOUS_CHECK(window.Contains(anchor)) << "anchor " << anchor
                                      << " is outside the window";
  return SubsetEnumerator(window, anchor, config, older_only, fn).Run();
}

void CanonicalizeEdgeSet(const PropertyGraph& graph,
                         const std::vector<EdgeId>& edges,
                         bool use_vertex_types,
                         Pattern::Canonicalizer* canonicalizer) {
  canonicalizer->Clear();
  for (EdgeId e : edges) {
    const EdgeRecord& rec = graph.Edge(e);
    canonicalizer->Add(rec.subject, rec.predicate, rec.object);
  }
  canonicalizer->Run([&graph, use_vertex_types](uint64_t v) -> TypeId {
    if (!use_vertex_types) return kInvalidType;
    return graph.VertexType(static_cast<VertexId>(v));
  });
}

SupportCounter::SupportCounter(const PropertyGraph* graph,
                               bool use_vertex_types)
    : graph_(graph), use_vertex_types_(use_vertex_types) {}

void SupportCounter::AddEmbedding(const std::vector<EdgeId>& edges) {
  CanonicalizeEdgeSet(*graph_, edges, use_vertex_types_, &canonicalizer_);
  const Pattern& p = canonicalizer_.pattern();
  // try_emplace copies the key only when the pattern is new.
  auto [it, inserted] = index_.try_emplace(p, entries_.size());
  if (inserted) {
    Entry entry;
    entry.pattern = p;
    entry.position_counts.resize(p.num_vertices());
    entries_.push_back(std::move(entry));
  }
  Entry& entry = entries_[it->second];
  const std::vector<uint64_t>& assignment =
      canonicalizer_.position_to_vertex();
  for (size_t pos = 0; pos < assignment.size(); ++pos) {
    entry.position_counts[pos][static_cast<VertexId>(assignment[pos])]++;
  }
  ++entry.embeddings;
  ++total_embeddings_;
}

void SupportCounter::Merge(const SupportCounter& other) {
  for (const Entry& entry : other.entries_) {
    auto [it, inserted] =
        index_.try_emplace(entry.pattern, entries_.size());
    if (inserted) {
      Entry fresh;
      fresh.pattern = entry.pattern;
      fresh.position_counts.resize(entry.pattern.num_vertices());
      entries_.push_back(std::move(fresh));
    }
    Entry& target = entries_[it->second];
    for (size_t pos = 0; pos < entry.position_counts.size(); ++pos) {
      for (const auto& [vertex, count] : entry.position_counts[pos]) {
        target.position_counts[pos][vertex] += count;
      }
    }
    target.embeddings += entry.embeddings;
  }
  total_embeddings_ += other.total_embeddings_;
}

std::vector<PatternStats> SupportCounter::Results(
    size_t min_support) const {
  std::vector<PatternStats> results;
  for (const Entry& entry : entries_) {
    size_t support = entry.position_counts.empty()
                         ? 0
                         : entry.position_counts[0].size();
    for (const auto& counts : entry.position_counts) {
      support = std::min(support, counts.size());
    }
    if (support < min_support) continue;
    PatternStats stats;
    stats.pattern = entry.pattern;
    stats.embeddings = entry.embeddings;
    stats.support = support;
    results.push_back(std::move(stats));
  }
  SortBySupport(&results);
  return results;
}

}  // namespace nous
