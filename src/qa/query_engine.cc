#include "qa/query_engine.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nous {

std::string Answer::Render(const PropertyGraph& graph) const {
  std::ostringstream os;
  os << "[" << QueryKindName(kind) << " answer]\n";
  if (!hot_entities.empty()) {
    os << "Trending entities:\n";
    for (const auto& [name, count] : hot_entities) {
      os << StrFormat("  %-30s activity=%zu\n", name.c_str(), count);
    }
  }
  if (!facts.empty()) {
    os << "Facts:\n";
    for (const FactLine& f : facts) {
      std::string provenance =
          f.curated ? "[curated]"
          : f.source.empty() ? "[extracted]"
                             : "[extracted from " + f.source + "]";
      os << StrFormat("  (%s, %s, %s) conf=%.2f %s\n", f.subject.c_str(),
                      f.predicate.c_str(), f.object.c_str(), f.confidence,
                      provenance.c_str());
    }
  }
  if (!patterns().empty()) {
    os << "Patterns:\n";
    for (const RenderedPattern& p : patterns()) {
      os << StrFormat("  support=%zu  %s\n", p.support,
                      p.description.c_str());
    }
  }
  if (!paths.empty()) {
    os << "Paths:\n";
    for (const PathResult& path : paths) {
      std::vector<std::string> hops;
      for (size_t i = 0; i < path.vertices.size(); ++i) {
        hops.push_back(graph.VertexLabel(path.vertices[i]));
        if (i < path.edges.size()) {
          hops.push_back(
              "-[" +
              graph.predicates().GetString(
                  graph.Edge(path.edges[i]).predicate) +
              "]-");
        }
      }
      os << StrFormat("  coherence=%.3f sources=%zu  %s\n", path.coherence,
                      path.sources.size(), Join(hops, " ").c_str());
    }
  }
  return os.str();
}


QueryEngine::QueryEngine(const PropertyGraph* graph,
                         std::shared_ptr<const RenderedPatternSet> patterns,
                         QueryEngineConfig config)
    : graph_(graph), patterns_(std::move(patterns)), config_(config) {}

QueryEngine::QueryEngine(const PropertyGraph* graph,
                         std::span<const RenderedPattern> patterns,
                         QueryEngineConfig config)
    : QueryEngine(graph,
                  patterns.empty()
                      ? nullptr
                      : std::make_shared<const RenderedPatternSet>(
                            RenderedPatternSet{{patterns.begin(),
                                                patterns.end()}}),
                  config) {}

std::vector<RenderedPattern> RenderClosedPatterns(
    const StreamingMiner& miner, const PropertyGraph& graph) {
  std::vector<RenderedPattern> rendered;
  for (const PatternStats& stats : miner.ClosedFrequentPatterns()) {
    RenderedPattern p;
    p.description =
        stats.pattern.ToString(graph.predicates(), &graph.types());
    p.support = stats.support;
    p.embeddings = stats.embeddings;
    rendered.push_back(std::move(p));
  }
  return rendered;
}

Result<VertexId> QueryEngine::ResolveEntity(
    const std::string& name) const {
  // Exact match, then the graph's case-folded index (queries are
  // typed by humans) — O(1) where this used to scan every label.
  if (auto v = graph_->FindVertexFolded(name)) return *v;
  return Status::NotFound("unknown entity: " + name);
}

FactLine QueryEngine::MakeFactLine(EdgeId edge) const {
  const EdgeRecord& rec = graph_->Edge(edge);
  FactLine line;
  line.subject = graph_->VertexLabel(rec.subject);
  line.predicate = graph_->predicates().GetString(rec.predicate);
  line.object = graph_->VertexLabel(rec.object);
  line.confidence = rec.meta.confidence;
  line.curated = rec.meta.curated;
  line.source = rec.meta.source == kInvalidSource
                    ? ""
                    : graph_->sources().GetString(rec.meta.source);
  line.timestamp = rec.meta.timestamp;
  return line;
}

Result<Answer> QueryEngine::Execute(const Query& query) const {
  NOUS_SPAN("query");
  // Per-class query counts (Figure 5's five classes) under one family.
  MetricsRegistry::Global()
      .GetCounter("nous_query_total", "Queries executed by class",
                  {{"class", QueryKindName(query.kind)}})
      ->Increment();
  // Each class times its stages under "query": resolve (entity names
  // to vertices; entity, relationship and search queries), search (the
  // graph work) and compose (the answer's rows); pattern answers only
  // compose.
  switch (query.kind) {
    case QueryKind::kTrending:
      return ExecuteTrending();
    case QueryKind::kEntity:
      return ExecuteEntity(query);
    case QueryKind::kRelationship:
    case QueryKind::kSearch:
      return ExecuteRelationship(query, query.kind);
    case QueryKind::kPattern:
      return ExecutePattern();
  }
  return Status::Internal("unhandled query kind");
}

Result<Answer> QueryEngine::ExecuteText(
    const std::string& text) const {
  NOUS_ASSIGN_OR_RETURN(Query query, ParseQuery(text));
  return Execute(query);
}

namespace {

/// One ranked trending vertex: its recent-window endpoint count and
/// its rank score (recent minus previous-window count when rising).
struct TrendingRow {
  VertexId vertex;
  size_t count;
  double score;
};

/// Endpoint counts of trending's two windows, indexed by vertex id.
/// Slots grow with the graph and are zeroed again through `touched`
/// (the vertices counted since the last Reset), so a query's cost is
/// its windows' edges, never the vertex count.
struct TrendingCounters {
  std::vector<uint32_t> recent;
  std::vector<uint32_t> previous;
  std::vector<VertexId> touched;

  void Grow(size_t vertices) {
    if (recent.size() < vertices) {
      recent.resize(vertices, 0);
      previous.resize(vertices, 0);
    }
  }
  void Touch(VertexId v) {
    if (recent[v] == 0 && previous[v] == 0) touched.push_back(v);
  }
  void AddRecent(VertexId v) {
    Touch(v);
    ++recent[v];
  }
  void AddPrevious(VertexId v) {
    Touch(v);
    ++previous[v];
  }
  void Reset() {
    for (VertexId v : touched) recent[v] = previous[v] = 0;
    touched.clear();
  }
};

/// Each thread's counters; engines on any snapshot share them, since a
/// query leaves them zeroed.
TrendingCounters& ThreadTrendingCounters() {
  thread_local TrendingCounters counters;
  return counters;
}

/// An entity fact's sort key: curated first, then by recency.
struct FactKey {
  bool curated;
  Timestamp timestamp;
  EdgeId edge;
};

}  // namespace

Answer QueryEngine::ExecuteTrending() const {
  Answer answer;
  answer.kind = QueryKind::kTrending;
  std::vector<TrendingRow> ranked;
  std::vector<EdgeId> recent_edges;
  {
    NOUS_SPAN_VAR(search, "search");
    // Hot entities: activity within the trailing horizon. The graph
    // tracks its max live-edge timestamp incrementally, so trending
    // needs one edge pass instead of two.
    Timestamp newest = graph_->MaxEdgeTimestamp();
    Timestamp cutoff = config_.trending_horizon == 0
                           ? 0
                           : newest - config_.trending_horizon;
    const bool count_previous =
        config_.trending_rising && config_.trending_horizon != 0;
    // The oldest timestamp either window counts.
    const Timestamp oldest =
        count_previous ? cutoff - config_.trending_horizon : cutoff;
    // Every edge counted below has a timestamp in [oldest, newest]
    // (newest bounds them all), so only the edge chunks whose zone
    // meets that range are read; the rest hold no such edge. The
    // visited chunks ascend, so edges are still seen in id order.
    TrendingCounters& counters = ThreadTrendingCounters();
    counters.Grow(graph_->NumVertices());
    size_t chunks_visited = 0;
    size_t edges_scanned = 0;
    for (size_t z = 0; z < graph_->NumEdgeZones(); ++z) {
      if (!graph_->EdgeZoneAt(z).Meets(oldest, newest)) continue;
      ++chunks_visited;
      const size_t begin = z * PropertyGraph::kEdgeZoneSize;
      const size_t end =
          std::min(begin + PropertyGraph::kEdgeZoneSize, graph_->NumEdges());
      edges_scanned += end - begin;
      for (size_t e = begin; e < end; ++e) {
        const EdgeRecord& rec = graph_->Edge(static_cast<EdgeId>(e));
        if (rec.meta.curated) continue;  // trends come from the stream
        if (rec.meta.timestamp >= cutoff) {
          counters.AddRecent(rec.subject);
          counters.AddRecent(rec.object);
          if (recent_edges.size() < config_.trending_limit) {
            recent_edges.push_back(static_cast<EdgeId>(e));
          }
        } else if (count_previous && rec.meta.timestamp >= oldest) {
          counters.AddPrevious(rec.subject);
          counters.AddPrevious(rec.object);
        }
      }
    }
    // Rising score = recent minus previous-window activity; raw recent
    // count when rising ranking is disabled (no previous count is kept
    // then). Only vertices with recent activity rank, in ascending id
    // order.
    std::vector<VertexId> active;
    for (VertexId v : counters.touched) {
      if (counters.recent[v] > 0) active.push_back(v);
    }
    std::sort(active.begin(), active.end());
    ranked.reserve(active.size());
    for (VertexId v : active) {
      const size_t count = counters.recent[v];
      ranked.push_back({v, count,
                        static_cast<double>(count) -
                            static_cast<double>(counters.previous[v])});
    }
    counters.Reset();
    // Rows arrive in ascending vertex order. std::sort's order among
    // rows that tie on (score, count) depends only on that input order,
    // so the answer is deterministic; AnswerOracleTest pins it.
    std::sort(ranked.begin(), ranked.end(),
              [](const TrendingRow& a, const TrendingRow& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.count > b.count;
              });
    search.Attr("chunks_visited", chunks_visited);
    search.Attr("edges_scanned", edges_scanned);
    search.Attr("active_vertices", active.size());
  }
  NOUS_SPAN("compose");
  for (const TrendingRow& row : ranked) {
    if (answer.hot_entities.size() >= config_.trending_limit) break;
    answer.hot_entities.emplace_back(graph_->VertexLabel(row.vertex),
                                     row.count);
  }
  for (EdgeId e : recent_edges) answer.facts.push_back(MakeFactLine(e));
  answer.pattern_set = patterns_;
  return answer;
}

Result<Answer> QueryEngine::ExecuteEntity(
    const Query& query) const {
  VertexId v = kInvalidVertex;
  {
    NOUS_SPAN("resolve");
    NOUS_ASSIGN_OR_RETURN(v, ResolveEntity(query.entity_a));
  }
  std::vector<FactKey> keys;
  {
    NOUS_SPAN("search");
    // Both adjacency lists ascend by edge id, so merging them visits
    // v's distinct edges in id order; a self-loop is in both lists
    // under one id and is kept once.
    const std::vector<AdjEntry>& out = graph_->OutEdges(v);
    const std::vector<AdjEntry>& in = graph_->InEdges(v);
    keys.reserve(out.size() + in.size());
    size_t i = 0;
    size_t j = 0;
    while (i < out.size() || j < in.size()) {
      EdgeId e;
      if (j == in.size() || (i < out.size() && out[i].edge < in[j].edge)) {
        e = out[i++].edge;
      } else if (i == out.size() || in[j].edge < out[i].edge) {
        e = in[j++].edge;
      } else {
        e = out[i].edge;
        ++i;
        ++j;
      }
      const EdgeMeta& meta = graph_->Edge(e).meta;
      if (query.since != 0 && meta.timestamp < query.since) {
        continue;  // temporal filter ("... since 2014")
      }
      keys.push_back({meta.curated, meta.timestamp, e});
    }
    // Curated facts first, then by recency. Keys arrive in ascending
    // edge-id order, and std::sort's order among ties depends only on
    // that input order; AnswerOracleTest pins it.
    std::sort(keys.begin(), keys.end(),
              [](const FactKey& a, const FactKey& b) {
                if (a.curated != b.curated) return a.curated > b.curated;
                return a.timestamp > b.timestamp;
              });
  }
  NOUS_SPAN("compose");
  Answer answer;
  answer.kind = QueryKind::kEntity;
  answer.facts.reserve(keys.size());
  for (const FactKey& key : keys) {
    answer.facts.push_back(MakeFactLine(key.edge));
  }
  return answer;
}

Result<Answer> QueryEngine::ExecuteRelationship(
    const Query& query, QueryKind kind) const {
  VertexId s = kInvalidVertex;
  VertexId t = kInvalidVertex;
  PredicateId constraint = kInvalidPredicate;
  {
    NOUS_SPAN("resolve");
    NOUS_ASSIGN_OR_RETURN(s, ResolveEntity(query.entity_a));
    NOUS_ASSIGN_OR_RETURN(t, ResolveEntity(query.entity_b));
    if (!query.predicate.empty()) {
      if (auto p = graph_->predicates().Lookup(query.predicate)) {
        constraint = *p;
      }
      // An unknown predicate stays unconstrained rather than failing:
      // why-questions phrase relations loosely ("use" vs "uses").
    }
  }
  Answer answer;
  answer.kind = kind;
  {
    NOUS_SPAN("search");
    PathSearch search(graph_, config_.path_search);
    answer.paths = search.FindPaths(s, t, constraint);
    if (answer.paths.empty() && constraint != kInvalidPredicate) {
      // Fall back to unconstrained explanation.
      answer.paths = search.FindPaths(s, t, kInvalidPredicate);
    }
  }
  NOUS_SPAN("compose");
  std::set<SourceId> sources;
  for (const PathResult& path : answer.paths) {
    for (SourceId src : path.sources) sources.insert(src);
  }
  answer.distinct_sources = sources.size();
  return answer;
}

Answer QueryEngine::ExecutePattern() const {
  NOUS_SPAN("compose");
  Answer answer;
  answer.kind = QueryKind::kPattern;
  answer.pattern_set = patterns_;
  return answer;
}

}  // namespace nous
