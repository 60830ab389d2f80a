#include "qa/query_engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

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
  if (!patterns.empty()) {
    os << "Patterns:\n";
    for (const RenderedPattern& p : patterns) {
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
                         std::span<const RenderedPattern> patterns,
                         QueryEngineConfig config)
    : graph_(graph), patterns_(patterns), config_(config) {}

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

Answer QueryEngine::ExecuteTrending() const {
  Answer answer;
  answer.kind = QueryKind::kTrending;
  // Hot entities: activity within the trailing horizon. The graph
  // tracks its max live-edge timestamp incrementally, so trending
  // needs one edge pass instead of two.
  Timestamp newest = graph_->MaxEdgeTimestamp();
  Timestamp cutoff = config_.trending_horizon == 0
                         ? 0
                         : newest - config_.trending_horizon;
  Timestamp previous_cutoff =
      config_.trending_horizon == 0
          ? 0
          : cutoff - config_.trending_horizon;
  std::map<VertexId, size_t> activity;
  std::map<VertexId, size_t> previous_activity;
  std::vector<EdgeId> recent_edges;
  graph_->ForEachEdge([&](EdgeId e, const EdgeRecord& rec) {
    if (rec.meta.curated) return;  // trends come from the stream
    if (rec.meta.timestamp >= cutoff) {
      ++activity[rec.subject];
      ++activity[rec.object];
      recent_edges.push_back(e);
    } else if (config_.trending_horizon != 0 &&
               rec.meta.timestamp >= previous_cutoff) {
      ++previous_activity[rec.subject];
      ++previous_activity[rec.object];
    }
  });
  // Rising score = recent minus previous-window activity; raw recent
  // count when rising ranking is disabled.
  auto score_of = [&](VertexId v, size_t recent) -> double {
    if (!config_.trending_rising) return static_cast<double>(recent);
    auto it = previous_activity.find(v);
    size_t previous = it == previous_activity.end() ? 0 : it->second;
    return static_cast<double>(recent) -
           static_cast<double>(previous);
  };
  std::vector<std::pair<VertexId, size_t>> ranked(activity.begin(),
                                                  activity.end());
  std::sort(ranked.begin(), ranked.end(),
            [&](const auto& a, const auto& b) {
              double sa = score_of(a.first, a.second);
              double sb = score_of(b.first, b.second);
              if (sa != sb) return sa > sb;
              return a.second > b.second;
            });
  for (const auto& [v, count] : ranked) {
    if (answer.hot_entities.size() >= config_.trending_limit) break;
    answer.hot_entities.emplace_back(graph_->VertexLabel(v), count);
  }
  for (EdgeId e : recent_edges) {
    if (answer.facts.size() >= config_.trending_limit) break;
    answer.facts.push_back(MakeFactLine(e));
  }
  answer.patterns.assign(patterns_.begin(), patterns_.end());
  return answer;
}

Result<Answer> QueryEngine::ExecuteEntity(
    const Query& query) const {
  NOUS_ASSIGN_OR_RETURN(VertexId v, ResolveEntity(query.entity_a));
  Answer answer;
  answer.kind = QueryKind::kEntity;
  std::set<EdgeId> edges;
  for (const AdjEntry& a : graph_->OutEdges(v)) edges.insert(a.edge);
  for (const AdjEntry& a : graph_->InEdges(v)) edges.insert(a.edge);
  for (EdgeId e : edges) {
    if (query.since != 0 &&
        graph_->Edge(e).meta.timestamp < query.since) {
      continue;  // temporal filter ("... since 2014")
    }
    answer.facts.push_back(MakeFactLine(e));
  }
  // Curated facts first, then by recency.
  std::sort(answer.facts.begin(), answer.facts.end(),
            [](const FactLine& a, const FactLine& b) {
              if (a.curated != b.curated) return a.curated > b.curated;
              return a.timestamp > b.timestamp;
            });
  return answer;
}

Result<Answer> QueryEngine::ExecuteRelationship(
    const Query& query, QueryKind kind) const {
  NOUS_ASSIGN_OR_RETURN(VertexId s, ResolveEntity(query.entity_a));
  NOUS_ASSIGN_OR_RETURN(VertexId t, ResolveEntity(query.entity_b));
  PredicateId constraint = kInvalidPredicate;
  if (!query.predicate.empty()) {
    if (auto p = graph_->predicates().Lookup(query.predicate)) {
      constraint = *p;
    }
    // An unknown predicate stays unconstrained rather than failing:
    // why-questions phrase relations loosely ("use" vs "uses").
  }
  Answer answer;
  answer.kind = kind;
  PathSearch search(graph_, config_.path_search);
  answer.paths = search.FindPaths(s, t, constraint);
  if (answer.paths.empty() && constraint != kInvalidPredicate) {
    // Fall back to unconstrained explanation.
    answer.paths = search.FindPaths(s, t, kInvalidPredicate);
  }
  std::set<SourceId> sources;
  for (const PathResult& path : answer.paths) {
    for (SourceId src : path.sources) sources.insert(src);
  }
  answer.distinct_sources = sources.size();
  return answer;
}

Answer QueryEngine::ExecutePattern() const {
  Answer answer;
  answer.kind = QueryKind::kPattern;
  answer.patterns.assign(patterns_.begin(), patterns_.end());
  return answer;
}

}  // namespace nous
