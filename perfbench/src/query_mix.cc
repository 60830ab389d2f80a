#include "query_mix.h"

#include <algorithm>
#include <set>
#include <utility>

#include "bench_stats.h"
#include "common/random.h"
#include "qa/path_search.h"

namespace nous {
namespace perfbench {
namespace {

bool ParsesTo(const std::string& text, QueryKind kind, const std::string& a,
              const std::string& b, const std::string& predicate) {
  Result<Query> q = ParseQuery(text);
  return q.ok() && q->kind == kind && q->entity_a == a &&
         q->entity_b == b && q->predicate == predicate && q->since == 0;
}

std::string EntityText(const std::string& label) {
  return "tell me about " + label;
}
std::string ExplainText(const std::string& a, const std::string& b) {
  return "explain " + a + " and " + b;
}
std::string SearchText(const QueryTargets::Search& s) {
  return "paths from " + s.from + " to " + s.to + " via " + s.via;
}

}  // namespace

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kEntity:
      return "entity";
    case QueryClass::kExplain:
      return "explain";
    case QueryClass::kTrending:
      return "trending";
    case QueryClass::kPattern:
      return "pattern";
  }
  return "?";
}

QueryClass ClassOf(QueryKind kind) {
  switch (kind) {
    case QueryKind::kEntity:
      return QueryClass::kEntity;
    case QueryKind::kRelationship:
    case QueryKind::kSearch:
      return QueryClass::kExplain;
    case QueryKind::kTrending:
      return QueryClass::kTrending;
    case QueryKind::kPattern:
      return QueryClass::kPattern;
  }
  return QueryClass::kEntity;
}

QueryTargets FindQueryTargets(const PropertyGraph& graph, uint64_t seed,
                              size_t max_pairs) {
  QueryTargets targets;
  std::vector<bool> resolvable(graph.NumVertices(), false);
  std::vector<VertexId> resolvable_ids;
  std::vector<std::pair<size_t, std::string>> ranked;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    size_t degree = graph.OutDegree(v) + graph.InDegree(v);
    if (degree == 0) continue;
    const std::string& label = graph.VertexLabel(v);
    auto found = graph.FindVertexFolded(label);
    if (!found || *found != v) continue;
    if (!ParsesTo(EntityText(label), QueryKind::kEntity, label, "", "")) {
      continue;
    }
    resolvable[v] = true;
    resolvable_ids.push_back(v);
    ranked.emplace_back(degree, label);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  });
  for (auto& [degree, label] : ranked) {
    targets.entities.push_back(std::move(label));
  }
  if (resolvable_ids.empty()) return targets;

  // Two-hop walks s -> m -> t over out-edges; each kept pair is
  // checked to have at least one path, so explain answers are never
  // empty on this graph (which only grows during a run).
  Rng rng(seed);
  PathSearch search(&graph);
  std::set<std::pair<VertexId, VertexId>> seen;
  for (size_t attempt = 0;
       attempt < max_pairs * 50 && (targets.explain_pairs.size() < max_pairs ||
                                    targets.searches.size() < max_pairs);
       ++attempt) {
    VertexId s = resolvable_ids[rng.UniformInt(resolvable_ids.size())];
    if (graph.OutDegree(s) == 0) continue;
    const AdjEntry& hop1 =
        graph.OutEdges(s)[rng.UniformInt(graph.OutDegree(s))];
    VertexId m = hop1.neighbor;
    if (graph.OutDegree(m) == 0) continue;
    const AdjEntry& hop2 =
        graph.OutEdges(m)[rng.UniformInt(graph.OutDegree(m))];
    VertexId t = hop2.neighbor;
    if (t == s || !resolvable[t] || !seen.insert({s, t}).second) continue;
    const std::string& a = graph.VertexLabel(s);
    const std::string& b = graph.VertexLabel(t);
    if (targets.explain_pairs.size() < max_pairs &&
        ParsesTo(ExplainText(a, b), QueryKind::kRelationship, a, b, "") &&
        !search.FindPaths(s, t).empty()) {
      targets.explain_pairs.emplace_back(a, b);
    }
    QueryTargets::Search via{a, b, graph.predicates().GetString(hop2.predicate)};
    if (targets.searches.size() < max_pairs &&
        ParsesTo(SearchText(via), QueryKind::kSearch, a, b, via.via) &&
        !search.FindPaths(s, t, hop2.predicate).empty()) {
      targets.searches.push_back(std::move(via));
    }
  }
  return targets;
}

std::vector<MixQuery> GenerateQueries(const QueryTargets& targets,
                                      size_t count, uint64_t seed,
                                      MixShares shares) {
  std::vector<MixQuery> out;
  if (targets.entities.empty()) return out;
  out.reserve(count);
  Rng rng(seed);
  ZipfPicker zipf(targets.entities.size(), 1.0, seed ^ 0x5bd1e995ULL);
  const unsigned total = shares.entity + shares.explain + shares.search +
                         shares.trending + shares.pattern;
  for (size_t i = 0; i < count; ++i) {
    unsigned r = static_cast<unsigned>(rng.UniformInt(total));
    MixQuery q;
    if (r < shares.entity) {
      q = {QueryClass::kEntity, EntityText(targets.entities[zipf.Next()])};
    } else if ((r -= shares.entity) < shares.explain) {
      if (targets.explain_pairs.empty()) continue;
      const auto& [a, b] =
          targets.explain_pairs[rng.UniformInt(targets.explain_pairs.size())];
      q = {QueryClass::kExplain, ExplainText(a, b)};
    } else if ((r -= shares.explain) < shares.search) {
      if (targets.searches.empty()) continue;
      q = {QueryClass::kExplain,
           SearchText(targets.searches[rng.UniformInt(
               targets.searches.size())])};
    } else if ((r -= shares.search) < shares.trending) {
      q = {QueryClass::kTrending, "what is trending"};
    } else {
      q = {QueryClass::kPattern, "show patterns"};
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace perfbench
}  // namespace nous
