#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/property_graph.h"
#include "qa/path_baselines.h"
#include "qa/path_search.h"
#include "qa/query.h"
#include "qa/query_engine.h"

namespace nous {
namespace {

/// Builds a diamond KG with a planted *coherent* path and a shorter
/// but topically incoherent path:
///
///   src -> mid_good -> dst        (all in topic 0)
///   src -> mid_bad  -> dst        (mid_bad in topic 1)
///   src -> far1 -> far2 -> dst    (longer, topic 0)
class PathFixture : public ::testing::Test {
 protected:
  PathFixture() {
    src_ = Add("src", {0.9, 0.1});
    dst_ = Add("dst", {0.9, 0.1});
    mid_good_ = Add("mid_good", {0.9, 0.1});
    mid_bad_ = Add("mid_bad", {0.1, 0.9});
    far1_ = Add("far1", {0.7, 0.3});
    far2_ = Add("far2", {0.7, 0.3});
    p_ = graph_.predicates().Intern("rel");
    via_ = graph_.predicates().Intern("via");
    Connect(src_, p_, mid_good_, "wsj");
    Connect(mid_good_, via_, dst_, "web");
    Connect(src_, p_, mid_bad_, "wsj");
    Connect(mid_bad_, p_, dst_, "wsj");
    Connect(src_, p_, far1_, "wsj");
    Connect(far1_, p_, far2_, "web");
    Connect(far2_, p_, dst_, "blog");
  }

  VertexId Add(const std::string& name, std::vector<double> topics) {
    VertexId v = graph_.GetOrAddVertex(name);
    graph_.SetVertexTopics(v, std::move(topics));
    return v;
  }
  void Connect(VertexId s, PredicateId p, VertexId o,
               const std::string& source) {
    EdgeMeta meta;
    meta.source = graph_.sources().Intern(source);
    graph_.AddEdge(s, p, o, meta);
  }

  PropertyGraph graph_;
  VertexId src_, dst_, mid_good_, mid_bad_, far1_, far2_;
  PredicateId p_, via_;
};

TEST_F(PathFixture, FindsPathsRankedByCoherence) {
  PathSearch search(&graph_);
  auto paths = search.FindPaths(src_, dst_);
  ASSERT_GE(paths.size(), 2u);
  // Best path goes through mid_good (low divergence all along).
  ASSERT_EQ(paths[0].vertices.size(), 3u);
  EXPECT_EQ(paths[0].vertices[1], mid_good_);
  // Coherences ascend.
  for (size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].coherence, paths[i - 1].coherence);
  }
}

TEST_F(PathFixture, RelationshipConstraintFiltersFinalEdge) {
  PathSearch search(&graph_);
  auto paths = search.FindPaths(src_, dst_, via_);
  ASSERT_FALSE(paths.empty());
  for (const PathResult& path : paths) {
    EXPECT_EQ(graph_.Edge(path.edges.back()).predicate, via_);
  }
}

TEST_F(PathFixture, MultiSourceProvenanceCollected) {
  PathSearch search(&graph_);
  auto paths = search.FindPaths(src_, dst_);
  ASSERT_FALSE(paths.empty());
  // The winning path spans wsj + web.
  EXPECT_EQ(paths[0].sources.size(), 2u);
}

TEST_F(PathFixture, DegenerateQueriesReturnEmpty) {
  PathSearch search(&graph_);
  EXPECT_TRUE(search.FindPaths(src_, src_).empty());
  EXPECT_TRUE(search.FindPaths(9999, dst_).empty());
}

TEST_F(PathFixture, MaxHopsLimitsDepth) {
  PathSearchConfig config;
  config.max_hops = 1;
  PathSearch search(&graph_, config);
  EXPECT_TRUE(search.FindPaths(src_, dst_).empty());  // min path is 2
}

TEST_F(PathFixture, CoherenceComputation) {
  double c = ComputePathCoherence(graph_, {src_, mid_good_, dst_});
  double bad = ComputePathCoherence(graph_, {src_, mid_bad_, dst_});
  EXPECT_LT(c, bad);
  EXPECT_DOUBLE_EQ(ComputePathCoherence(graph_, {src_}), 0.0);
}

TEST_F(PathFixture, TopicGuidanceBeatsBfsOnCoherence) {
  PathSearchConfig config;
  config.top_k = 1;
  PathSearch search(&graph_, config);
  auto guided = search.FindPaths(src_, dst_);
  auto bfs = BfsShortestPaths(graph_, src_, dst_, 1, 4);
  ASSERT_FALSE(guided.empty());
  ASSERT_FALSE(bfs.empty());
  // BFS may return either 2-hop path; guided always returns the
  // coherent one.
  EXPECT_LE(guided[0].coherence, bfs[0].coherence);
  EXPECT_EQ(guided[0].vertices[1], mid_good_);
}

// Regression: equal-coherence paths used to land in std::sort's
// unspecified order, so the top-k cut could differ across platforms.
// Ties now break lexicographically by (vertices, edges).
TEST(PathTieBreakTest, EqualCoherencePathsSortLexicographically) {
  PropertyGraph graph;
  VertexId src = graph.GetOrAddVertex("src");
  VertexId dst = graph.GetOrAddVertex("dst");
  // All mids share one topic distribution -> every 2-hop path has
  // identical coherence. Edges are inserted in *descending* mid id
  // order so discovery order disagrees with the required ordering.
  std::vector<VertexId> mids;
  for (const char* name : {"m1", "m2", "m3", "m4"}) {
    mids.push_back(graph.GetOrAddVertex(name));
  }
  for (VertexId v : {src, dst, mids[0], mids[1], mids[2], mids[3]}) {
    graph.SetVertexTopics(v, {1.0, 0.0});
  }
  PredicateId rel = graph.predicates().Intern("rel");
  EdgeMeta meta;
  meta.source = graph.sources().Intern("wsj");
  for (size_t i = mids.size(); i-- > 0;) {
    graph.AddEdge(src, rel, mids[i], meta);
    graph.AddEdge(mids[i], rel, dst, meta);
  }
  PathSearchConfig config;
  config.top_k = 3;  // ties decide who survives the cut
  PathSearch search(&graph, config);
  auto first = search.FindPaths(src, dst);
  ASSERT_EQ(first.size(), 3u);
  for (size_t i = 0; i + 1 < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].coherence, first[i + 1].coherence);
    EXPECT_LT(first[i].vertices, first[i + 1].vertices);
  }
  // Lowest mid ids win the cut, in ascending order.
  EXPECT_EQ(first[0].vertices[1], mids[0]);
  EXPECT_EQ(first[1].vertices[1], mids[1]);
  EXPECT_EQ(first[2].vertices[1], mids[2]);
  // And the ordering is reproducible call over call.
  for (int round = 0; round < 3; ++round) {
    auto again = search.FindPaths(src, dst);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(again[i].vertices, first[i].vertices);
      EXPECT_EQ(again[i].edges, first[i].edges);
    }
  }
}

// ---------- Baselines ----------

TEST_F(PathFixture, BfsFindsShortestFirst) {
  auto paths = BfsShortestPaths(graph_, src_, dst_, 5, 4);
  ASSERT_GE(paths.size(), 3u);
  EXPECT_EQ(paths[0].vertices.size(), 3u);  // 2-hop before 3-hop
  EXPECT_LE(paths[0].vertices.size(), paths.back().vertices.size());
}

TEST_F(PathFixture, BfsHonorsRelationshipConstraint) {
  auto paths = BfsShortestPaths(graph_, src_, dst_, 5, 4, via_);
  ASSERT_FALSE(paths.empty());
  for (const PathResult& path : paths) {
    EXPECT_EQ(graph_.Edge(path.edges.back()).predicate, via_);
  }
}

TEST_F(PathFixture, RandomWalkFindsSomePath) {
  auto paths = RandomWalkPaths(graph_, src_, dst_, 3, 4, 500, 42);
  ASSERT_FALSE(paths.empty());
  for (const PathResult& path : paths) {
    EXPECT_EQ(path.vertices.front(), src_);
    EXPECT_EQ(path.vertices.back(), dst_);
  }
}

// ---------- Query parser ----------

TEST(QueryParserTest, TrendingForms) {
  auto q = ParseQuery("what is trending?");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->kind, QueryKind::kTrending);
  EXPECT_EQ(ParseQuery("trending")->kind, QueryKind::kTrending);
}

TEST(QueryParserTest, EntityForms) {
  auto q = ParseQuery("Tell me about DJI.");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->kind, QueryKind::kEntity);
  EXPECT_EQ(q->entity_a, "DJI");
  auto q2 = ParseQuery("who is Tom Marino?");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->entity_a, "Tom Marino");
}

TEST(QueryParserTest, WhyQuestionExtractsConstraint) {
  auto q = ParseQuery("why would Windermere use drones?");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->kind, QueryKind::kRelationship);
  EXPECT_EQ(q->entity_a, "Windermere");
  EXPECT_EQ(q->entity_b, "drones");
  EXPECT_EQ(q->predicate, "use");
}

TEST(QueryParserTest, ExplainWithVia) {
  auto q = ParseQuery("explain DJI and FAA via regulates");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->kind, QueryKind::kRelationship);
  EXPECT_EQ(q->entity_a, "DJI");
  EXPECT_EQ(q->entity_b, "FAA");
  EXPECT_EQ(q->predicate, "regulates");
}

TEST(QueryParserTest, PathsForm) {
  auto q = ParseQuery("paths from DJI to Seattle");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->kind, QueryKind::kSearch);
  EXPECT_EQ(q->entity_a, "DJI");
  EXPECT_EQ(q->entity_b, "Seattle");
}

TEST(QueryParserTest, PatternsForm) {
  EXPECT_EQ(ParseQuery("show patterns")->kind, QueryKind::kPattern);
}

TEST(QueryParserTest, RejectsUnknownText) {
  EXPECT_FALSE(ParseQuery("make me a sandwich").ok());
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("tell me about ").ok());
}

// ---------- Query engine ----------

class EngineFixture : public PathFixture {
 protected:
  EngineFixture() : engine_(&graph_, nullptr) {}
  QueryEngine engine_;
};

TEST_F(EngineFixture, EntityQueryListsFacts) {
  Query q;
  q.kind = QueryKind::kEntity;
  q.entity_a = "src";
  auto answer = engine_.Execute(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->facts.size(), 3u);  // src's three outgoing edges
  EXPECT_FALSE(answer->Render(graph_).empty());
}

TEST_F(EngineFixture, EntityQueryCaseInsensitive) {
  Query q;
  q.kind = QueryKind::kEntity;
  q.entity_a = "SRC";
  EXPECT_TRUE(engine_.Execute(q).ok());
}

TEST_F(EngineFixture, UnknownEntityIsNotFound) {
  Query q;
  q.kind = QueryKind::kEntity;
  q.entity_a = "Nonexistent Corp";
  auto answer = engine_.Execute(q);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineFixture, RelationshipQueryReturnsPathsWithSources) {
  auto answer = engine_.ExecuteText("explain src and dst");
  ASSERT_TRUE(answer.ok());
  ASSERT_FALSE(answer->paths.empty());
  EXPECT_GE(answer->distinct_sources, 2u);
}

TEST_F(EngineFixture, UnknownPredicateConstraintFallsBack) {
  auto answer = engine_.ExecuteText("explain src and dst via bogus_pred");
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->paths.empty());
}

TEST_F(EngineFixture, TrendingRanksActiveEntities) {
  auto answer = engine_.ExecuteText("what is trending");
  ASSERT_TRUE(answer.ok());
  ASSERT_FALSE(answer->hot_entities.empty());
  // src and dst each touch 3 stream edges; they lead the ranking.
  EXPECT_TRUE(answer->hot_entities[0].first == "src" ||
              answer->hot_entities[0].first == "dst");
  EXPECT_FALSE(answer->facts.empty());
}

TEST_F(EngineFixture, PatternQueryWithoutMinerIsEmpty) {
  auto answer = engine_.ExecuteText("show patterns");
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->patterns().empty());
}

// ---------- Path-search extensions ----------

TEST_F(PathFixture, MinEdgeConfidenceFiltersUntrustedEdges) {
  // Lower the confidence of the good path's first edge; with a
  // confidence floor, only the other routes remain.
  auto good_edge = graph_.FindEdge(src_, p_, mid_good_);
  ASSERT_TRUE(good_edge.has_value());
  graph_.SetEdgeConfidence(*good_edge, 0.1);
  PathSearchConfig config;
  config.min_edge_confidence = 0.5;
  PathSearch search(&graph_, config);
  auto paths = search.FindPaths(src_, dst_);
  ASSERT_FALSE(paths.empty());
  for (const PathResult& path : paths) {
    for (EdgeId e : path.edges) {
      EXPECT_GE(graph_.Edge(e).meta.confidence, 0.5);
    }
    EXPECT_NE(path.vertices[1], mid_good_);
  }
}

TEST_F(PathFixture, ConstraintAnywhereMatchesInteriorEdges) {
  // `via_` appears only as mid_good -> dst. With a final-edge
  // constraint on a 3-hop budget it is reachable; extend the fixture
  // so `via_` appears mid-path: src -[via]-> far1 -> far2 -> dst.
  Connect(src_, via_, far1_, "extra");
  PathSearchConfig config;
  config.constraint_anywhere = true;
  config.top_k = 10;
  PathSearch search(&graph_, config);
  auto paths = search.FindPaths(src_, dst_, via_);
  ASSERT_FALSE(paths.empty());
  for (const PathResult& path : paths) {
    bool has_via = false;
    for (EdgeId e : path.edges) {
      if (graph_.Edge(e).predicate == via_) has_via = true;
    }
    EXPECT_TRUE(has_via);
  }
  // At least one returned path satisfies the constraint on a
  // non-final edge.
  bool interior = false;
  for (const PathResult& path : paths) {
    for (size_t i = 0; i + 1 < path.edges.size(); ++i) {
      if (graph_.Edge(path.edges[i]).predicate == via_) interior = true;
    }
  }
  EXPECT_TRUE(interior);
}

// ---------- Rising-trend ranking ----------

TEST(TrendingTest, RisingRankingPrefersEmergingEntities) {
  PropertyGraph g;
  PredicateId p = g.predicates().Intern("mentions");
  // "Steady Corp": active in both windows. "Newcomer Inc": active only
  // recently. Horizon 100: recent = [100, 200], previous = [0, 100).
  VertexId steady = g.GetOrAddVertex("Steady Corp");
  VertexId newcomer = g.GetOrAddVertex("Newcomer Inc");
  auto add = [&](VertexId v, Timestamp ts, int i) {
    EdgeMeta meta;
    meta.timestamp = ts;
    meta.source = g.sources().Intern("feed");
    g.AddEdge(v, p,
              g.GetOrAddVertex("other" + std::to_string(ts) +
                               std::to_string(i)),
              meta);
  };
  for (int i = 0; i < 5; ++i) add(steady, 50, i);    // previous window
  for (int i = 0; i < 5; ++i) add(steady, 150, i);   // recent window
  for (int i = 0; i < 4; ++i) add(newcomer, 160, i); // recent only
  add(steady, 200, 99);  // sets `newest`

  QueryEngineConfig rising;
  rising.trending_horizon = 100;
  rising.trending_rising = true;
  QueryEngine rising_engine(&g, nullptr, rising);
  auto answer = rising_engine.ExecuteText("what is trending");
  ASSERT_TRUE(answer.ok());
  ASSERT_FALSE(answer->hot_entities.empty());
  // Newcomer rises by +4, steady by +1 (6 recent - 5 previous).
  EXPECT_EQ(answer->hot_entities[0].first, "Newcomer Inc");

  QueryEngineConfig raw;
  raw.trending_horizon = 100;
  raw.trending_rising = false;
  QueryEngine raw_engine(&g, nullptr, raw);
  auto raw_answer = raw_engine.ExecuteText("what is trending");
  ASSERT_TRUE(raw_answer.ok());
  // Raw recent counts put the steady entity first (6 vs 4).
  EXPECT_EQ(raw_answer->hot_entities[0].first, "Steady Corp");
}

// ---------- Rendering ----------

TEST(RenderTest, ExtractedFactWithoutSourceRendersCleanly) {
  PropertyGraph g;
  PredicateId p = g.predicates().Intern("acquired");
  VertexId a = g.GetOrAddVertex("Acme");
  VertexId b = g.GetOrAddVertex("Biz");
  EdgeMeta meta;  // no source interned: provenance is unknown
  g.AddEdge(a, p, b, meta);
  QueryEngine engine(&g, nullptr);
  auto answer = engine.ExecuteText("tell me about Acme");
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->facts.size(), 1u);
  EXPECT_TRUE(answer->facts[0].source.empty());
  std::string rendered = answer->Render(g);
  EXPECT_NE(rendered.find("[extracted]"), std::string::npos);
  // The dangling-bracket regression: never "[extracted from ]".
  EXPECT_EQ(rendered.find("[extracted from ]"), std::string::npos);
}

// ---------- Look-ahead vs confidence filter ----------

// The look-ahead regression: guidance must ignore edges the expansion
// step would refuse to traverse. The graph plants a lure vertex whose
// only route to the target is a low-confidence edge, and a detour
// whose route is trustworthy; with beam_width=1 the search lives or
// dies by the look-ahead's ranking.
//
//   src -(1.0)-> lure   -(0.2)-> dst     lure matches dst's topics
//   src -(0.9)-> detour -(0.9)-> dst     detour is topically farther
TEST(LookaheadTest, ConfidenceFilterAppliesToLookahead) {
  PropertyGraph g;
  PredicateId p = g.predicates().Intern("rel");
  auto add_vertex = [&](const std::string& name,
                        std::vector<double> topics) {
    VertexId v = g.GetOrAddVertex(name);
    g.SetVertexTopics(v, std::move(topics));
    return v;
  };
  VertexId src = add_vertex("src", {0.5, 0.5});
  VertexId dst = add_vertex("dst", {0.9, 0.1});
  VertexId lure = add_vertex("lure", {0.9, 0.1});
  VertexId detour = add_vertex("detour", {0.7, 0.3});
  auto connect = [&](VertexId s, VertexId o, double confidence) {
    EdgeMeta meta;
    meta.confidence = confidence;
    meta.source = g.sources().Intern("feed");
    g.AddEdge(s, p, o, meta);
  };
  connect(src, lure, 1.0);
  connect(lure, dst, 0.2);
  connect(src, detour, 0.9);
  connect(detour, dst, 0.9);

  PathSearchConfig config;
  config.beam_width = 1;
  config.max_hops = 2;
  config.min_edge_confidence = 0.5;
  PathSearch search(&g, config);
  auto paths = search.FindPaths(src, dst);
  // A look-ahead that counted the untraversable lure->dst edge would
  // rank the lure first, commit the one-slot beam to it, and find
  // nothing. Filter-aware guidance picks the trustworthy detour.
  ASSERT_EQ(paths.size(), 1u);
  ASSERT_EQ(paths[0].vertices.size(), 3u);
  EXPECT_EQ(paths[0].vertices[1], detour);
  for (EdgeId e : paths[0].edges) {
    EXPECT_GE(g.Edge(e).meta.confidence, 0.5);
  }
}

// constraint_anywhere composes with the confidence floor: an interior
// constraint edge below the floor must not count.
TEST_F(PathFixture, ConstraintAnywhereHonorsConfidenceFloor) {
  // Two routes carry `via_`: mid_good -> dst (will be untrusted) and
  // a fresh src -[via]-> far1 leg (trusted).
  Connect(src_, via_, far1_, "extra");
  auto via_edge = graph_.FindEdge(mid_good_, via_, dst_);
  ASSERT_TRUE(via_edge.has_value());
  graph_.SetEdgeConfidence(*via_edge, 0.1);
  PathSearchConfig config;
  config.constraint_anywhere = true;
  config.min_edge_confidence = 0.5;
  config.top_k = 10;
  PathSearch search(&graph_, config);
  auto paths = search.FindPaths(src_, dst_, via_);
  ASSERT_FALSE(paths.empty());
  for (const PathResult& path : paths) {
    bool has_trusted_via = false;
    for (EdgeId e : path.edges) {
      EXPECT_GE(graph_.Edge(e).meta.confidence, 0.5);
      if (graph_.Edge(e).predicate == via_) has_trusted_via = true;
    }
    EXPECT_TRUE(has_trusted_via);
  }
}

// Under the final-edge constraint only an edge of the constrained
// predicate closes a path into the target; a predicate that never
// closes into the target yields nothing, and the engine-level fallback
// (see UnknownPredicateConstraintFallsBack) re-runs unconstrained.
TEST_F(PathFixture, FinalEdgeConstraintClosesOnlyThroughThePredicate) {
  PathSearchConfig config;
  config.top_k = 10;
  PathSearch search(&graph_, config);
  // `via_` closes into dst only through mid_good.
  auto via_paths = search.FindPaths(src_, dst_, via_);
  ASSERT_FALSE(via_paths.empty());
  for (const PathResult& path : via_paths) {
    EXPECT_EQ(graph_.Edge(path.edges.back()).predicate, via_);
  }
  // A predicate with no edge into dst cannot close any path.
  PredicateId unused = graph_.predicates().Intern("unused_pred");
  EXPECT_TRUE(search.FindPaths(src_, dst_, unused).empty());
}

// The closing step of final-edge-constrained search: from tail t, every
// `via` edge between t and the target z closes a path, in either
// direction and including parallel edges, while t<->z edges of another
// predicate and `via` edges to other vertices do not.
//
//   e0 a -rel-> t      e4 t -via-> z      e8 o1 -via-> t
//   e1 t -rel-> z      e5 z -via-> t      e9 t -via-> o2
//   e2 t -via-> z      e6 t -rel-> z
//   e3 z -rel-> t      e7 t -via-> o1
TEST(PathClosingTest, ClosesThroughEveryViaEdgeBetweenTailAndTarget) {
  PropertyGraph g;
  auto add_vertex = [&](const std::string& name,
                        std::vector<double> topics) {
    VertexId v = g.GetOrAddVertex(name);
    g.SetVertexTopics(v, std::move(topics));
    return v;
  };
  VertexId a = add_vertex("a", {0.6, 0.4});
  VertexId t = add_vertex("t", {0.7, 0.3});
  VertexId z = add_vertex("z", {0.8, 0.2});
  VertexId o1 = add_vertex("o1", {0.5, 0.5});
  VertexId o2 = add_vertex("o2", {0.4, 0.6});
  PredicateId rel = g.predicates().Intern("rel");
  PredicateId via = g.predicates().Intern("via");
  int next_source = 0;
  auto connect = [&](VertexId s, PredicateId p, VertexId o) {
    EdgeMeta meta;
    meta.source = g.sources().Intern("s" + std::to_string(next_source++));
    g.AddEdge(s, p, o, meta);
  };
  connect(a, rel, t);
  connect(t, rel, z);
  connect(t, via, z);
  connect(z, rel, t);
  connect(t, via, z);
  connect(z, via, t);
  connect(t, rel, z);
  connect(t, via, o1);
  connect(o1, via, t);
  connect(t, via, o2);

  PathSearchConfig config;
  config.top_k = 10;
  PathSearch search(&g, config);
  const std::vector<PathResult> paths = search.FindPaths(a, z, via);
  const std::vector<VertexId> vertices = {a, t, z};
  const std::vector<std::vector<EdgeId>> edges = {{0, 2}, {0, 4}, {0, 5}};
  const std::vector<std::vector<SourceId>> sources = {
      {0, 2}, {0, 4}, {0, 5}};
  ASSERT_EQ(paths.size(), edges.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(paths[i].vertices, vertices) << i;
    EXPECT_EQ(paths[i].edges, edges[i]) << i;
    EXPECT_EQ(paths[i].sources, sources[i]) << i;
    EXPECT_DOUBLE_EQ(paths[i].coherence, ComputePathCoherence(g, vertices));
  }
}


// ---------- Entity and trending answers against reference engines ----------

// The entity and trending answers as first written: an entity's edges
// pass through a std::set and whole FactLines are sorted; trending
// counts into two std::maps and looks both up in its comparator. The
// engine's merge and sort-plus-run-length versions must render the
// same bytes, tie order included.
FactLine ReferenceFactLine(const PropertyGraph& g, EdgeId edge) {
  const EdgeRecord& rec = g.Edge(edge);
  FactLine line;
  line.subject = g.VertexLabel(rec.subject);
  line.predicate = g.predicates().GetString(rec.predicate);
  line.object = g.VertexLabel(rec.object);
  line.confidence = rec.meta.confidence;
  line.curated = rec.meta.curated;
  line.source = rec.meta.source == kInvalidSource
                    ? ""
                    : g.sources().GetString(rec.meta.source);
  line.timestamp = rec.meta.timestamp;
  return line;
}

Answer ReferenceEntity(const PropertyGraph& g, VertexId v, Timestamp since) {
  Answer answer;
  answer.kind = QueryKind::kEntity;
  std::set<EdgeId> edges;
  for (const AdjEntry& a : g.OutEdges(v)) edges.insert(a.edge);
  for (const AdjEntry& a : g.InEdges(v)) edges.insert(a.edge);
  for (EdgeId e : edges) {
    if (since != 0 && g.Edge(e).meta.timestamp < since) continue;
    answer.facts.push_back(ReferenceFactLine(g, e));
  }
  std::sort(answer.facts.begin(), answer.facts.end(),
            [](const FactLine& a, const FactLine& b) {
              if (a.curated != b.curated) return a.curated > b.curated;
              return a.timestamp > b.timestamp;
            });
  return answer;
}

Answer ReferenceTrending(const PropertyGraph& g,
                         const std::vector<RenderedPattern>& patterns,
                         const QueryEngineConfig& config) {
  Answer answer;
  answer.kind = QueryKind::kTrending;
  Timestamp newest = g.MaxEdgeTimestamp();
  Timestamp cutoff =
      config.trending_horizon == 0 ? 0 : newest - config.trending_horizon;
  Timestamp previous_cutoff =
      config.trending_horizon == 0 ? 0 : cutoff - config.trending_horizon;
  std::map<VertexId, size_t> activity;
  std::map<VertexId, size_t> previous_activity;
  std::vector<EdgeId> recent_edges;
  g.ForEachEdge([&](EdgeId e, const EdgeRecord& rec) {
    if (rec.meta.curated) return;
    if (rec.meta.timestamp >= cutoff) {
      ++activity[rec.subject];
      ++activity[rec.object];
      recent_edges.push_back(e);
    } else if (config.trending_horizon != 0 &&
               rec.meta.timestamp >= previous_cutoff) {
      ++previous_activity[rec.subject];
      ++previous_activity[rec.object];
    }
  });
  auto score_of = [&](VertexId v, size_t recent) -> double {
    if (!config.trending_rising) return static_cast<double>(recent);
    auto it = previous_activity.find(v);
    size_t previous = it == previous_activity.end() ? 0 : it->second;
    return static_cast<double>(recent) - static_cast<double>(previous);
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
    if (answer.hot_entities.size() >= config.trending_limit) break;
    answer.hot_entities.emplace_back(g.VertexLabel(v), count);
  }
  for (EdgeId e : recent_edges) {
    if (answer.facts.size() >= config.trending_limit) break;
    answer.facts.push_back(ReferenceFactLine(g, e));
  }
  if (!patterns.empty()) {
    answer.pattern_set = std::make_shared<const RenderedPatternSet>(
        RenderedPatternSet{patterns});
  }
  return answer;
}

/// A random stream KG: `isolated` trailing vertices with no edge, a
/// hub on a quarter of the edges, self-loops, curated edges, parallel
/// edges and timestamps from a narrow range (so windows, counts and
/// rising scores tie often).
PropertyGraph RandomStreamGraph(uint64_t seed, size_t vertices,
                                size_t isolated, size_t edges,
                                Timestamp max_timestamp) {
  Rng rng(seed);
  PropertyGraph g;
  for (size_t i = 0; i < vertices + isolated; ++i) {
    g.GetOrAddVertex("v" + std::to_string(i));
  }
  std::vector<PredicateId> predicates;
  for (const char* name : {"acquired", "invested_in", "partner_of"}) {
    predicates.push_back(g.predicates().Intern(name));
  }
  std::vector<SourceId> sources;
  for (const char* name : {"wsj", "web", "blog"}) {
    sources.push_back(g.sources().Intern(name));
  }
  auto pick = [&] {
    if (rng.Bernoulli(0.25)) return VertexId{0};  // the hub
    return static_cast<VertexId>(rng.UniformInt(vertices));
  };
  for (size_t i = 0; i < edges; ++i) {
    VertexId s = pick();
    VertexId o = rng.Bernoulli(0.08) ? s : pick();
    EdgeMeta meta;
    meta.curated = rng.Bernoulli(0.15);
    meta.timestamp = rng.UniformRange(0, max_timestamp);
    meta.confidence = 0.25 * static_cast<double>(rng.UniformRange(1, 4));
    if (!meta.curated && rng.Bernoulli(0.8)) {
      meta.source = sources[rng.UniformInt(sources.size())];
    }
    g.AddEdge(s, predicates[rng.UniformInt(predicates.size())], o, meta);
  }
  return g;
}

TEST(AnswerOracleTest, EntityAnswersMatchTheSetAndSortReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const size_t vertices = 4 + seed * 5;
    const Timestamp max_timestamp = static_cast<Timestamp>(seed % 4) * 20 + 3;
    PropertyGraph g =
        RandomStreamGraph(seed, vertices, 3, 40 + seed * 30, max_timestamp);
    QueryEngine engine(&g, nullptr);
    size_t self_loops = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (const AdjEntry& a : g.OutEdges(v)) self_loops += a.neighbor == v;
      for (Timestamp since : {Timestamp{0}, Timestamp{1}, max_timestamp / 2,
                              max_timestamp + 1}) {
        Query q;
        q.kind = QueryKind::kEntity;
        q.entity_a = g.VertexLabel(v);
        q.since = since;
        Result<Answer> answer = engine.Execute(q);
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        EXPECT_EQ(answer->Render(g), ReferenceEntity(g, v, since).Render(g))
            << "seed " << seed << " vertex " << v << " since " << since;
      }
    }
    EXPECT_GT(self_loops, 0u) << "seed " << seed;
    EXPECT_TRUE(g.OutEdges(g.NumVertices() - 1).empty());
    EXPECT_TRUE(g.InEdges(g.NumVertices() - 1).empty());
  }
}

/// A date-ordered stream KG of `edges` edges (at least 4 zone chunks):
/// timestamps advance one step per `edges_per_step` edges, 1 in 25 is
/// a straggler from up to 400 steps back, and the first 300 edges are
/// a curated prefix at timestamp 0. Trending then skips the chunks
/// before its windows and reads those that meet them, stragglers'
/// chunks included.
PropertyGraph DateOrderedStreamGraph(uint64_t seed, size_t vertices,
                                     size_t edges, size_t edges_per_step) {
  Rng rng(seed);
  PropertyGraph g;
  for (size_t i = 0; i < vertices; ++i) {
    g.GetOrAddVertex("v" + std::to_string(i));
  }
  const PredicateId p = g.predicates().Intern("acquired");
  const SourceId source = g.sources().Intern("wsj");
  for (size_t i = 0; i < edges; ++i) {
    EdgeMeta meta;
    meta.curated = i < 300;
    if (!meta.curated) {
      meta.timestamp = static_cast<Timestamp>(i / edges_per_step);
      if (rng.Bernoulli(0.04)) {
        meta.timestamp -= static_cast<Timestamp>(rng.UniformInt(400));
      }
      meta.source = source;
    }
    const VertexId s = static_cast<VertexId>(rng.UniformInt(vertices));
    const VertexId o = static_cast<VertexId>(rng.UniformInt(vertices));
    g.AddEdge(s, p, o, meta);
  }
  return g;
}

/// Renders trending under every (horizon, rising, limit) config on `g`
/// against ReferenceTrending; adds adjacent equal-count rows to
/// `tied_rows` and the zone chunks the windows skip and meet to
/// `skipped` / `met`.
void ExpectTrendingMatchesReference(const PropertyGraph& g,
                                    const std::vector<Timestamp>& horizons,
                                    const std::string& label,
                                    size_t* tied_rows, size_t* skipped,
                                    size_t* met) {
  const std::vector<RenderedPattern> patterns = {
      {"(company)-[acquired]->(company)", 5, 7},
      {"(company)-[partner_of]->(company)", 3, 3}};
  for (Timestamp horizon : horizons) {
    for (bool rising : {true, false}) {
      for (size_t limit : {size_t{0}, size_t{3}, size_t{10},
                           size_t{100000}}) {
        QueryEngineConfig config;
        config.trending_horizon = horizon;
        config.trending_rising = rising;
        config.trending_limit = limit;
        QueryEngine engine(&g, patterns, config);
        Result<Answer> answer = engine.ExecuteText("what is trending");
        ASSERT_TRUE(answer.ok());
        const Answer reference = ReferenceTrending(g, patterns, config);
        EXPECT_EQ(answer->Render(g), reference.Render(g))
            << label << " horizon " << horizon << " rising " << rising
            << " limit " << limit;
        for (size_t i = 1; i < reference.hot_entities.size(); ++i) {
          *tied_rows += reference.hot_entities[i].second ==
                        reference.hot_entities[i - 1].second;
        }
      }
      // The chunks a rising query's windows meet.
      const Timestamp newest = g.MaxEdgeTimestamp();
      const Timestamp lo = horizon == 0 ? 0 : newest - 2 * horizon;
      for (size_t z = 0; z < g.NumEdgeZones(); ++z) {
        ++*(g.EdgeZoneAt(z).Meets(lo, newest) ? met : skipped);
      }
    }
  }
}

TEST(AnswerOracleTest, TrendingAnswersMatchTheOrderedMapReference) {
  size_t tied_rows = 0;
  size_t skipped = 0;
  size_t met = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Timestamp max_timestamp = static_cast<Timestamp>(seed % 4) * 20 + 3;
    PropertyGraph g = RandomStreamGraph(seed, 4 + seed * 5, 3,
                                        40 + seed * 30, max_timestamp);
    ExpectTrendingMatchesReference(
        g, {Timestamp{0}, Timestamp{1}, Timestamp{5}, max_timestamp + 1},
        "random seed " + std::to_string(seed), &tied_rows, &skipped, &met);
  }
  // Adjacent rows with equal counts (equal scores, with rising off)
  // must occur, or the tie order would go untested.
  EXPECT_GT(tied_rows, 100u);

  // Date-ordered streams of 5-7 chunks, where the zone map lets
  // trending skip the chunks before its windows.
  skipped = 0;
  met = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const size_t edges = 1100 + seed * 150;
    PropertyGraph g = DateOrderedStreamGraph(seed, 20 + seed * 10, edges,
                                             2 + seed % 3);
    ASSERT_GE(g.NumEdgeZones(), 4u);
    ExpectTrendingMatchesReference(
        g, {Timestamp{0}, Timestamp{3}, Timestamp{40}, Timestamp{150}},
        "date-ordered seed " + std::to_string(seed), &tied_rows, &skipped,
        &met);
  }
  EXPECT_GT(skipped, 0u) << "no chunk was skipped";
  EXPECT_GT(met, 0u) << "no chunk was read";
}

}  // namespace
}  // namespace nous
