#include <sstream>

#include <gtest/gtest.h>

#include "graph/dot_export.h"
#include "graph/graph_algorithms.h"
#include "graph/property_graph.h"

namespace nous {
namespace {

// ---------- Connected components ----------

TEST(ComponentsTest, TwoIslandsAndIsolate) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  VertexId d = g.GetOrAddVertex("d");
  VertexId lone = g.GetOrAddVertex("lone");
  PredicateId p = g.predicates().Intern("p");
  g.AddEdge(a, p, b, {});
  g.AddEdge(d, p, c, {});  // direction must not matter
  size_t count = 0;
  auto component = WeaklyConnectedComponents(g, &count);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(component[a], component[b]);
  EXPECT_EQ(component[c], component[d]);
  EXPECT_NE(component[a], component[c]);
  EXPECT_NE(component[lone], component[a]);
  EXPECT_NE(component[lone], component[c]);
}

TEST(ComponentsTest, EmptyGraph) {
  PropertyGraph g;
  size_t count = 99;
  EXPECT_TRUE(WeaklyConnectedComponents(g, &count).empty());
  EXPECT_EQ(count, 0u);
}

// ---------- PageRank ----------

TEST(PageRankTest, SumsToOneAndFavorsSinks) {
  PropertyGraph g;
  // Star into "hub": everyone points at it.
  VertexId hub = g.GetOrAddVertex("hub");
  PredicateId p = g.predicates().Intern("p");
  for (int i = 0; i < 5; ++i) {
    g.AddEdge(g.GetOrAddVertex("s" + std::to_string(i)), p, hub, {});
  }
  auto rank = PageRank(g);
  double sum = 0;
  for (double r : rank) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (v != hub) {
      EXPECT_GT(rank[hub], rank[v]);
    }
  }
}

TEST(PageRankTest, SymmetricCycleIsUniform) {
  PropertyGraph g;
  PredicateId p = g.predicates().Intern("p");
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  g.AddEdge(a, p, b, {});
  g.AddEdge(b, p, c, {});
  g.AddEdge(c, p, a, {});
  auto rank = PageRank(g);
  EXPECT_NEAR(rank[a], rank[b], 1e-9);
  EXPECT_NEAR(rank[b], rank[c], 1e-9);
}

TEST(PageRankTest, EmptyGraphIsEmpty) {
  PropertyGraph g;
  EXPECT_TRUE(PageRank(g).empty());
}

// ---------- Ego network ----------

TEST(EgoNetworkTest, RadiusBoundsExpansion) {
  PropertyGraph g;
  PredicateId p = g.predicates().Intern("p");
  // Chain a -> b -> c -> d.
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  VertexId d = g.GetOrAddVertex("d");
  g.AddEdge(a, p, b, {});
  g.AddEdge(b, p, c, {});
  g.AddEdge(c, p, d, {});
  auto zero = EgoNetwork(g, a, 0);
  ASSERT_EQ(zero.size(), 1u);
  EXPECT_EQ(zero[0], a);
  auto one = EgoNetwork(g, a, 1);
  EXPECT_EQ(one.size(), 2u);
  auto two = EgoNetwork(g, a, 2);
  EXPECT_EQ(two.size(), 3u);
  // In-edges count too: ego of d at radius 1 includes c.
  auto dr = EgoNetwork(g, d, 1);
  EXPECT_EQ(dr.size(), 2u);
  // Out-of-range center is safe.
  EXPECT_TRUE(EgoNetwork(g, 999, 1).empty());
}

// ---------- DOT export ----------

TEST(DotExportTest, WholeGraphContainsNodesAndColoredEdges) {
  PropertyGraph g;
  VertexId dji = g.GetOrAddVertex("DJI");
  VertexId phantom = g.GetOrAddVertex("Phantom 3");
  g.SetVertexType(dji, g.types().Intern("company"));
  PredicateId p = g.predicates().Intern("manufactures");
  EdgeMeta curated;
  curated.curated = true;
  g.AddEdge(dji, p, phantom, curated);
  EdgeMeta extracted;
  extracted.confidence = 0.75;
  g.AddEdge(phantom, g.predicates().Intern("madeBy"), dji, extracted);

  std::stringstream out;
  ASSERT_TRUE(WriteDot(g, {}, out).ok());
  std::string dot = out.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("DJI\\n(company)"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);   // curated
  EXPECT_NE(dot.find("color=blue"), std::string::npos);  // extracted
  EXPECT_NE(dot.find("(0.75)"), std::string::npos);      // confidence
}

TEST(DotExportTest, VertexFilterDropsOutsideEdges) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  PredicateId p = g.predicates().Intern("p");
  g.AddEdge(a, p, b, {});
  g.AddEdge(b, p, c, {});
  DotOptions options;
  options.vertices = {a, b};
  std::stringstream out;
  ASSERT_TRUE(WriteDot(g, options, out).ok());
  std::string dot = out.str();
  EXPECT_NE(dot.find("v0 -> v1"), std::string::npos);
  EXPECT_EQ(dot.find("v1 -> v2"), std::string::npos);
  EXPECT_EQ(dot.find("\"c\""), std::string::npos);
}

TEST(DotExportTest, EscapesQuotesInLabels) {
  PropertyGraph g;
  VertexId v = g.GetOrAddVertex("The \"Best\" Drone");
  g.AddEdge(v, g.predicates().Intern("p"), g.GetOrAddVertex("x"), {});
  std::stringstream out;
  ASSERT_TRUE(WriteDot(g, {}, out).ok());
  EXPECT_NE(out.str().find("\\\"Best\\\""), std::string::npos);
}

}  // namespace
}  // namespace nous
