#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "graph/graph_generator.h"
#include "graph/graph_io.h"
#include "graph/property_graph.h"

namespace nous {
namespace {

PropertyGraph MakeSampleGraph() {
  PropertyGraph g;
  VertexId dji = g.GetOrAddVertex("DJI");
  VertexId phantom = g.GetOrAddVertex("Phantom 3");
  VertexId seattle = g.GetOrAddVertex("Seattle");
  g.SetVertexType(dji, g.types().Intern("company"));
  g.SetVertexType(phantom, g.types().Intern("drone_model"));
  g.AddVertexTerm(dji, g.terms().Intern("quadcopter"), 2.5);
  g.AddVertexTerm(dji, g.terms().Intern("camera"), 1.0);
  g.SetVertexTopics(dji, {0.25, 0.75});
  EdgeMeta meta;
  meta.confidence = 0.85;
  meta.timestamp = 736000;
  meta.source = g.sources().Intern("wsj");
  meta.curated = false;
  g.AddEdge(dji, g.predicates().Intern("manufactures"), phantom, meta);
  EdgeMeta curated;
  curated.curated = true;
  curated.source = g.sources().Intern("curated_kb");
  g.AddEdge(dji, g.predicates().Intern("headquarteredIn"), seattle,
            curated);
  return g;
}

TEST(GraphIoTest, RoundTripPreservesEverything) {
  PropertyGraph original = MakeSampleGraph();
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(original, buffer).ok());
  auto loaded = LoadGraph(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const PropertyGraph& g = **loaded;

  EXPECT_EQ(g.NumVertices(), original.NumVertices());
  EXPECT_EQ(g.NumEdges(), original.NumEdges());
  auto dji = g.FindVertex("DJI");
  ASSERT_TRUE(dji.has_value());
  EXPECT_EQ(g.types().GetString(g.VertexType(*dji)), "company");
  EXPECT_DOUBLE_EQ(
      g.VertexBag(*dji).at(*g.terms().Lookup("quadcopter")), 2.5);
  EXPECT_EQ(g.VertexTopics(*dji), (std::vector<double>{0.25, 0.75}));

  auto phantom = g.FindVertex("Phantom 3");
  auto pred = g.predicates().Lookup("manufactures");
  ASSERT_TRUE(phantom && pred);
  auto edge = g.FindEdge(*dji, *pred, *phantom);
  ASSERT_TRUE(edge.has_value());
  const EdgeRecord& rec = g.Edge(*edge);
  EXPECT_DOUBLE_EQ(rec.meta.confidence, 0.85);
  EXPECT_EQ(rec.meta.timestamp, 736000);
  EXPECT_EQ(g.sources().GetString(rec.meta.source), "wsj");
  EXPECT_FALSE(rec.meta.curated);

  auto hq = g.predicates().Lookup("headquarteredIn");
  auto seattle = g.FindVertex("Seattle");
  ASSERT_TRUE(hq && seattle);
  auto hq_edge = g.FindEdge(*dji, *hq, *seattle);
  ASSERT_TRUE(hq_edge.has_value());
  EXPECT_TRUE(g.Edge(*hq_edge).meta.curated);
}

TEST(GraphIoTest, RejectsTabInLabel) {
  PropertyGraph g;
  g.GetOrAddVertex("bad\tlabel");
  std::stringstream buffer;
  EXPECT_EQ(SaveGraph(g, buffer).code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, RejectsMissingHeader) {
  std::stringstream buffer("V\tA\t-\n");
  auto loaded = LoadGraph(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, RejectsMalformedRecords) {
  const char* kBadInputs[] = {
      "#nous-graph v1\nV\tonly-two-fields\n",
      "#nous-graph v1\nE\ta\tp\tb\tx\t0\t-\t0\n",       // bad conf
      "#nous-graph v1\nB\tmissing\tterm\t1.0\n",        // unknown vertex
      "#nous-graph v1\nE\ta\tp\tb\t0.5\t0\t-\t2\n",     // bad curated
      "#nous-graph v1\nZ\twhat\n",                       // unknown kind
  };
  for (const char* input : kBadInputs) {
    std::stringstream buffer(input);
    auto loaded = LoadGraph(buffer);
    EXPECT_FALSE(loaded.ok()) << input;
  }
}

TEST(GraphIoTest, EmptyGraphRoundTrips) {
  PropertyGraph g;
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(g, buffer).ok());
  auto loaded = LoadGraph(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->NumVertices(), 0u);
  EXPECT_EQ((*loaded)->NumEdges(), 0u);
}

TEST(GraphIoTest, FileRoundTrip) {
  PropertyGraph g = MakeSampleGraph();
  std::string path = testing::TempDir() + "/nous_graph_io_test.txt";
  ASSERT_TRUE(SaveGraphToFile(g, path).ok());
  auto loaded = LoadGraphFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->NumEdges(), g.NumEdges());
  EXPECT_EQ(LoadGraphFromFile("/definitely/not/here").status().code(),
            StatusCode::kNotFound);
}

TEST(GraphIoTest, EveryTruncationEitherFailsCleanlyOrLoadsAPrefix) {
  // Crash-robustness sweep (DESIGN.md §5.10): a dump cut off at any
  // byte — a partial :save, a copy that died midway — must never
  // crash the loader or yield a graph larger than the original.
  PropertyGraph g = MakeSampleGraph();
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(g, buffer).ok());
  const std::string full = buffer.str();
  ASSERT_GT(full.size(), 0u);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::stringstream truncated(full.substr(0, cut));
    auto loaded = LoadGraph(truncated);
    if (loaded.ok()) {
      EXPECT_LE((*loaded)->NumEdges(), g.NumEdges()) << "cut=" << cut;
      EXPECT_LE((*loaded)->NumVertices(), g.NumVertices())
          << "cut=" << cut;
    }
  }
}

TEST(GraphIoTest, SingleByteCorruptionNeverCrashesTheLoader) {
  PropertyGraph g = MakeSampleGraph();
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(g, buffer).ok());
  const std::string full = buffer.str();
  for (size_t pos = 0; pos < full.size(); ++pos) {
    std::string image = full;
    image[pos] ^= 0x01;
    std::stringstream corrupted(image);
    // A flipped bit may still parse (e.g. inside a label); the
    // contract is an error Status or a well-formed graph — no crash,
    // hang, or unbounded allocation.
    auto loaded = LoadGraph(corrupted);
    (void)loaded;
  }
}

class GraphIoPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphIoPropertyTest, RandomGraphRoundTripsExactly) {
  StreamConfig config;
  config.num_edges = 300;
  config.num_entities = 40;
  config.seed = GetParam();
  PropertyGraph g;
  for (const TimedTriple& t : GenerateStream(config)) g.AddTriple(t);
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(g, buffer).ok());
  auto loaded = LoadGraph(buffer);
  ASSERT_TRUE(loaded.ok());
  const PropertyGraph& h = **loaded;
  ASSERT_EQ(h.NumVertices(), g.NumVertices());
  ASSERT_EQ(h.NumEdges(), g.NumEdges());
  // Edge multisets (parallel edges included) must match exactly.
  auto edge_multiset = [](const PropertyGraph& graph) {
    std::vector<std::string> edges;
    graph.ForEachEdge([&](EdgeId, const EdgeRecord& rec) {
      edges.push_back(StrFormat(
          "%s|%s|%s|%lld|%.6f|%d",
          graph.VertexLabel(rec.subject).c_str(),
          graph.predicates().GetString(rec.predicate).c_str(),
          graph.VertexLabel(rec.object).c_str(),
          static_cast<long long>(rec.meta.timestamp),
          rec.meta.confidence, rec.meta.curated ? 1 : 0));
    });
    std::sort(edges.begin(), edges.end());
    return edges;
  };
  EXPECT_EQ(edge_multiset(g), edge_multiset(h));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphIoPropertyTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace nous
