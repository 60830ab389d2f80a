#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/random.h"
#include "common/string_util.h"
#include "graph/dictionary.h"
#include "graph/graph_generator.h"
#include "graph/graph_stats.h"
#include "graph/property_graph.h"
#include "graph/temporal_window.h"

namespace nous {
namespace {

// ---------- Dictionary ----------

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  uint32_t a = d.Intern("alpha");
  uint32_t b = d.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern("alpha"), a);
  EXPECT_EQ(d.size(), 2u);
}

TEST(DictionaryTest, LookupMissingReturnsNullopt) {
  Dictionary d;
  EXPECT_FALSE(d.Lookup("nope").has_value());
  EXPECT_FALSE(d.Contains("nope"));
}

TEST(DictionaryTest, RoundTrip) {
  Dictionary d;
  uint32_t id = d.Intern("gamma");
  EXPECT_EQ(d.GetString(id), "gamma");
  ASSERT_TRUE(d.Lookup("gamma").has_value());
  EXPECT_EQ(*d.Lookup("gamma"), id);
}

class DictionaryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DictionaryPropertyTest, RandomStringsRoundTrip) {
  Rng rng(GetParam());
  Dictionary d;
  std::vector<std::string> inserted;
  for (int i = 0; i < 500; ++i) {
    std::string s = StrFormat("str_%llu_%d",
                              static_cast<unsigned long long>(
                                  rng.UniformInt(200)),
                              i % 7);
    d.Intern(s);
    inserted.push_back(std::move(s));
  }
  for (const std::string& s : inserted) {
    auto id = d.Lookup(s);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(d.GetString(*id), s);
  }
  // Ids are dense in [0, size).
  for (uint32_t id = 0; id < d.size(); ++id) {
    EXPECT_EQ(*d.Lookup(d.GetString(id)), id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DictionaryPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- PropertyGraph ----------

TEST(PropertyGraphTest, VerticesInternedOnce) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("DJI");
  VertexId b = g.GetOrAddVertex("Parrot");
  EXPECT_NE(a, b);
  EXPECT_EQ(g.GetOrAddVertex("DJI"), a);
  EXPECT_EQ(g.NumVertices(), 2u);
  EXPECT_EQ(g.VertexLabel(a), "DJI");
  ASSERT_TRUE(g.FindVertex("Parrot").has_value());
  EXPECT_FALSE(g.FindVertex("FAA").has_value());
}

TEST(PropertyGraphTest, AddEdgeUpdatesAdjacency) {
  PropertyGraph g;
  VertexId s = g.GetOrAddVertex("a");
  VertexId o = g.GetOrAddVertex("b");
  PredicateId p = g.predicates().Intern("likes");
  EdgeId e = g.AddEdge(s, p, o, EdgeMeta{0.8, 5, kInvalidSource, false});
  EXPECT_EQ(g.NumEdges(), 1u);
  ASSERT_EQ(g.OutDegree(s), 1u);
  ASSERT_EQ(g.InDegree(o), 1u);
  EXPECT_EQ(g.OutEdges(s)[0].neighbor, o);
  EXPECT_EQ(g.OutEdges(s)[0].predicate, p);
  EXPECT_EQ(g.InEdges(o)[0].neighbor, s);
  const EdgeRecord& rec = g.Edge(e);
  EXPECT_EQ(rec.subject, s);
  EXPECT_EQ(rec.object, o);
  EXPECT_DOUBLE_EQ(rec.meta.confidence, 0.8);
  EXPECT_EQ(rec.meta.timestamp, 5);
}

TEST(PropertyGraphTest, ParallelEdgesAllowed) {
  PropertyGraph g;
  VertexId s = g.GetOrAddVertex("a");
  VertexId o = g.GetOrAddVertex("b");
  PredicateId p = g.predicates().Intern("p");
  g.AddEdge(s, p, o, {});
  g.AddEdge(s, p, o, {});
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.OutDegree(s), 2u);
}

TEST(PropertyGraphTest, FindEdgeMatchesTripleExactly) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  PredicateId p = g.predicates().Intern("p");
  PredicateId q = g.predicates().Intern("q");
  g.AddEdge(a, p, b, {});
  EXPECT_TRUE(g.HasEdge(a, p, b));
  EXPECT_FALSE(g.HasEdge(a, q, b));
  EXPECT_FALSE(g.HasEdge(b, p, a));
}

// Lowest-id (s, p, o) edge by a scan of the edge records.
std::optional<EdgeId> FirstEdgeByRecords(const PropertyGraph& g, VertexId s,
                                         PredicateId p, VertexId o) {
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const EdgeRecord& rec = g.Edge(e);
    if (rec.subject == s && rec.predicate == p && rec.object == o) return e;
  }
  return std::nullopt;
}

// FindEdge scans whichever of out(s) and in(o) is shorter; both list
// the (s, ·, o) edges in ascending id order, so either side must find
// the lowest-id parallel edge and skip an (s, p', o) edge before it.
// Endpoints past the graph are not found.
TEST(PropertyGraphTest, FindEdgeReturnsTheLowestIdFromEitherSide) {
  PropertyGraph g;
  PredicateId p = g.predicates().Intern("p");
  PredicateId q = g.predicates().Intern("q");
  VertexId hub = g.GetOrAddVertex("hub");
  VertexId leaf = g.GetOrAddVertex("leaf");
  VertexId other = g.GetOrAddVertex("other");
  auto add_spokes = [&](int from, int to, bool hub_is_subject) {
    for (int i = from; i < to; ++i) {
      VertexId spoke = g.GetOrAddVertex(StrFormat("spoke%d", i));
      if (hub_is_subject) {
        g.AddEdge(hub, p, spoke, {});
      } else {
        g.AddEdge(spoke, p, hub, {});
      }
    }
  };
  // Hub subject, 500 spokes: out(hub) is long, so in(leaf) is scanned.
  g.AddEdge(hub, q, leaf, {});
  add_spokes(0, 100, true);
  g.AddEdge(other, p, leaf, {});
  const EdgeId hub_first = g.AddEdge(hub, p, leaf, {});
  add_spokes(100, 400, true);
  g.AddEdge(hub, p, leaf, {});
  add_spokes(400, 500, true);
  ASSERT_GT(g.OutDegree(hub), g.InDegree(leaf));
  EXPECT_EQ(g.FindEdge(hub, p, leaf), hub_first);
  EXPECT_EQ(g.FindEdge(hub, q, leaf), EdgeId{0});

  // Hub object, 500 spokes: in(hub) is long, so out(leaf) is scanned.
  g.AddEdge(leaf, q, hub, {});
  add_spokes(500, 600, false);
  g.AddEdge(leaf, p, other, {});
  const EdgeId leaf_first = g.AddEdge(leaf, p, hub, {});
  add_spokes(600, 900, false);
  g.AddEdge(leaf, p, hub, {});
  add_spokes(900, 1000, false);
  ASSERT_GT(g.InDegree(hub), g.OutDegree(leaf));
  EXPECT_EQ(g.FindEdge(leaf, p, hub), leaf_first);

  PredicateId unused = g.predicates().Intern("unused");
  for (VertexId s : {hub, leaf, other}) {
    for (VertexId o : {hub, leaf, other}) {
      for (PredicateId pred : {p, q, unused}) {
        EXPECT_EQ(g.FindEdge(s, pred, o), FirstEdgeByRecords(g, s, pred, o))
            << s << " " << pred << " " << o;
      }
    }
  }

  const VertexId past = static_cast<VertexId>(g.NumVertices());
  EXPECT_EQ(g.FindEdge(leaf, p, past), std::nullopt);
  EXPECT_EQ(g.FindEdge(past, p, leaf), std::nullopt);
  EXPECT_EQ(g.FindEdge(hub, p, kInvalidVertex), std::nullopt);
}

TEST(PropertyGraphTest, AddTripleInternsEverything) {
  PropertyGraph g;
  TimedTriple t;
  t.triple = {"DJI", "acquired", "SkyWard"};
  t.timestamp = 42;
  t.source = "wsj";
  t.confidence = 0.7;
  EdgeId e = g.AddTriple(t);
  const EdgeRecord& rec = g.Edge(e);
  EXPECT_EQ(g.VertexLabel(rec.subject), "DJI");
  EXPECT_EQ(g.VertexLabel(rec.object), "SkyWard");
  EXPECT_EQ(g.predicates().GetString(rec.predicate), "acquired");
  EXPECT_EQ(g.sources().GetString(rec.meta.source), "wsj");
  EXPECT_FALSE(rec.meta.curated);
}

TEST(PropertyGraphTest, VertexProperties) {
  PropertyGraph g;
  VertexId v = g.GetOrAddVertex("x");
  EXPECT_EQ(g.VertexType(v), kInvalidType);
  TypeId ty = g.types().Intern("company");
  g.SetVertexType(v, ty);
  EXPECT_EQ(g.VertexType(v), ty);
  TermId t1 = g.terms().Intern("drone");
  g.AddVertexTerm(v, t1, 2.0);
  g.AddVertexTerm(v, t1, 1.0);
  EXPECT_DOUBLE_EQ(g.VertexBag(v).at(t1), 3.0);
  g.SetVertexTopics(v, {0.25, 0.75});
  EXPECT_EQ(g.VertexTopics(v).size(), 2u);
  EXPECT_TRUE(g.VertexTopics(999).empty());
}

TEST(PropertyGraphTest, SetEdgeConfidence) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  EdgeId e = g.AddEdge(a, g.predicates().Intern("p"), b, {});
  g.SetEdgeConfidence(e, 0.12);
  EXPECT_DOUBLE_EQ(g.Edge(e).meta.confidence, 0.12);
}

TEST(PropertyGraphTest, LoadBinaryRejectsOutOfRangeEdgeIds) {
  PropertyGraph g;
  EdgeMeta meta;
  meta.confidence = 0.123456789;  // a byte pattern the image holds once
  g.AddEdge(g.GetOrAddVertex("a"), g.predicates().Intern("p"),
            g.GetOrAddVertex("b"), meta);
  BinaryWriter writer;
  g.SaveBinary(&writer);
  const std::string bytes = writer.Take();
  BinaryWriter confidence;
  confidence.F64(meta.confidence);
  const size_t at = bytes.find(confidence.data());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(confidence.data(), at + 1), std::string::npos);
  // The edge record is subject, object, predicate (u32 each), then the
  // confidence; 2 is past both the two vertices and the one predicate.
  for (size_t back : {12u, 8u, 4u}) {
    BinaryWriter id;
    id.U32(2);
    std::string bad = bytes;
    bad.replace(at - back, 4, id.data());
    PropertyGraph loaded;
    BinaryReader reader(bad);
    EXPECT_EQ(loaded.LoadBinary(&reader).code(), StatusCode::kDataLoss)
        << back;
  }
  PropertyGraph loaded;
  BinaryReader reader(bytes);
  EXPECT_TRUE(loaded.LoadBinary(&reader).ok());
}

// The image holds dictionaries, vertex records and edge records, each
// sized by a count read first, so cutting it anywhere short of its end
// must fail to load rather than load a smaller graph.
TEST(PropertyGraphTest, LoadBinaryRejectsEveryPrefix) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  g.GetOrAddVertex("isolated");
  g.SetVertexType(a, g.types().Intern("company"));
  g.AddVertexTerm(a, g.terms().Intern("drone"), 2.0);
  g.SetVertexTopics(b, {0.25, 0.75});
  PredicateId p = g.predicates().Intern("p");
  g.AddEdge(a, p, b, EdgeMeta{0.5, 7, g.sources().Intern("wsj"), true});
  g.AddEdge(b, g.predicates().Intern("q"), a, {});
  BinaryWriter writer;
  g.SaveBinary(&writer);
  const std::string bytes = writer.Take();
  for (size_t len = 0; len < bytes.size(); ++len) {
    PropertyGraph loaded;
    BinaryReader reader(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(loaded.LoadBinary(&reader).ok()) << "prefix " << len;
  }
  PropertyGraph loaded;
  BinaryReader reader(bytes);
  ASSERT_TRUE(loaded.LoadBinary(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  BinaryWriter again;
  loaded.SaveBinary(&again);
  EXPECT_EQ(again.data(), bytes);
  ASSERT_EQ(loaded.OutDegree(a), 1u);
  EXPECT_EQ(loaded.OutEdges(a)[0].neighbor, b);
  ASSERT_EQ(loaded.InDegree(a), 1u);
  EXPECT_EQ(loaded.InEdges(a)[0].edge, EdgeId{1});
}

class GraphChurnTest : public ::testing::TestWithParam<uint64_t> {};

// Random adds and random expiry (by count and by horizon) through a
// window over a graph with a pinned prefix: the graph's adjacency stays
// in ascending id order, and the window's adjacency view holds exactly
// the in-window edges, in that order.
TEST_P(GraphChurnTest, AdjacencyConsistentUnderRandomChurn) {
  Rng rng(GetParam());
  PropertyGraph g;
  for (int i = 0; i < 20; ++i) g.GetOrAddVertex(StrFormat("v%d", i));
  PredicateId p = g.predicates().Intern("p");
  auto random_vertex = [&rng] {
    return static_cast<VertexId>(rng.UniformInt(20));
  };
  for (int i = 0; i < 15; ++i) {
    g.AddEdge(random_vertex(), p, random_vertex(), {});
  }
  TemporalWindow w(&g, 1 + rng.UniformInt(300));
  ASSERT_EQ(w.num_pinned(), 15u);
  for (int step = 0; step < 2000; ++step) {
    EdgeMeta meta;
    meta.timestamp = step;
    w.Push(g.AddEdge(random_vertex(), p, random_vertex(), meta));
    if (rng.Bernoulli(0.05)) {
      w.ExpireOlderThan(step - static_cast<Timestamp>(rng.UniformInt(100)));
    }
  }
  std::vector<EdgeId> in_window;
  w.ForEachEdge([&](EdgeId e, const EdgeRecord&) { in_window.push_back(e); });
  ASSERT_EQ(in_window.size(), w.NumEdges());
  size_t adjacency_total = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<EdgeId> want;
    const std::vector<AdjEntry>& out = g.OutEdges(v);
    // Append-only: ascending edge ids.
    ASSERT_TRUE(std::is_sorted(
        out.begin(), out.end(),
        [](const AdjEntry& x, const AdjEntry& y) { return x.edge < y.edge; }));
    for (const AdjEntry& a : out) {
      if (w.Contains(a.edge)) want.push_back(a.edge);
    }
    std::vector<EdgeId> got;
    w.ForEachInWindow(g.OutEdges(v), [&](const AdjEntry& a) {
      const EdgeRecord& rec = g.Edge(a.edge);
      EXPECT_EQ(rec.subject, v);
      EXPECT_EQ(rec.object, a.neighbor);
      got.push_back(a.edge);
    });
    EXPECT_EQ(got, want) << "vertex " << v;
    w.ForEachInWindow(g.InEdges(v), [&](const AdjEntry& a) {
      EXPECT_TRUE(w.Contains(a.edge));
      EXPECT_EQ(g.Edge(a.edge).object, v);
    });
    adjacency_total += got.size();
  }
  EXPECT_EQ(adjacency_total, w.NumEdges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphChurnTest,
                         ::testing::Values(1, 7, 21, 99));

// ---------- TemporalWindow ----------

TimedTriple MakeTriple(const std::string& s, const std::string& o,
                       Timestamp ts) {
  TimedTriple t;
  t.triple = {s, "p", o};
  t.timestamp = ts;
  return t;
}

TEST(TemporalWindowTest, CountBasedExpiry) {
  PropertyGraph g;
  TemporalWindow w(&g, 3);
  for (int i = 0; i < 5; ++i) {
    w.Add(MakeTriple(StrFormat("s%d", i), "o", i));
  }
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.NumEdges(), 3u);
  EXPECT_EQ(g.NumEdges(), 5u);  // the graph keeps every edge
  EXPECT_EQ(w.stream_begin(), 2u);
  EXPECT_EQ(g.Edge(w.stream_begin()).meta.timestamp, 2);
  EXPECT_EQ(g.Edge(w.stream_end() - 1).meta.timestamp, 4);
}

TEST(TemporalWindowTest, TimestampExpiry) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);  // unbounded count
  for (int i = 0; i < 10; ++i) w.Add(MakeTriple("a", "b", i));
  EXPECT_EQ(w.ExpireOlderThan(7), 7u);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(g.NumEdges(), 10u);
  EXPECT_EQ(g.Edge(w.stream_begin()).meta.timestamp, 7);
}

TEST(TemporalWindowTest, WindowSizeOne) {
  PropertyGraph g;
  TemporalWindow w(&g, 1);
  w.Add(MakeTriple("a", "b", 1));
  w.Add(MakeTriple("c", "d", 2));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_FALSE(w.Contains(0));
  EXPECT_TRUE(w.Contains(1));
}

class RecordingListener : public WindowListener {
 public:
  void OnEdgeAdded(const TemporalWindow& w, EdgeId e) override {
    EXPECT_TRUE(w.Contains(e));
    added.push_back(e);
  }
  void OnEdgeExpiring(const TemporalWindow& w, EdgeId e) override {
    // The edge must still be in the window when the listener fires.
    EXPECT_TRUE(w.Contains(e));
    expired.push_back(e);
  }
  std::vector<EdgeId> added;
  std::vector<EdgeId> expired;
};

TEST(TemporalWindowTest, ListenersObserveFifoExpiry) {
  PropertyGraph g;
  TemporalWindow w(&g, 2);
  RecordingListener listener;
  w.AddListener(&listener);
  for (int i = 0; i < 4; ++i) w.Add(MakeTriple("a", "b", i));
  EXPECT_EQ(listener.added.size(), 4u);
  ASSERT_EQ(listener.expired.size(), 2u);
  // FIFO: first added edges expire first.
  EXPECT_EQ(listener.expired[0], listener.added[0]);
  EXPECT_EQ(listener.expired[1], listener.added[1]);
  w.RemoveListener(&listener);
  w.Add(MakeTriple("a", "b", 10));
  EXPECT_EQ(listener.added.size(), 4u);  // no longer notified
}

class WindowInvariantTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WindowInvariantTest, LiveEdgesAlwaysMatchWindowContents) {
  PropertyGraph g;
  TemporalWindow w(&g, GetParam());
  Rng rng(GetParam() + 5);
  for (int i = 0; i < 500; ++i) {
    w.Add(MakeTriple(StrFormat("s%llu", static_cast<unsigned long long>(
                                            rng.UniformInt(30))),
                     StrFormat("o%llu", static_cast<unsigned long long>(
                                            rng.UniformInt(30))),
                     i));
    ASSERT_EQ(w.NumEdges(), w.size());  // nothing pinned
    ASSERT_LE(w.size(), GetParam());
    ASSERT_EQ(w.stream_end(), g.NumEdges());
    // Window ids are strictly increasing in timestamp order.
    Timestamp prev = -1;
    for (EdgeId e = w.stream_begin(); e < w.stream_end(); ++e) {
      Timestamp ts = g.Edge(e).meta.timestamp;
      ASSERT_GE(ts, prev);
      prev = ts;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WindowInvariantTest,
                         ::testing::Values(1, 2, 16, 128));

// ---------- GraphStats ----------

TEST(GraphStatsTest, CountsCuratedAndExtracted) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  PredicateId p = g.predicates().Intern("p");
  EdgeMeta curated;
  curated.curated = true;
  g.AddEdge(a, p, b, curated);
  EdgeMeta extracted;
  extracted.curated = false;
  extracted.confidence = 0.5;
  g.AddEdge(b, p, a, extracted);
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.vertices, 2u);
  EXPECT_EQ(stats.live_edges, 2u);
  EXPECT_EQ(stats.curated_edges, 1u);
  EXPECT_EQ(stats.extracted_edges, 1u);
  EXPECT_EQ(stats.distinct_predicates, 1u);
  EXPECT_EQ(stats.extracted_confidence.count(), 1u);
  EXPECT_EQ(stats.per_predicate.at("p"), 2u);
  EXPECT_FALSE(stats.ToString().empty());
}

// ---------- Generators ----------

TEST(GraphGeneratorTest, StreamHasRequestedSizeAndMonotoneTime) {
  StreamConfig config;
  config.num_edges = 500;
  config.num_entities = 50;
  auto stream = GenerateStream(config);
  ASSERT_EQ(stream.size(), 500u);
  Timestamp prev = -1;
  for (const TimedTriple& t : stream) {
    EXPECT_GT(t.timestamp, prev);
    prev = t.timestamp;
    EXPECT_NE(t.triple.subject, t.triple.object);
  }
}

TEST(GraphGeneratorTest, StreamDeterministicPerSeed) {
  StreamConfig config;
  config.num_edges = 100;
  auto a = GenerateStream(config);
  auto b = GenerateStream(config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].triple, b[i].triple);
  }
  config.seed += 1;
  auto c = GenerateStream(config);
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].triple == c[i].triple)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(GraphGeneratorTest, PlantedPatternsAppearAtRate) {
  PlantedStreamConfig config;
  config.num_events = 2000;
  config.patterns = {{"star", {"pa", "pb"}, 0.1}};
  auto stream = GeneratePlantedStream(config);
  size_t planted_edges = 0;
  for (const TimedTriple& t : stream) {
    if (t.source == "planted") ++planted_edges;
  }
  // Each instance emits 2 edges; expect ~0.1 * 2000 instances.
  double instances = static_cast<double>(planted_edges) / 2.0;
  EXPECT_NEAR(instances, 200.0, 60.0);
  // Leaf objects exist and are distinct per instance.
  bool leaf_seen = false;
  for (const TimedTriple& t : stream) {
    if (t.triple.object == "leaf_star_0_0") leaf_seen = true;
  }
  EXPECT_TRUE(leaf_seen);
}

TEST(GraphGeneratorTest, DriftStreamSwitchesPatterns) {
  PlantedStreamConfig phase1;
  phase1.num_events = 300;
  phase1.patterns = {{"one", {"pa", "pb"}, 0.2}};
  PlantedStreamConfig phase2 = phase1;
  phase2.patterns = {{"two", {"pc", "pd"}, 0.2}};
  auto stream = GenerateDriftStream(phase1, phase2);
  bool one_in_first_half = false, two_in_second_half = false;
  bool two_in_first_half = false;
  for (size_t i = 0; i < stream.size(); ++i) {
    bool first_half = stream[i].timestamp < 300;
    if (stream[i].triple.object.find("leaf_one") == 0 && first_half) {
      one_in_first_half = true;
    }
    if (stream[i].triple.object.find("leaf_two") == 0) {
      (first_half ? two_in_first_half : two_in_second_half) = true;
    }
  }
  EXPECT_TRUE(one_in_first_half);
  EXPECT_TRUE(two_in_second_half);
  EXPECT_FALSE(two_in_first_half);
}

}  // namespace
}  // namespace nous
