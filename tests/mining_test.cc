#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "graph/graph_generator.h"
#include "graph/property_graph.h"
#include "graph/temporal_window.h"
#include "mining/arabesque_sim.h"
#include "mining/gspan.h"
#include "mining/pattern.h"
#include "mining/streaming_miner.h"
#include "mining/subgraph_enum.h"
#include "mining/vertex_count_table.h"
#include "obs/metrics.h"

namespace nous {
namespace {

TypeId NoLabel(uint64_t) { return kInvalidType; }

// ---------- Pattern canonicalization ----------

TEST(PatternTest, SingleEdgeCanonicalForm) {
  Pattern p = Pattern::Canonicalize({{7, 3, 9}}, NoLabel);
  ASSERT_EQ(p.num_edges(), 1u);
  EXPECT_EQ(p.edges()[0].src, 0);
  EXPECT_EQ(p.edges()[0].dst, 1);
  EXPECT_EQ(p.edges()[0].pred, 3u);
  EXPECT_EQ(p.num_vertices(), 2u);
}

TEST(PatternTest, SelfLoopCanonicalForm) {
  Pattern p = Pattern::Canonicalize({{5, 2, 5}}, NoLabel);
  EXPECT_EQ(p.edges()[0].src, 0);
  EXPECT_EQ(p.edges()[0].dst, 0);
  EXPECT_EQ(p.num_vertices(), 1u);
}

TEST(PatternTest, InvariantUnderVertexRelabeling) {
  // Star: x -p1-> a, x -p2-> b with different concrete ids.
  Pattern p1 = Pattern::Canonicalize({{1, 10, 2}, {1, 20, 3}}, NoLabel);
  Pattern p2 = Pattern::Canonicalize({{99, 20, 7}, {99, 10, 42}}, NoLabel);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(PatternHash()(p1), PatternHash()(p2));
}

TEST(PatternTest, DirectionMatters) {
  Pattern chain = Pattern::Canonicalize({{1, 5, 2}, {2, 5, 3}}, NoLabel);
  Pattern converge = Pattern::Canonicalize({{1, 5, 2}, {3, 5, 2}}, NoLabel);
  EXPECT_FALSE(chain == converge);
}

TEST(PatternTest, VertexLabelsDistinguishPatterns) {
  auto label_a = [](uint64_t v) -> TypeId { return v == 1 ? 7u : 8u; };
  auto label_b = [](uint64_t) -> TypeId { return 7u; };
  Pattern p1 = Pattern::Canonicalize({{1, 5, 2}}, label_a);
  Pattern p2 = Pattern::Canonicalize({{1, 5, 2}}, label_b);
  EXPECT_FALSE(p1 == p2);
}

TEST(PatternTest, ContainsSubPattern) {
  Pattern star =
      Pattern::Canonicalize({{1, 10, 2}, {1, 20, 3}}, NoLabel);
  Pattern edge10 = Pattern::Canonicalize({{1, 10, 2}}, NoLabel);
  Pattern edge30 = Pattern::Canonicalize({{1, 30, 2}}, NoLabel);
  EXPECT_TRUE(star.Contains(edge10));
  EXPECT_FALSE(star.Contains(edge30));
  EXPECT_FALSE(edge10.Contains(star));
  EXPECT_TRUE(star.Contains(star));
}

TEST(PatternTest, SubPatternsAreConnectedAndSmaller) {
  Pattern chain =
      Pattern::Canonicalize({{1, 10, 2}, {2, 20, 3}, {3, 30, 4}}, NoLabel);
  auto subs = chain.SubPatterns();
  // Dropping the middle edge disconnects; only the two end-drops work.
  ASSERT_EQ(subs.size(), 2u);
  for (const Pattern& sub : subs) {
    EXPECT_EQ(sub.num_edges(), 2u);
    EXPECT_TRUE(chain.Contains(sub));
  }
}

TEST(PatternTest, AutomorphicTiesKeepTheFirstOrdering) {
  // Both orderings of a two-leaf star give the same code; the first
  // (input order) fixes which leaf lands at which position, and with
  // it the per-position MNI counts.
  std::vector<uint64_t> positions;
  Pattern star =
      Pattern::Canonicalize({{1, 5, 2}, {1, 5, 3}}, NoLabel, &positions);
  EXPECT_EQ(positions, (std::vector<uint64_t>{1, 2, 3}));
  Pattern::Canonicalizer canonicalizer;
  canonicalizer.Add(1, 5, 3);
  canonicalizer.Add(1, 5, 2);
  canonicalizer.Run(NoLabel);
  EXPECT_EQ(canonicalizer.pattern(), star);
  EXPECT_EQ(canonicalizer.position_to_vertex(),
            (std::vector<uint64_t>{1, 3, 2}));
}

TEST(PatternTest, ToStringRendersPredicateNames) {
  Dictionary preds;
  PredicateId acquired = preds.Intern("acquired");
  Pattern p = Pattern::Canonicalize({{1, acquired, 2}}, NoLabel);
  EXPECT_EQ(p.ToString(preds), "(?0)-[acquired]->(?1)");
}

// ---------- Enumeration ----------

TEST(SubgraphEnumTest, EnumeratesSubsetsContainingAnchor) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  PredicateId p = g.predicates().Intern("p");
  EdgeId e0 = g.AddEdge(a, p, b, {});
  EdgeId e1 = g.AddEdge(b, p, c, {});
  EdgeId e2 = g.AddEdge(a, p, c, {});
  TemporalWindow all(&g, 0);
  MinerConfig config;
  config.max_edges = 3;
  std::vector<std::vector<EdgeId>> found;
  EnumerateConnectedSubsets(all, e2, config, /*older_only=*/true,
                            [&](const std::vector<EdgeId>& s) {
                              found.push_back(s);
                            });
  // {e2}, {e2,e0}, {e2,e1}, {e2,e0,e1} — all connected, all older.
  EXPECT_EQ(found.size(), 4u);
  for (const auto& subset : found) {
    EXPECT_NE(std::find(subset.begin(), subset.end(), e2), subset.end());
  }
  (void)e0;
  (void)e1;
}

TEST(SubgraphEnumTest, OlderOnlySkipsNewerEdges) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  PredicateId p = g.predicates().Intern("p");
  EdgeId e0 = g.AddEdge(a, p, b, {});
  g.AddEdge(b, p, c, {});  // newer than anchor
  TemporalWindow all(&g, 0);
  MinerConfig config;
  config.max_edges = 2;
  size_t count = 0;
  EnumerateConnectedSubsets(all, e0, config, true,
                            [&](const std::vector<EdgeId>&) { ++count; });
  EXPECT_EQ(count, 1u);  // only {e0}
}

// Order pinning. The enumeration's emission sequence fixes which
// subsets survive the per-edge cap and the pattern ids TakeChurn lists
// by, so it is part of the miner's observable behaviour; the subset
// constants below were recorded from the std::find/std::set
// enumeration these tests guard. The two FrequentPatterns digests pin
// the rendering in SortBySupport order (equal supports by canonical
// pattern).

constexpr size_t kPinnedTwoEdgeCount = 288;
constexpr uint64_t kPinnedTwoEdgeDigest = 12319189888213060632ULL;
constexpr size_t kPinnedThreeEdgeCount = 49008;
constexpr uint64_t kPinnedThreeEdgeDigest = 14963082482630638383ULL;
constexpr uint64_t kPinnedNewestEdgeDigest = 2209332383511829657ULL;
constexpr size_t kPinnedFrequentTwoCount = 50;
constexpr uint64_t kPinnedFrequentTwoDigest = 968348900215890993ULL;
constexpr size_t kPinnedFrequentThreeCount = 85;
constexpr uint64_t kPinnedFrequentThreeDigest = 3304472168011998563ULL;

uint64_t Fnv1a(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t SequenceDigest(const std::vector<std::vector<EdgeId>>& sequence) {
  uint64_t h = 14695981039346656037ULL;
  for (const std::vector<EdgeId>& subset : sequence) {
    for (EdgeId e : subset) h = Fnv1a(h, e);
    h = Fnv1a(h, ~0ULL);
  }
  return h;
}

uint64_t RenderingDigest(const std::vector<std::string>& lines) {
  uint64_t h = 14695981039346656037ULL;
  for (const std::string& line : lines) {
    for (char c : line) h = Fnv1a(h, static_cast<unsigned char>(c));
    h = Fnv1a(h, ~0ULL);
  }
  return h;
}

// 650 Zipf-skewed edges over 300 entities: the most popular entity ends
// up with degree >= 200.
StreamConfig HubStreamConfig() {
  StreamConfig sc;
  sc.num_entities = 300;
  sc.num_predicates = 4;
  sc.num_edges = 650;
  sc.seed = 11;
  return sc;
}

struct HubGraph {
  PropertyGraph graph;
  VertexId hub = 0;
  size_t hub_degree = 0;
  EdgeId newest_hub_edge = 0;
};

void BuildHubGraph(HubGraph* out) {
  for (const TimedTriple& t : GenerateStream(HubStreamConfig())) {
    out->graph.AddTriple(t);
  }
  PropertyGraph& g = out->graph;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    size_t degree = g.OutDegree(v) + g.InDegree(v);
    if (degree > out->hub_degree) {
      out->hub = v;
      out->hub_degree = degree;
    }
  }
  for (const AdjEntry& a : g.OutEdges(out->hub)) {
    out->newest_hub_edge = std::max(out->newest_hub_edge, a.edge);
  }
  for (const AdjEntry& a : g.InEdges(out->hub)) {
    out->newest_hub_edge = std::max(out->newest_hub_edge, a.edge);
  }
}

std::vector<std::vector<EdgeId>> Emitted(const TemporalWindow& window,
                                         EdgeId anchor,
                                         const MinerConfig& config) {
  std::vector<std::vector<EdgeId>> sequence;
  size_t n = EnumerateConnectedSubsets(
      window, anchor, config, /*older_only=*/true,
      [&sequence](const std::vector<EdgeId>& s) { sequence.push_back(s); });
  EXPECT_EQ(n, sequence.size());
  return sequence;
}

TEST(SubgraphEnumTest, HubEmissionOrderIsPinned) {
  HubGraph hub;
  BuildHubGraph(&hub);
  ASSERT_GE(hub.hub_degree, 200u);
  TemporalWindow all(&hub.graph, 0);
  MinerConfig config;

  config.max_edges = 2;
  auto two = Emitted(all, hub.newest_hub_edge, config);
  EXPECT_EQ(two.size(), kPinnedTwoEdgeCount);
  EXPECT_EQ(SequenceDigest(two), kPinnedTwoEdgeDigest);

  config.max_edges = 3;
  auto three = Emitted(all, hub.newest_hub_edge, config);
  EXPECT_EQ(three.size(), kPinnedThreeEdgeCount);
  EXPECT_EQ(SequenceDigest(three), kPinnedThreeEdgeDigest);
  // Growing max_edges only appends deeper subsets: the 2-edge run is
  // the 3-edge run with its 3-edge subsets removed.
  std::vector<std::vector<EdgeId>> shallow;
  for (const auto& subset : three) {
    if (subset.size() <= 2) shallow.push_back(subset);
  }
  EXPECT_EQ(shallow, two);

  // A non-hub anchor (the newest edge overall) as well.
  EdgeId newest = static_cast<EdgeId>(all.NumEdges() - 1);
  EXPECT_EQ(SequenceDigest(Emitted(all, newest, config)),
            kPinnedNewestEdgeDigest);
}

std::vector<std::string> RenderedFrequent(const StreamingMiner& miner,
                                          const Dictionary& preds) {
  std::vector<std::string> lines;
  for (const PatternStats& s : miner.FrequentPatterns()) {
    lines.push_back(StrFormat("%zu %zu ", s.support, s.embeddings) +
                    s.pattern.ToString(preds));
  }
  return lines;
}

TEST(StreamingMinerTest, HubStreamFrequentPatternOrderIsPinned) {
  struct Case {
    size_t max_edges;
    size_t window;  // smaller at 3 edges to keep the test fast
    size_t count;
    uint64_t digest;
  };
  for (const Case& c : {Case{2, 200, kPinnedFrequentTwoCount,
                             kPinnedFrequentTwoDigest},
                        Case{3, 60, kPinnedFrequentThreeCount,
                             kPinnedFrequentThreeDigest}}) {
    PropertyGraph g;
    TemporalWindow w(&g, c.window);
    MinerConfig config;
    config.max_edges = c.max_edges;
    config.min_support = 3;
    StreamingMiner miner(config);
    w.AddListener(&miner);
    for (const TimedTriple& t : GenerateStream(HubStreamConfig())) w.Add(t);
    auto lines = RenderedFrequent(miner, g.predicates());
    EXPECT_EQ(lines.size(), c.count) << "max_edges " << c.max_edges;
    EXPECT_EQ(RenderingDigest(lines), c.digest)
        << "max_edges " << c.max_edges;
  }
}

// ---------- Streaming miner ----------

TimedTriple Tr(const std::string& s, const std::string& p,
               const std::string& o, Timestamp ts) {
  TimedTriple t;
  t.triple = {s, p, o};
  t.timestamp = ts;
  return t;
}

TEST(StreamingMinerTest, CountsSingleEdgePatternSupport) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  MinerConfig config;
  config.min_support = 2;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  w.Add(Tr("a", "likes", "b", 0));
  w.Add(Tr("c", "likes", "d", 1));
  w.Add(Tr("e", "hates", "f", 2));
  auto frequent = miner.FrequentPatterns();
  ASSERT_EQ(frequent.size(), 1u);  // only "likes" reaches support 2
  EXPECT_EQ(frequent[0].support, 2u);
  EXPECT_EQ(frequent[0].embeddings, 2u);
}

TEST(StreamingMinerTest, MniSupportNotEmbeddingCount) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  MinerConfig config;
  config.min_support = 3;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  // Same subject fans out to 5 objects: 5 embeddings but subject
  // position has 1 distinct vertex -> MNI support 1.
  for (int i = 0; i < 5; ++i) {
    w.Add(Tr("hubsub", "p", "o" + std::to_string(i), i));
  }
  EXPECT_TRUE(miner.FrequentPatterns().empty());
  Pattern p = Pattern::Canonicalize({{0, 0, 1}}, NoLabel);
  EXPECT_EQ(miner.SupportOf(p), 1u);
}

TEST(StreamingMinerTest, ExpiryDecrementsSupport) {
  PropertyGraph g;
  TemporalWindow w(&g, 2);  // tiny window
  MinerConfig config;
  config.min_support = 1;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  w.Add(Tr("a", "p", "b", 0));
  w.Add(Tr("c", "p", "d", 1));
  EXPECT_EQ(miner.FrequentPatterns()[0].support, 2u);
  w.Add(Tr("e", "q", "f", 2));  // expires (a,p,b)
  auto frequent = miner.FrequentPatterns();
  std::map<size_t, size_t> support_by_edges;
  for (const auto& f : frequent) {
    support_by_edges[f.pattern.edges()[0].pred] = f.support;
  }
  PredicateId p_id = *g.predicates().Lookup("p");
  PredicateId q_id = *g.predicates().Lookup("q");
  EXPECT_EQ(support_by_edges[p_id], 1u);
  EXPECT_EQ(support_by_edges[q_id], 1u);
  EXPECT_GT(miner.total_embeddings_removed(), 0u);
}

TEST(StreamingMinerTest, TwoEdgePatternsFromPlantedStream) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 5;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  PlantedStreamConfig pc;
  pc.num_events = 400;
  pc.noise_entities = 200;
  pc.patterns = {{"star", {"pa", "pb"}, 0.15}};
  for (const TimedTriple& t : GeneratePlantedStream(pc)) w.Add(t);
  // The planted star (x -pa-> hub0, x -pb-> hub1) must be frequent.
  PredicateId pa = *g.predicates().Lookup("pa");
  PredicateId pb = *g.predicates().Lookup("pb");
  Pattern star = Pattern::Canonicalize(
      {{0, pa, 1}, {0, pb, 2}}, NoLabel);
  EXPECT_GE(miner.SupportOf(star), config.min_support);
  // And it must appear in the frequent report.
  bool found = false;
  for (const auto& stats : miner.FrequentPatterns()) {
    if (stats.pattern == star) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(StreamingMinerTest, ChurnTracksDrift) {
  PropertyGraph g;
  TemporalWindow w(&g, 300);
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 5;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  PlantedStreamConfig phase1;
  phase1.num_events = 400;
  phase1.patterns = {{"one", {"pa", "pb"}, 0.2}};
  PlantedStreamConfig phase2 = phase1;
  phase2.patterns = {{"two", {"pc", "pd"}, 0.2}};
  auto stream = GenerateDriftStream(phase1, phase2);
  // First phase.
  for (size_t i = 0; i < 400; ++i) w.Add(stream[i]);
  auto churn1 = miner.TakeChurn();
  EXPECT_FALSE(churn1.became_frequent.empty());
  EXPECT_TRUE(churn1.became_infrequent.empty());
  // Second phase: pattern one ages out of the window, two appears.
  for (size_t i = 400; i < stream.size(); ++i) w.Add(stream[i]);
  auto churn2 = miner.TakeChurn();
  EXPECT_FALSE(churn2.became_frequent.empty());
  EXPECT_FALSE(churn2.became_infrequent.empty());
}

TEST(StreamingMinerTest, ClosednessFiltersSubsumedPatterns) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 3;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  // Every pa edge is accompanied by a pb edge from the same subject:
  // the 1-edge pa pattern has the same support as the 2-edge star, so
  // only the star (and the equally-supported pb edge case) is closed.
  for (int i = 0; i < 5; ++i) {
    std::string x = "x" + std::to_string(i);
    w.Add(Tr(x, "pa", "ya" + std::to_string(i), 2 * i));
    w.Add(Tr(x, "pb", "yb" + std::to_string(i), 2 * i + 1));
  }
  auto frequent = miner.FrequentPatterns();
  auto closed = miner.ClosedFrequentPatterns();
  EXPECT_LT(closed.size(), frequent.size());
  // The 2-edge star must be closed.
  PredicateId pa = *g.predicates().Lookup("pa");
  PredicateId pb = *g.predicates().Lookup("pb");
  Pattern star = Pattern::Canonicalize({{0, pa, 1}, {0, pb, 2}}, NoLabel);
  bool star_closed = false;
  for (const auto& stats : closed) {
    if (stats.pattern == star) star_closed = true;
  }
  EXPECT_TRUE(star_closed);
  // The 1-edge pa pattern must NOT be closed (same support as star).
  Pattern pa_edge = Pattern::Canonicalize({{0, pa, 1}}, NoLabel);
  for (const auto& stats : closed) {
    EXPECT_FALSE(stats.pattern == pa_edge);
  }
}

std::vector<std::string> Rendered(const std::vector<Pattern>& patterns,
                                   const Dictionary& preds) {
  std::vector<std::string> out;
  for (const Pattern& p : patterns) out.push_back(p.ToString(preds));
  return out;
}

std::vector<std::string> Rendered(const std::vector<PatternStats>& stats,
                                   const Dictionary& preds) {
  std::vector<std::string> out;
  for (const PatternStats& s : stats) out.push_back(s.pattern.ToString(preds));
  return out;
}

/// Interns predicates `prefix`39 .. `prefix`0, so a predicate's id
/// order is the reverse of its name order.
void InternReversed(const std::string& prefix, Dictionary* preds) {
  for (int k = 39; k >= 0; --k) preds->Intern(prefix + std::to_string(k));
}

/// The single-edge pattern over `pred`, rendered.
std::string SingleEdge(const Dictionary& preds, const std::string& pred) {
  return Pattern::Canonicalize({{0, *preds.Lookup(pred), 1}}, NoLabel)
      .ToString(preds);
}

/// `wave`'s predicates (as first seen) rendered as single-edge
/// patterns in predicate id order — the canonical tie order.
std::vector<std::string> ByPredicateId(const Dictionary& preds,
                                       const std::vector<std::string>& wave) {
  std::map<PredicateId, std::string> by_id;
  for (const std::string& pred : wave) {
    by_id[*preds.Lookup(pred)] = SingleEdge(preds, pred);
  }
  std::vector<std::string> out;
  for (const auto& [id, line] : by_id) out.push_back(line);
  return out;
}

std::vector<std::string> SingleEdges(const Dictionary& preds,
                                     const std::vector<std::string>& wave) {
  std::vector<std::string> out;
  for (const std::string& pred : wave) out.push_back(SingleEdge(preds, pred));
  return out;
}

TEST(StreamingMinerTest, EqualSupportsOrderByCanonicalPattern) {
  PropertyGraph g;
  InternReversed("p", &g.predicates());
  InternReversed("q", &g.predicates());
  TemporalWindow w(&g, 40);
  MinerConfig config;
  config.max_edges = 1;
  config.min_support = 1;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  // 40 disjoint edges, each with its own predicate, first seen in an
  // order unrelated to both names and ids: 40 patterns of support 1.
  // FrequentPatterns lists them by canonical pattern (predicate id);
  // churn lists keep first-seen order.
  std::vector<std::string> first_wave;
  for (int i = 0; i < 40; ++i) {
    std::string pred = "p" + std::to_string((i * 17) % 40);
    std::string n = std::to_string(i);
    w.Add(Tr("s" + n, pred, "o" + n, i));
    first_wave.push_back(pred);
  }
  const Dictionary& preds = g.predicates();
  std::vector<std::string> first_canonical = ByPredicateId(preds, first_wave);
  ASSERT_NE(first_canonical, SingleEdges(preds, first_wave));
  EXPECT_EQ(Rendered(miner.FrequentPatterns(), preds), first_canonical);
  EXPECT_EQ(Rendered(miner.ClosedFrequentPatterns(), preds),
            first_canonical);
  auto churn1 = miner.TakeChurn();
  EXPECT_EQ(Rendered(churn1.became_frequent, preds),
            SingleEdges(preds, first_wave));
  EXPECT_TRUE(churn1.became_infrequent.empty());

  // A second wave of 40 new predicates expires the whole first wave.
  std::vector<std::string> second_wave;
  for (int i = 0; i < 40; ++i) {
    std::string pred = "q" + std::to_string((i * 23) % 40);
    std::string n = std::to_string(40 + i);
    w.Add(Tr("s" + n, pred, "o" + n, 40 + i));
    second_wave.push_back(pred);
  }
  EXPECT_EQ(Rendered(miner.FrequentPatterns(), preds),
            ByPredicateId(preds, second_wave));
  auto churn2 = miner.TakeChurn();
  EXPECT_EQ(Rendered(churn2.became_frequent, preds),
            SingleEdges(preds, second_wave));
  EXPECT_EQ(Rendered(churn2.became_infrequent, preds),
            SingleEdges(preds, first_wave));
}

TEST(SortBySupportTest, TiesBreakOnEdgesThenVertexLabels) {
  Pattern a = Pattern::Canonicalize({{1, 4, 2}}, NoLabel);
  Pattern b = Pattern::Canonicalize({{1, 5, 2}}, NoLabel);
  Pattern chain = Pattern::Canonicalize({{1, 4, 2}, {2, 4, 3}}, NoLabel);
  Pattern typed_low = Pattern::Canonicalize(
      {{1, 4, 2}}, [](uint64_t v) { return static_cast<TypeId>(v); });
  Pattern typed_high = Pattern::Canonicalize(
      {{1, 4, 2}}, [](uint64_t v) { return static_cast<TypeId>(v + 1); });
  std::vector<PatternStats> stats;
  for (const Pattern* p : {&b, &typed_high, &chain, &a, &typed_low}) {
    PatternStats s;
    s.pattern = *p;
    s.support = 3;
    stats.push_back(s);
  }
  stats[2].support = 4;  // support still ranks first
  SortBySupport(&stats);
  ASSERT_EQ(stats.size(), 5u);
  EXPECT_EQ(stats[0].pattern, chain);
  // (0, 4, 1) < (0, 5, 1); equal edges fall back to vertex labels,
  // and untyped (kInvalidType) labels sort after every real type.
  EXPECT_EQ(stats[1].pattern, typed_low);
  EXPECT_EQ(stats[2].pattern, typed_high);
  EXPECT_EQ(stats[3].pattern, a);
  EXPECT_EQ(stats[4].pattern, b);
}

// ---------- Result equivalence: streaming == re-enumeration ----------

std::map<std::string, std::pair<size_t, size_t>> ToMap(
    const std::vector<PatternStats>& stats, const Dictionary& preds) {
  std::map<std::string, std::pair<size_t, size_t>> result;
  for (const PatternStats& s : stats) {
    result[s.pattern.ToString(preds)] = {s.support, s.embeddings};
  }
  return result;
}

struct EquivalenceCase {
  uint64_t seed;
  size_t max_edges;
  size_t min_support;
  bool use_types;
};

class MinerEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(MinerEquivalenceTest, StreamingMatchesBothBaselines) {
  const EquivalenceCase& param = GetParam();
  PropertyGraph g;
  TemporalWindow w(&g, 250);  // forces expiry churn
  MinerConfig config;
  config.max_edges = param.max_edges;
  config.min_support = param.min_support;
  config.use_vertex_types = param.use_types;
  StreamingMiner miner(config);
  w.AddListener(&miner);

  StreamConfig sc;
  sc.num_edges = 400;
  sc.num_entities = 60;
  sc.num_predicates = 4;
  sc.seed = param.seed;
  for (const TimedTriple& t : GenerateStream(sc)) w.Add(t);

  auto streaming = ToMap(miner.FrequentPatterns(), g.predicates());
  auto arabesque = ToMap(MineArabesqueSim(w, config), g.predicates());
  auto gspan = ToMap(MineGspan(w, config), g.predicates());
  EXPECT_EQ(streaming, arabesque);
  EXPECT_EQ(streaming, gspan);
  EXPECT_FALSE(streaming.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MinerEquivalenceTest,
    ::testing::Values(EquivalenceCase{1, 2, 3, false},
                      EquivalenceCase{2, 2, 5, false},
                      EquivalenceCase{3, 2, 3, true},
                      EquivalenceCase{4, 3, 8, false},
                      EquivalenceCase{5, 3, 10, true},
                      EquivalenceCase{6, 1, 2, false}));

TEST(MinerEquivalenceTest, EquivalenceAfterFullExpiry) {
  PropertyGraph g;
  TemporalWindow w(&g, 50);
  MinerConfig config;
  config.min_support = 2;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  StreamConfig sc;
  sc.num_edges = 300;  // 6x the window: heavy churn
  sc.num_entities = 25;
  sc.num_predicates = 3;
  for (const TimedTriple& t : GenerateStream(sc)) w.Add(t);
  auto streaming = ToMap(miner.FrequentPatterns(), g.predicates());
  auto arabesque = ToMap(MineArabesqueSim(w, config), g.predicates());
  EXPECT_EQ(streaming, arabesque);
  EXPECT_EQ(miner.num_live_embeddings(),
            miner.total_embeddings_created() -
                miner.total_embeddings_removed());
}

TEST(StreamingMinerTest, SlotReuseKeepsPoolBoundedUnderChurn) {
  PropertyGraph g;
  TemporalWindow w(&g, 50);
  MinerConfig config;
  config.max_edges = 3;
  config.min_support = 2;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  StreamConfig sc;
  sc.num_edges = 500;  // 10x the window: 3-edge embeddings churn
  sc.num_entities = 25;
  sc.num_predicates = 3;
  sc.seed = 7;
  for (const TimedTriple& t : GenerateStream(sc)) w.Add(t);
  auto streaming = ToMap(miner.FrequentPatterns(), g.predicates());
  auto arabesque = ToMap(MineArabesqueSim(w, config), g.predicates());
  EXPECT_EQ(streaming, arabesque);
  EXPECT_FALSE(streaming.empty());
  EXPECT_EQ(miner.num_live_embeddings(),
            miner.total_embeddings_created() -
                miner.total_embeddings_removed());
}

// ---------- Per-position count table ----------

// Applies `v`'s +1/-1 to the table and to an unordered_map reference,
// then checks size and the counts of every key in `universe`.
void ApplyAndCompare(VertexId v, bool increment,
                     const std::vector<VertexId>& universe,
                     VertexCountTable* table,
                     std::unordered_map<VertexId, uint32_t>* reference) {
  if (increment) {
    table->Increment(v);
    ++(*reference)[v];
  } else {
    auto it = reference->find(v);
    bool present = it != reference->end();
    ASSERT_EQ(table->Decrement(v), present) << v;
    if (present && --it->second == 0) reference->erase(it);
  }
  ASSERT_EQ(table->size(), reference->size());
  for (VertexId u : universe) {
    auto it = reference->find(u);
    ASSERT_EQ(table->Count(u), it == reference->end() ? 0u : it->second)
        << "vertex " << u;
  }
}

TEST(VertexCountTableTest, MatchesUnorderedMapUnderRandomChurn) {
  // A small universe keeps the table dense (long clusters, frequent
  // 0 <-> 1 transitions); a sparse one spreads ids over 32 bits.
  for (bool dense : {true, false}) {
    Rng rng(dense ? 3 : 4);
    std::vector<VertexId> universe;
    for (int i = 0; i < 200; ++i) {
      universe.push_back(dense ? static_cast<VertexId>(i)
                               : static_cast<VertexId>(rng.Next() >> 33));
    }
    VertexCountTable table;
    std::unordered_map<VertexId, uint32_t> reference;
    for (int step = 0; step < 20000; ++step) {
      VertexId v = universe[rng.UniformInt(universe.size())];
      // Drift between growth and drain phases so the table both grows
      // and empties out.
      bool growing = (step / 2500) % 2 == 0;
      bool increment = rng.UniformInt(100) < (growing ? 65u : 35u);
      ASSERT_NO_FATAL_FAILURE(
          ApplyAndCompare(v, increment, universe, &table, &reference));
    }
  }
}

TEST(VertexCountTableTest, ClustersThatWrapSurviveEraseAndReinsert) {
  // Between 7 and 12 entries the table has 16 slots. Pick keys homed at
  // the last two slots and the first two, so one probe cluster runs
  // past the end of the array and wraps to the front.
  constexpr size_t kCapacity = 16;
  std::vector<VertexId> keys;
  for (size_t home : {15ul, 15ul, 15ul, 14ul, 14ul, 0ul, 0ul, 1ul}) {
    VertexId v = 0;
    while (VertexCountTable::Home(v, kCapacity) != home ||
           std::find(keys.begin(), keys.end(), v) != keys.end()) {
      ++v;
    }
    keys.push_back(v);
  }
  Rng rng(17);
  for (int round = 0; round < 300; ++round) {
    VertexCountTable table;
    std::unordered_map<VertexId, uint32_t> reference;
    auto apply = [&](VertexId v, bool increment) {
      ApplyAndCompare(v, increment, keys, &table, &reference);
    };
    std::vector<VertexId> order = keys;
    std::shuffle(order.begin(), order.end(), rng);
    for (VertexId v : order) ASSERT_NO_FATAL_FAILURE(apply(v, true));
    ASSERT_EQ(table.capacity(), kCapacity);
    // Erase the keys in a random order, re-inserting some right after
    // their erase (a fresh home probe into the shifted cluster).
    std::shuffle(order.begin(), order.end(), rng);
    for (VertexId v : order) {
      ASSERT_NO_FATAL_FAILURE(apply(v, false));
      if (rng.UniformInt(3) == 0) {
        ASSERT_NO_FATAL_FAILURE(apply(v, true));
        ASSERT_NO_FATAL_FAILURE(
            apply(order[rng.UniformInt(order.size())], false));
      }
    }
    while (!reference.empty()) {
      ASSERT_NO_FATAL_FAILURE(apply(reference.begin()->first, false));
    }
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.capacity(), kCapacity);
  }
}

// ---------- Quick-pattern cache ----------

// The streaming miner without its quick-pattern cache and with stored
// embeddings: every subset is canonicalized directly, and each
// embedding's pattern id and vertex assignment sit in a map keyed by
// its edges, which expiry scans instead of re-enumerating. Pattern ids
// are first-seen, as in StreamingMiner.
class DirectMiner : public WindowListener {
 public:
  explicit DirectMiner(const MinerConfig& config) : config_(config) {}

  void OnEdgeAdded(const TemporalWindow& window, EdgeId edge) override {
    const PropertyGraph& graph = window.graph();
    EnumerateConnectedSubsets(
        window, edge, config_, /*older_only=*/true,
        [this, &graph](const std::vector<EdgeId>& subset) {
          CanonicalizeEdgeSet(graph, subset, config_.use_vertex_types,
                              &canonicalizer_);
          const Pattern& p = canonicalizer_.pattern();
          auto [it, inserted] = index_.try_emplace(p, entries_.size());
          if (inserted) {
            entries_.push_back({p, {}, 0});
            entries_.back().counts.resize(p.num_vertices());
          }
          Embedding embedding{it->second,
                              canonicalizer_.position_to_vertex()};
          Entry& entry = entries_[embedding.pattern_id];
          for (size_t pos = 0; pos < embedding.vertices.size(); ++pos) {
            ++entry.counts[pos][embedding.vertices[pos]];
          }
          ++entry.embeddings;
          embeddings_.emplace(subset, std::move(embedding));
        });
  }

  void OnEdgeExpiring(const TemporalWindow&, EdgeId edge) override {
    for (auto it = embeddings_.begin(); it != embeddings_.end();) {
      const std::vector<EdgeId>& edges = it->first;
      if (std::find(edges.begin(), edges.end(), edge) == edges.end()) {
        ++it;
        continue;
      }
      Entry& entry = entries_[it->second.pattern_id];
      for (size_t pos = 0; pos < it->second.vertices.size(); ++pos) {
        auto& counts = entry.counts[pos];
        if (--counts[it->second.vertices[pos]] == 0) {
          counts.erase(it->second.vertices[pos]);
        }
      }
      --entry.embeddings;
      it = embeddings_.erase(it);
    }
  }

  std::vector<PatternStats> FrequentPatterns() const {
    std::vector<PatternStats> result;
    for (const Entry& entry : entries_) {
      size_t support = Support(entry);
      if (support >= config_.min_support) {
        result.push_back({entry.pattern, entry.embeddings, support});
      }
    }
    SortBySupport(&result);
    return result;
  }

  // Patterns that crossed min_support since the last call, in pattern
  // id order (StreamingMiner::TakeChurn's became_frequent).
  std::vector<Pattern> TakeBecameFrequent() {
    std::vector<Pattern> became;
    frequent_.resize(entries_.size(), false);
    for (size_t id = 0; id < entries_.size(); ++id) {
      bool now = Support(entries_[id]) >= config_.min_support;
      if (now && !frequent_[id]) became.push_back(entries_[id].pattern);
      frequent_[id] = now;
    }
    return became;
  }

  size_t num_tracked_patterns() const { return entries_.size(); }
  size_t num_live_embeddings() const { return embeddings_.size(); }

 private:
  struct Entry {
    Pattern pattern;
    std::vector<std::map<uint64_t, size_t>> counts;
    size_t embeddings;
  };
  struct Embedding {
    size_t pattern_id;
    std::vector<uint64_t> vertices;
  };

  static size_t Support(const Entry& entry) {
    if (entry.embeddings == 0) return 0;
    size_t support = entry.counts[0].size();
    for (const auto& counts : entry.counts) {
      support = std::min(support, counts.size());
    }
    return support;
  }

  MinerConfig config_;
  Pattern::Canonicalizer canonicalizer_;
  std::vector<Entry> entries_;
  std::unordered_map<Pattern, size_t, PatternHash> index_;
  std::map<std::vector<EdgeId>, Embedding> embeddings_;
  std::vector<bool> frequent_;
};

void ExpectSameStats(const std::vector<PatternStats>& actual,
                     const std::vector<PatternStats>& expected,
                     int step) {
  ASSERT_EQ(actual.size(), expected.size()) << "step " << step;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].pattern, expected[i].pattern) << "step " << step;
    EXPECT_EQ(actual[i].support, expected[i].support) << "step " << step;
    EXPECT_EQ(actual[i].embeddings, expected[i].embeddings)
        << "step " << step;
  }
}

TEST(StreamingMinerTest, QuickPatternCacheMatchesDirectCanonicalization) {
  for (size_t max_edges : {2ul, 3ul}) {
    for (size_t min_support : {1ul, 3ul}) {
      PropertyGraph g;
      TemporalWindow w(&g, 40);
      MinerConfig config;
      config.max_edges = max_edges;
      config.min_support = min_support;
      config.use_vertex_types = true;
      StreamingMiner miner(config);
      DirectMiner direct(config);
      w.AddListener(&miner);
      w.AddListener(&direct);
      Rng rng(max_edges * 10 + min_support);
      const char* preds[] = {"p", "q", "r"};
      auto leaf = [&rng] {
        return "leaf" + std::to_string(rng.UniformInt(25));
      };
      for (int step = 0; step < 400; ++step) {
        TimedTriple t;
        t.timestamp = step;
        switch (rng.UniformInt(5)) {
          case 0:
          case 1:
            // The same predicate out of the hub again and again: pairs
            // of these edges are automorphic 2-edge subsets.
            t.triple = {"hub", "p", leaf()};
            break;
          case 2:
            t.triple = {leaf(), preds[rng.UniformInt(3)], "hub"};
            break;
          case 3:
            t.triple = {leaf(), preds[rng.UniformInt(3)], leaf()};
            break;
          default:
            t.triple = {"hub", "r", "hub"};  // self-loop
        }
        VertexId s = g.GetOrAddVertex(t.triple.subject);
        VertexId o = g.GetOrAddVertex(t.triple.object);
        // Leaves carry one of two types from the start; the hub's type
        // changes mid-stream, so the same structure recurs under new
        // labels while embeddings under the old ones are still live.
        for (VertexId v : {s, o}) {
          if (g.VertexType(v) == kInvalidType) g.SetVertexType(v, v % 2);
        }
        if (step == 0) g.SetVertexType(g.GetOrAddVertex("hub"), 7);
        if (step == 200) g.SetVertexType(g.GetOrAddVertex("hub"), 8);
        w.Add(t);
        ExpectSameStats(miner.FrequentPatterns(), direct.FrequentPatterns(),
                        step);
        ASSERT_EQ(miner.TakeChurn().became_frequent,
                  direct.TakeBecameFrequent())
            << "step " << step;
        ASSERT_EQ(miner.num_tracked_patterns(),
                  direct.num_tracked_patterns());
        if (HasFailure()) return;
      }
      // Far fewer quick patterns than subsets: most lookups hit.
      EXPECT_GT(miner.num_quick_patterns(), 0u);
      EXPECT_LT(miner.num_quick_patterns(), miner.total_embeddings_created());
    }
  }
}

// The window KgPipeline rebuilds on bring-up and restore: a pinned
// prefix announced edge by edge without a push, KG edges between it and
// the stream that are outside the window, then a stream expired both by
// count and by timestamp while vertices are retyped, and finally drained.
TEST(StreamingMinerTest, PinnedPrefixAndBothExpiriesMatchDirectMiner) {
  for (size_t max_edges : {2ul, 3ul}) {
    PropertyGraph g;
    Rng rng(40 + max_edges);
    auto leaf = [&rng] {
      return "leaf" + std::to_string(rng.UniformInt(20));
    };
    auto add = [&g](const TimedTriple& t) {
      EdgeId e = g.AddTriple(t);
      for (VertexId v : {g.Edge(e).subject, g.Edge(e).object}) {
        if (g.VertexType(v) == kInvalidType) g.SetVertexType(v, v % 3);
      }
      return e;
    };
    constexpr EdgeId kPinned = 12;
    constexpr EdgeId kGap = 5;
    for (EdgeId i = 0; i < kPinned + kGap; ++i) {
      add(Tr(i % 2 == 0 ? "hub" : leaf(), "p", leaf(), 0));
    }
    const VertexId hub = g.GetOrAddVertex("hub");
    const VertexId leaf3 = g.GetOrAddVertex("leaf3");
    g.SetVertexType(hub, 7);
    g.SetVertexType(leaf3, 5);

    MinerConfig config;
    config.max_edges = max_edges;
    config.min_support = 2;
    config.use_vertex_types = true;
    StreamingMiner miner(config);
    DirectMiner direct(config);
    TemporalWindow w(&g, 30, kPinned, kPinned + kGap);
    w.AddListener(&miner);
    w.AddListener(&direct);
    for (EdgeId e = 0; e < kPinned; ++e) {
      miner.OnEdgeAdded(w, e);
      direct.OnEdgeAdded(w, e);
    }
    const size_t pinned_live = miner.num_live_embeddings();
    ASSERT_EQ(pinned_live, direct.num_live_embeddings());
    ASSERT_GT(pinned_live, 0u);

    const char* preds[] = {"p", "q", "r"};
    const int kSteps = 300;
    for (int step = 1; step <= kSteps; ++step) {
      TimedTriple t;
      t.timestamp = step;
      switch (rng.UniformInt(4)) {
        case 0:
        case 1:
          t.triple = {"hub", preds[rng.UniformInt(2)], leaf()};
          break;
        case 2:
          t.triple = {leaf(), preds[rng.UniformInt(3)], "hub"};
          break;
        default:
          t.triple = {leaf(), preds[rng.UniformInt(3)], leaf()};
      }
      // Retypes while embeddings under the old types are live, back to
      // an earlier type too, and of a vertex in pinned embeddings.
      if (step == 60) g.SetVertexType(hub, 8);
      if (step == 90) g.SetVertexType(leaf3, 6);
      if (step == 140) g.SetVertexType(hub, 7);
      if (step == 200) g.SetVertexType(hub, 9);
      w.Push(add(t));
      if (step % 25 == 0) w.ExpireOlderThan(step - 12);
      ExpectSameStats(miner.FrequentPatterns(), direct.FrequentPatterns(),
                      step);
      ASSERT_EQ(miner.num_live_embeddings(), direct.num_live_embeddings())
          << "step " << step;
      ASSERT_EQ(miner.num_tracked_patterns(), direct.num_tracked_patterns());
      if (HasFailure()) return;
    }
    EXPECT_GT(w.ExpireOlderThan(kSteps + 1), 0u);
    EXPECT_EQ(w.size(), 0u);
    // Only the pinned prefix's embeddings outlive the stream.
    EXPECT_EQ(miner.num_live_embeddings(), pinned_live);
    EXPECT_EQ(direct.num_live_embeddings(), pinned_live);
    EXPECT_EQ(miner.total_embeddings_removed(),
              miner.total_embeddings_created() - pinned_live);
    ExpectSameStats(miner.FrequentPatterns(), direct.FrequentPatterns(),
                    kSteps + 1);
  }
}

TEST(StreamingMinerTest, HubOfDegree2000ExpiresToZero) {
  // Every pair of hub edges is a live 2-edge embedding (~2M at the
  // peak), and each expiring hub edge drains ~2000 of them, each
  // re-enumerated from the window's hub adjacency.
  constexpr int kDegree = 2000;
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  MinerConfig config;
  config.min_support = 1;
  StreamingMiner miner(config);
  w.AddListener(&miner);
  const char* preds[] = {"p", "q", "r"};
  for (int i = 0; i < kDegree; ++i) {
    w.Add(Tr("hub", preds[i % 3], "leaf" + std::to_string(i), i));
  }
  const size_t peak = miner.num_live_embeddings();
  EXPECT_EQ(peak, static_cast<size_t>(kDegree + kDegree * (kDegree - 1) / 2));
  std::vector<PatternStats> before = miner.FrequentPatterns();
  ASSERT_FALSE(before.empty());

  EXPECT_EQ(w.ExpireOlderThan(kDegree), static_cast<size_t>(kDegree));
  EXPECT_EQ(miner.num_live_embeddings(), 0u);
  EXPECT_EQ(miner.total_embeddings_removed(), peak);
  EXPECT_TRUE(miner.FrequentPatterns().empty());
  for (const PatternStats& s : before) {
    EXPECT_EQ(miner.SupportOf(s.pattern), 0u);
  }
  EXPECT_EQ(miner.num_tracked_patterns(), before.size());
}

TEST(StreamingMinerTest, MinerAttachedMidStreamDrainsToZero) {
  PropertyGraph g;
  TemporalWindow w(&g, 20);
  StreamConfig sc;
  sc.num_edges = 80;
  sc.num_entities = 10;
  sc.num_predicates = 2;
  std::vector<TimedTriple> stream = GenerateStream(sc);
  for (size_t i = 0; i < 30; ++i) w.Add(stream[i]);
  MinerConfig config;
  config.min_support = 1;
  StreamingMiner miner(config);
  w.AddListener(&miner);  // 20 edges already in the window
  for (size_t i = 30; i < stream.size(); ++i) w.Add(stream[i]);
  EXPECT_GT(miner.num_live_embeddings(), 0u);
  EXPECT_EQ(w.ExpireOlderThan(stream.back().timestamp + 1), 20u);
  EXPECT_EQ(miner.num_live_embeddings(), 0u);
  EXPECT_EQ(miner.total_embeddings_removed(),
            miner.total_embeddings_created());
}

// ---------- Baselines directly ----------

TEST(ArabesqueSimTest, CountsEmbeddingsOnStaticGraph) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  PredicateId p = g.predicates().Intern("p");
  g.AddEdge(a, p, b, {});
  g.AddEdge(b, p, c, {});
  TemporalWindow all(&g, 0);
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 1;
  size_t embeddings = 0;
  auto results = MineArabesqueSim(all, config, &embeddings);
  // 2 single-edge embeddings + 1 chain embedding.
  EXPECT_EQ(embeddings, 3u);
  // Patterns: single edge (support 2), chain (support 1).
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].support, 2u);
  EXPECT_EQ(results[1].support, 1u);
}

TEST(ArabesqueSimTest, ParallelVariantMatchesSerial) {
  StreamConfig sc;
  sc.num_edges = 400;
  sc.num_entities = 50;
  sc.num_predicates = 4;
  sc.seed = 9;
  PropertyGraph g;
  for (const TimedTriple& t : GenerateStream(sc)) g.AddTriple(t);
  TemporalWindow all(&g, 0);
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 4;
  size_t serial_embeddings = 0, parallel_embeddings = 0;
  auto serial = MineArabesqueSim(all, config, &serial_embeddings);
  ThreadPool pool(4);
  auto parallel =
      MineArabesqueSimParallel(all, config, &pool, &parallel_embeddings);
  EXPECT_EQ(serial_embeddings, parallel_embeddings);
  EXPECT_EQ(ToMap(serial, g.predicates()),
            ToMap(parallel, g.predicates()));
  // Null pool falls back to the serial path.
  auto fallback = MineArabesqueSimParallel(all, config, nullptr);
  EXPECT_EQ(ToMap(serial, g.predicates()),
            ToMap(fallback, g.predicates()));
}

// 40 disjoint single-edge patterns of support 1, first seen (edge id
// order) in an order unrelated to both their names and their predicate
// ids; `canonical` is the SortBySupport order.
struct TiedGraph {
  PropertyGraph graph;
  std::vector<std::string> canonical;
};

void BuildTiedGraph(TiedGraph* out) {
  PropertyGraph& g = out->graph;
  InternReversed("p", &g.predicates());
  std::vector<std::string> first_seen;
  for (int i = 0; i < 40; ++i) {
    std::string n = std::to_string(i);
    std::string pred = "p" + std::to_string((i * 17) % 40);
    g.AddEdge(g.GetOrAddVertex("s" + n), *g.predicates().Lookup(pred),
              g.GetOrAddVertex("o" + n), {});
    first_seen.push_back(pred);
  }
  out->canonical = ByPredicateId(g.predicates(), first_seen);
  ASSERT_NE(out->canonical, SingleEdges(g.predicates(), first_seen));
}

TEST(ArabesqueSimTest, EqualSupportsOrderByCanonicalPattern) {
  TiedGraph tied;
  BuildTiedGraph(&tied);
  MinerConfig config;
  config.max_edges = 1;
  config.min_support = 1;
  TemporalWindow all(&tied.graph, 0);
  EXPECT_EQ(Rendered(MineArabesqueSim(all, config), tied.graph.predicates()),
            tied.canonical);
}

TEST(GspanTest, EqualSupportsOrderByCanonicalPattern) {
  TiedGraph tied;
  BuildTiedGraph(&tied);
  MinerConfig config;
  config.max_edges = 1;
  config.min_support = 1;
  TemporalWindow all(&tied.graph, 0);
  EXPECT_EQ(Rendered(MineGspan(all, config), tied.graph.predicates()),
            tied.canonical);
}

TEST(GspanTest, PruningSkipsInfrequentExtensions) {
  PropertyGraph g;
  // One rare predicate chain that can never reach min_support.
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  VertexId c = g.GetOrAddVertex("c");
  PredicateId rare = g.predicates().Intern("rare");
  g.AddEdge(a, rare, b, {});
  g.AddEdge(b, rare, c, {});
  // A frequent predicate elsewhere.
  PredicateId common = g.predicates().Intern("common");
  for (int i = 0; i < 6; ++i) {
    VertexId s = g.GetOrAddVertex("s" + std::to_string(i));
    VertexId o = g.GetOrAddVertex("o" + std::to_string(i));
    g.AddEdge(s, common, o, {});
  }
  TemporalWindow all(&g, 0);
  MinerConfig config;
  config.max_edges = 2;
  config.min_support = 3;
  size_t gspan_embeddings = 0, arabesque_embeddings = 0;
  auto gspan_result = MineGspan(all, config, &gspan_embeddings);
  auto arab_result = MineArabesqueSim(all, config, &arabesque_embeddings);
  EXPECT_EQ(ToMap(gspan_result, g.predicates()),
            ToMap(arab_result, g.predicates()));
  // gSpan materializes fewer embeddings thanks to pruning.
  EXPECT_LT(gspan_embeddings, arabesque_embeddings);
}

}  // namespace
}  // namespace nous
