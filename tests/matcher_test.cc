#include <algorithm>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "graph/graph_generator.h"
#include "graph/property_graph.h"
#include "graph/temporal_window.h"
#include "mining/continuous_query.h"
#include "mining/pattern_matcher.h"
#include "mining/subgraph_enum.h"

namespace nous {
namespace {

TypeId NoLabel(uint64_t) { return kInvalidType; }

class MatcherFixture : public ::testing::Test {
 protected:
  MatcherFixture() {
    a_ = g_.GetOrAddVertex("a");
    b_ = g_.GetOrAddVertex("b");
    c_ = g_.GetOrAddVertex("c");
    d_ = g_.GetOrAddVertex("d");
    p_ = g_.predicates().Intern("p");
    q_ = g_.predicates().Intern("q");
    g_.AddEdge(a_, p_, b_, {});
    g_.AddEdge(b_, q_, c_, {});
    g_.AddEdge(a_, p_, d_, {});
    g_.AddEdge(d_, q_, c_, {});
    all_ = std::make_unique<TemporalWindow>(&g_, 0);
  }
  PropertyGraph g_;
  std::unique_ptr<TemporalWindow> all_;  // pins all of g_'s edges
  VertexId a_, b_, c_, d_;
  PredicateId p_, q_;
};

TEST_F(MatcherFixture, SingleEdgePatternFindsAllEdges) {
  Pattern pattern = Pattern::Canonicalize({{0, p_, 1}}, NoLabel);
  auto matches = MatchPattern(*all_, pattern);
  EXPECT_EQ(matches.size(), 2u);  // (a,b) and (a,d)
  for (const PatternMatch& m : matches) {
    EXPECT_EQ(m.vertices.size(), 2u);
    EXPECT_EQ(m.edges.size(), 1u);
    EXPECT_EQ(g_.Edge(m.edges[0]).predicate, p_);
  }
}

TEST_F(MatcherFixture, ChainPatternMatchesBothChains) {
  Pattern chain =
      Pattern::Canonicalize({{0, p_, 1}, {1, q_, 2}}, NoLabel);
  auto matches = MatchPattern(*all_, chain);
  // a-p->b-q->c and a-p->d-q->c.
  ASSERT_EQ(matches.size(), 2u);
  std::set<VertexId> mids;
  for (const PatternMatch& m : matches) {
    // Vertex list parallels pattern variable positions; the chain's
    // middle variable maps to b or d.
    for (VertexId v : m.vertices) {
      if (v == b_ || v == d_) mids.insert(v);
    }
  }
  EXPECT_EQ(mids, (std::set<VertexId>{b_, d_}));
}

TEST_F(MatcherFixture, NoMatchesForAbsentPredicatePattern) {
  PredicateId r = g_.predicates().Intern("r");
  Pattern pattern = Pattern::Canonicalize({{0, r, 1}}, NoLabel);
  EXPECT_TRUE(MatchPattern(*all_, pattern).empty());
}

TEST_F(MatcherFixture, LimitStopsEarly) {
  Pattern pattern = Pattern::Canonicalize({{0, p_, 1}}, NoLabel);
  MatchOptions options;
  options.limit = 1;
  EXPECT_EQ(MatchPattern(*all_, pattern, options).size(), 1u);
}

TEST_F(MatcherFixture, TypeConstraintsFilter) {
  g_.SetVertexType(a_, g_.types().Intern("company"));
  g_.SetVertexType(b_, g_.types().Intern("product"));
  g_.SetVertexType(d_, g_.types().Intern("company"));
  TypeId company = *g_.types().Lookup("company");
  TypeId product = *g_.types().Lookup("product");
  auto label = [&](uint64_t v) -> TypeId {
    return v == 0 ? company : product;
  };
  // (company)-p->(product): only a-p->b qualifies (d is a company).
  Pattern typed = Pattern::Canonicalize({{0, p_, 1}}, label);
  MatchOptions options;
  options.use_vertex_types = true;
  auto matches = MatchPattern(*all_, typed, options);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_TRUE(std::count(matches[0].vertices.begin(),
                         matches[0].vertices.end(), b_) == 1);
}

TEST_F(MatcherFixture, InjectivityRejectsVertexReuse) {
  // Pattern (?0)-p->(?1), (?0)-p->(?2) requires distinct ?1 != ?2.
  Pattern star = Pattern::Canonicalize({{0, p_, 1}, {0, p_, 2}}, NoLabel);
  auto matches = MatchPattern(*all_, star);
  // Assignments: (a; b,d) and (a; d,b) — automorphic pair, but never
  // (a; b,b).
  EXPECT_EQ(matches.size(), 2u);
  for (const PatternMatch& m : matches) {
    std::set<VertexId> distinct(m.vertices.begin(), m.vertices.end());
    EXPECT_EQ(distinct.size(), m.vertices.size());
  }
}

TEST_F(MatcherFixture, PinRestrictsToEdge) {
  Pattern chain =
      Pattern::Canonicalize({{0, p_, 1}, {1, q_, 2}}, NoLabel);
  // Pin the q-position edge to (d,q,c): only the d-chain matches.
  auto dq = g_.FindEdge(d_, q_, c_);
  ASSERT_TRUE(dq.has_value());
  int q_position = chain.edges()[0].pred == q_ ? 0 : 1;
  MatchOptions options;
  options.pin_pattern_edge = q_position;
  options.pin_edge = *dq;
  auto matches = MatchPattern(*all_, chain, options);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_NE(std::find(matches[0].vertices.begin(),
                      matches[0].vertices.end(), d_),
            matches[0].vertices.end());
}

/// The matcher must agree with exhaustive subset enumeration on random
/// graphs: the set of matched edge-subsets for a pattern equals the
/// enumerated subsets canonicalizing to that pattern.
class MatcherEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherEquivalenceTest, AgreesWithEnumeration) {
  StreamConfig config;
  config.num_edges = 150;
  config.num_entities = 25;
  config.num_predicates = 3;
  config.seed = GetParam();
  PropertyGraph g;
  for (const TimedTriple& t : GenerateStream(config)) g.AddTriple(t);
  TemporalWindow all(&g, 0);

  // Target pattern: 2-edge chain with the two most common predicates.
  Pattern chain = Pattern::Canonicalize({{0, 0, 1}, {1, 1, 2}}, NoLabel);

  // Ground truth via enumeration.
  std::set<std::vector<EdgeId>> expected;
  MinerConfig mc;
  mc.max_edges = 2;
  Pattern::Canonicalizer canonicalizer;
  all.ForEachEdge([&](EdgeId anchor, const EdgeRecord&) {
    EnumerateConnectedSubsets(
        all, anchor, mc, /*older_only=*/true,
        [&](const std::vector<EdgeId>& subset) {
          if (subset.size() != 2) return;
          CanonicalizeEdgeSet(g, subset, false, &canonicalizer);
          if (canonicalizer.pattern() == chain) {
            expected.insert(subset);
          }
        });
  });

  std::set<std::vector<EdgeId>> found;
  for (const PatternMatch& m : MatchPattern(all, chain)) {
    std::vector<EdgeId> sorted = m.edges;
    std::sort(sorted.begin(), sorted.end());
    found.insert(sorted);
  }
  EXPECT_EQ(found, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherEquivalenceTest,
                         ::testing::Values(3, 5, 8, 13));

// ---------- Continuous detection ----------

TimedTriple Tr(const std::string& s, const std::string& p,
               const std::string& o, Timestamp ts) {
  TimedTriple t;
  t.triple = {s, p, o};
  t.timestamp = ts;
  return t;
}

TEST(ContinuousQueryTest, FiresWhenPatternCompletes) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  ContinuousPatternDetector detector;
  w.AddListener(&detector);
  PredicateId acq = g.predicates().Intern("acquired");
  PredicateId inv = g.predicates().Intern("investsIn");
  Pattern star = Pattern::Canonicalize({{0, acq, 1}, {0, inv, 2}},
                                       NoLabel);
  std::vector<ContinuousMatch> events;
  int id = detector.RegisterPattern(
      star, [&events](const ContinuousMatch& m) { events.push_back(m); });

  w.Add(Tr("x", "acquired", "y", 1));
  EXPECT_TRUE(events.empty());  // pattern incomplete
  w.Add(Tr("x", "investsIn", "z", 2));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].query_id, id);
  EXPECT_EQ(events[0].completed_at, 2);
  EXPECT_EQ(detector.NumActiveMatches(id), 1u);
  EXPECT_EQ(detector.TotalMatches(id), 1u);
}

TEST(ContinuousQueryTest, EachMatchFiresExactlyOnce) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  ContinuousPatternDetector detector;
  w.AddListener(&detector);
  PredicateId p = g.predicates().Intern("p");
  Pattern edge = Pattern::Canonicalize({{0, p, 1}}, NoLabel);
  int id = detector.RegisterPattern(edge);
  for (int i = 0; i < 5; ++i) {
    w.Add(Tr("s" + std::to_string(i), "p", "o" + std::to_string(i), i));
  }
  EXPECT_EQ(detector.TotalMatches(id), 5u);
  EXPECT_EQ(detector.NumActiveMatches(id), 5u);
}

TEST(ContinuousQueryTest, ExpiryRetractsActiveMatches) {
  PropertyGraph g;
  TemporalWindow w(&g, 2);  // tiny window
  ContinuousPatternDetector detector;
  w.AddListener(&detector);
  PredicateId acq = g.predicates().Intern("acquired");
  PredicateId inv = g.predicates().Intern("investsIn");
  Pattern star = Pattern::Canonicalize({{0, acq, 1}, {0, inv, 2}},
                                       NoLabel);
  int id = detector.RegisterPattern(star);
  w.Add(Tr("x", "acquired", "y", 1));
  w.Add(Tr("x", "investsIn", "z", 2));
  EXPECT_EQ(detector.NumActiveMatches(id), 1u);
  // Third edge expires the acquired edge -> match retracts.
  w.Add(Tr("q", "acquired", "r", 3));
  EXPECT_EQ(detector.NumActiveMatches(id), 0u);
  EXPECT_EQ(detector.TotalMatches(id), 1u);  // history remains
}

TEST(ContinuousQueryTest, MatchAgreesWithBatchMatcher) {
  // After any stream prefix, active matches == batch MatchPattern
  // results (up to automorphism, compared as edge sets).
  PropertyGraph g;
  TemporalWindow w(&g, 60);
  ContinuousPatternDetector detector;
  w.AddListener(&detector);
  Pattern chain = Pattern::Canonicalize({{0, 0, 1}, {1, 1, 2}}, NoLabel);
  g.predicates().Intern("p0");
  g.predicates().Intern("p1");
  int id = detector.RegisterPattern(chain);

  StreamConfig config;
  config.num_edges = 150;
  config.num_entities = 20;
  config.num_predicates = 2;
  config.seed = 4;
  auto stream = GenerateStream(config);
  for (size_t i = 0; i < stream.size(); ++i) {
    w.Add(stream[i]);
    if (i % 37 != 0) continue;
    std::set<std::vector<EdgeId>> active;
    for (const PatternMatch& m : detector.ActiveMatches(id)) {
      std::vector<EdgeId> sorted = m.edges;
      std::sort(sorted.begin(), sorted.end());
      active.insert(sorted);
    }
    std::set<std::vector<EdgeId>> batch;
    for (const PatternMatch& m : MatchPattern(w, chain)) {
      std::vector<EdgeId> sorted = m.edges;
      std::sort(sorted.begin(), sorted.end());
      batch.insert(sorted);
    }
    ASSERT_EQ(active, batch) << "divergence at edge " << i;
  }
}

TEST(ContinuousQueryTest, MultipleQueriesIndependent) {
  PropertyGraph g;
  TemporalWindow w(&g, 0);
  ContinuousPatternDetector detector;
  w.AddListener(&detector);
  PredicateId p = g.predicates().Intern("p");
  PredicateId q = g.predicates().Intern("q");
  int idp = detector.RegisterPattern(
      Pattern::Canonicalize({{0, p, 1}}, NoLabel));
  int idq = detector.RegisterPattern(
      Pattern::Canonicalize({{0, q, 1}}, NoLabel));
  w.Add(Tr("a", "p", "b", 1));
  w.Add(Tr("a", "p", "c", 2));
  w.Add(Tr("a", "q", "d", 3));
  EXPECT_EQ(detector.TotalMatches(idp), 2u);
  EXPECT_EQ(detector.TotalMatches(idq), 1u);
  EXPECT_EQ(detector.TotalMatches(99), 0u);
}

}  // namespace
}  // namespace nous
