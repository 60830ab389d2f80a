// Unit tests for the benchmark's own helpers: the percentile rule, the
// seeded Zipf picker and the query-mix generator.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "graph/property_graph.h"
#include "qa/path_search.h"
#include "qa/query.h"
#include "query_mix.h"

namespace nous {
namespace perfbench {
namespace {

TEST(PercentileRuleTest, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailQuantileFor(10000), 0.999);
  EXPECT_EQ(TailQuantileFor(1000), 0.99);
  EXPECT_EQ(TailQuantileFor(999), 0.95);  // p99 would leave 9.99 beyond
  EXPECT_EQ(TailQuantileFor(200), 0.95);
  EXPECT_EQ(TailQuantileFor(100), 0.9);
  EXPECT_EQ(TailQuantileFor(99), 0.5);
  EXPECT_EQ(TailQuantileFor(0), 0.5);
}

TEST(PercentileRuleTest, QuantileIsNearestRankAndFailuresSortLast) {
  std::vector<double> values;
  for (int i = 1; i <= 101; ++i) values.push_back(i);
  EXPECT_EQ(Quantile(values, 0.5), 51);
  EXPECT_EQ(Quantile(values, 0.0), 1);
  EXPECT_EQ(Quantile(values, 1.0), 101);
  EXPECT_EQ(Median({}), 0);
  values.push_back(FailedSample());
  EXPECT_EQ(Quantile(values, 1.0), std::numeric_limits<double>::infinity());
  EXPECT_LT(Quantile(values, 0.99), 1e9);
}

TEST(PercentileRuleTest, FastestPerPositionFoldsCompleteRounds) {
  // Three positions, three complete rounds and a partial fourth (0.5,
  // ignored); a stall (90) in round two of position 0.
  const std::vector<double> samples = {3, 12, 100, 90, 11, 101,
                                       2, 13, 102, 0.5};
  EXPECT_EQ(FastestPerPosition(samples, 3),
            (std::vector<double>{2, 11, 100}));
  // Fewer than two complete rounds: nothing to fold.
  EXPECT_EQ(FastestPerPosition({1, 2, 3, 4}, 3),
            (std::vector<double>{1, 2, 3, 4}));
}

TEST(PercentileRuleTest, ByWindowKeepsWholeWindowsOnly) {
  struct Sample {
    double done_s;
    int id;
  };
  const std::vector<Sample> samples = {
      {0.1, 1}, {0.99, 2}, {1.0, 3}, {2.5, 4}, {3.2, 5}, {-0.1, 6}};
  // 3.4 s of phase: three whole windows; 3.2 s falls in the partial
  // fourth and is left out.
  auto windows = ByWindow(samples, 1.0, 3.4);
  ASSERT_EQ(windows.size(), 3u);
  ASSERT_EQ(windows[0].size(), 2u);
  EXPECT_EQ(windows[0][1].id, 2);
  ASSERT_EQ(windows[1].size(), 1u);
  EXPECT_EQ(windows[1][0].id, 3);
  ASSERT_EQ(windows[2].size(), 1u);
  EXPECT_EQ(windows[2][0].id, 4);
  EXPECT_TRUE(ByWindow(samples, 1.0, 0.5).empty());
}

TEST(ZipfPickerTest, SameSeedSameSequence) {
  ZipfPicker a(50, 1.0, 7), b(50, 1.0, 7), c(50, 1.0, 8);
  std::vector<size_t> sa, sb, sc;
  for (int i = 0; i < 1000; ++i) {
    sa.push_back(a.Next());
    sb.push_back(b.Next());
    sc.push_back(c.Next());
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
}

TEST(ZipfPickerTest, RanksStayInRangeAndSkewTowardRankZero) {
  ZipfPicker zipf(20, 1.0, 3);
  std::vector<size_t> counts(20, 0);
  for (int i = 0; i < 20000; ++i) {
    size_t k = zipf.Next();
    ASSERT_LT(k, 20u);
    ++counts[k];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  // P(rank 0) = 1 / H(20) ~ 0.28.
  EXPECT_NEAR(counts[0] / 20000.0, 0.278, 0.03);
}

/// A small KG: a chain of companies, a hub, and a label with " and "
/// inside, which cannot be the first entity of "explain A and B".
void AddFact(PropertyGraph* g, const std::string& s, const std::string& p,
             const std::string& o) {
  TimedTriple t;
  t.triple.subject = s;
  t.triple.predicate = p;
  t.triple.object = o;
  t.timestamp = 100;
  t.source = "wsj";
  g->AddTriple(t);
}

PropertyGraph MakeGraph() {
  PropertyGraph g;
  const std::vector<std::string> names = {"Acme", "Bolt", "Corvid", "Dyna",
                                          "Ember", "Ben and Jerry"};
  for (size_t i = 0; i + 1 < names.size(); ++i) {
    AddFact(&g, names[i], "partnered_with", names[i + 1]);
    AddFact(&g, names[i + 1], "supplies", names[(i + 2) % names.size()]);
    AddFact(&g, "Hub", "invested_in", names[i]);
  }
  g.GetOrAddVertex("Isolated");  // no edges: never a target
  return g;
}

TEST(QueryMixTest, TargetsResolveAndExplainPairsAreConnected) {
  PropertyGraph g = MakeGraph();
  QueryTargets targets = FindQueryTargets(g, 5, 16);
  ASSERT_FALSE(targets.entities.empty());
  ASSERT_FALSE(targets.explain_pairs.empty());
  ASSERT_FALSE(targets.searches.empty());
  auto degree = [&](const std::string& label) {
    VertexId v = *g.FindVertexFolded(label);
    return g.OutDegree(v) + g.InDegree(v);
  };
  for (size_t i = 1; i < targets.entities.size(); ++i) {
    EXPECT_GE(degree(targets.entities[i - 1]), degree(targets.entities[i]));
  }
  for (const std::string& e : targets.entities) {
    EXPECT_NE(e, "Isolated");
    EXPECT_TRUE(g.FindVertexFolded(e).has_value()) << e;
  }
  PathSearch search(&g);
  for (const auto& [a, b] : targets.explain_pairs) {
    // "explain Ben and Jerry and X" splits at the first " and ".
    EXPECT_NE(a, "Ben and Jerry");
    Result<Query> q = ParseQuery("explain " + a + " and " + b);
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->entity_a, a);
    EXPECT_EQ(q->entity_b, b);
    auto s = g.FindVertexFolded(a), t = g.FindVertexFolded(b);
    ASSERT_TRUE(s && t);
    EXPECT_FALSE(search.FindPaths(*s, *t).empty()) << a << " ~ " << b;
  }
  for (const auto& via : targets.searches) {
    auto p = g.predicates().Lookup(via.via);
    ASSERT_TRUE(p.has_value()) << via.via;
  }
}

TEST(QueryMixTest, GeneratedQueriesParseResolveAndRepeatPerSeed) {
  PropertyGraph g = MakeGraph();
  QueryTargets targets = FindQueryTargets(g, 5, 16);
  std::vector<MixQuery> a = GenerateQueries(targets, 500, 9);
  std::vector<MixQuery> b = GenerateQueries(targets, 500, 9);
  ASSERT_EQ(a.size(), b.size());
  std::set<QueryClass> classes;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].text, b[i].text);
    classes.insert(a[i].cls);
    Result<Query> q = ParseQuery(a[i].text);
    ASSERT_TRUE(q.ok()) << a[i].text;
    EXPECT_EQ(ClassOf(q->kind), a[i].cls) << a[i].text;
    for (const std::string* name : {&q->entity_a, &q->entity_b}) {
      if (!name->empty()) {
        EXPECT_TRUE(g.FindVertexFolded(*name).has_value()) << a[i].text;
      }
    }
  }
  EXPECT_EQ(classes.size(), kNumQueryClasses);
}

}  // namespace
}  // namespace perfbench
}  // namespace nous
