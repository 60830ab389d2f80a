#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/property_graph.h"
#include "topic/divergence.h"
#include "topic/doc_term.h"
#include "topic/lda.h"

namespace nous {
namespace {

// ---------- Divergences ----------

TEST(DivergenceTest, IdenticalDistributionsAreZero) {
  std::vector<double> p = {0.5, 0.3, 0.2};
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-9);
  EXPECT_NEAR(JsDivergence(p, p), 0.0, 1e-9);
}

TEST(DivergenceTest, JsIsSymmetricAndBounded) {
  std::vector<double> p = {1.0, 0.0};
  std::vector<double> q = {0.0, 1.0};
  double js = JsDivergence(p, q);
  EXPECT_NEAR(js, JsDivergence(q, p), 1e-12);
  EXPECT_NEAR(js, std::log(2.0), 1e-9);  // maximally divergent
}

TEST(DivergenceTest, KlIsAsymmetric) {
  std::vector<double> p = {0.9, 0.1};
  std::vector<double> q = {0.5, 0.5};
  EXPECT_NE(KlDivergence(p, q), KlDivergence(q, p));
  EXPECT_GT(KlDivergence(p, q), 0.0);
}

TEST(DivergenceTest, MismatchedOrEmptyInputsScoreMaximal) {
  std::vector<double> p = {0.5, 0.5};
  std::vector<double> q = {1.0};
  EXPECT_NEAR(JsDivergence(p, q), std::log(2.0), 1e-9);
  EXPECT_NEAR(JsDivergence({}, {}), std::log(2.0), 1e-9);
}

// ---------- LDA ----------

/// Two disjoint vocabularies: terms 0-9 (topic A), 10-19 (topic B).
/// Docs draw exclusively from one side — trivially separable.
std::vector<std::vector<uint32_t>> TwoClusterDocs(size_t docs_per_side,
                                                  size_t doc_len,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> docs;
  for (size_t side = 0; side < 2; ++side) {
    for (size_t d = 0; d < docs_per_side; ++d) {
      std::vector<uint32_t> doc;
      for (size_t i = 0; i < doc_len; ++i) {
        doc.push_back(static_cast<uint32_t>(side * 10 +
                                            rng.UniformInt(10)));
      }
      docs.push_back(std::move(doc));
    }
  }
  return docs;
}

TEST(LdaTest, DocumentTopicsAreDistributions) {
  LdaConfig config;
  config.num_topics = 4;
  config.iterations = 50;
  LdaModel model(config);
  auto docs = TwoClusterDocs(10, 30, 1);
  model.Fit(docs, 20);
  for (size_t d = 0; d < docs.size(); ++d) {
    auto theta = model.DocumentTopics(d);
    ASSERT_EQ(theta.size(), 4u);
    double sum = 0;
    for (double v : theta) {
      EXPECT_GT(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  for (size_t k = 0; k < 4; ++k) {
    auto phi = model.TopicTerms(k);
    double sum = 0;
    for (double v : phi) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(LdaTest, RecoversTwoClusterStructure) {
  LdaConfig config;
  config.num_topics = 2;
  config.iterations = 150;
  LdaModel model(config);
  auto docs = TwoClusterDocs(15, 40, 2);
  model.Fit(docs, 20);
  // Same-side documents must be far closer in topic space than
  // opposite-side documents.
  double within = JsDivergence(model.DocumentTopics(0),
                               model.DocumentTopics(1));
  double across = JsDivergence(model.DocumentTopics(0),
                               model.DocumentTopics(15));
  EXPECT_LT(within * 3, across)
      << "within=" << within << " across=" << across;
}

TEST(LdaTest, InferMatchesTrainingSideForUnseenDoc) {
  LdaConfig config;
  config.num_topics = 2;
  config.iterations = 150;
  LdaModel model(config);
  auto docs = TwoClusterDocs(15, 40, 3);
  model.Fit(docs, 20);
  std::vector<uint32_t> unseen_a = {0, 3, 5, 7, 2, 9, 1, 4};
  auto theta = model.Infer(unseen_a, 30);
  double to_a = JsDivergence(theta, model.DocumentTopics(0));
  double to_b = JsDivergence(theta, model.DocumentTopics(15));
  EXPECT_LT(to_a, to_b);
}

TEST(LdaTest, EmptyDocInferReturnsUniform) {
  LdaModel model;
  auto theta = model.Infer({}, 5);
  for (double v : theta) {
    EXPECT_NEAR(v, 1.0 / model.num_topics(), 1e-9);
  }
}

TEST(LdaTest, DeterministicPerSeed) {
  auto docs = TwoClusterDocs(5, 20, 4);
  LdaConfig config;
  config.iterations = 30;
  LdaModel a(config), b(config);
  a.Fit(docs, 20);
  b.Fit(docs, 20);
  for (size_t d = 0; d < docs.size(); ++d) {
    EXPECT_EQ(a.DocumentTopics(d), b.DocumentTopics(d));
  }
}

TEST(LdaDeathTest, MoreThan256TopicsIsFatal) {
  // Token topic assignments are uint8_t: topic 256 would alias topic 0.
  LdaConfig config;
  config.num_topics = 256;
  EXPECT_EQ(LdaModel(config).num_topics(), 256u);
  config.num_topics = 257;
  EXPECT_DEATH(LdaModel{config}, "num_topics <= 256");
}

// ---------- Vertex corpus ----------

TEST(DocTermTest, BuildsCorpusFromVertexBags) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("A");
  VertexId b = g.GetOrAddVertex("B");
  g.GetOrAddVertex("NoBag");
  g.AddVertexTerm(a, g.terms().Intern("drone"), 2.0);
  g.AddVertexTerm(a, g.terms().Intern("camera"), 1.0);
  g.AddVertexTerm(b, g.terms().Intern("property"), 3.0);
  VertexCorpus corpus = BuildVertexCorpus(g);
  ASSERT_EQ(corpus.docs.size(), 2u);  // NoBag excluded
  EXPECT_EQ(corpus.vertices[0], a);
  EXPECT_EQ(corpus.docs[0].size(), 3u);  // 2x drone + 1x camera
  EXPECT_EQ(corpus.vocab_size, g.terms().size());
}

TEST(DocTermTest, RepeatCapped) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("A");
  g.AddVertexTerm(a, g.terms().Intern("x"), 1000.0);
  VertexCorpus corpus = BuildVertexCorpus(g, /*max_repeat=*/4);
  ASSERT_EQ(corpus.docs.size(), 1u);
  EXPECT_EQ(corpus.docs[0].size(), 4u);
}

/// Applies FitVertexTopics output to the graph the way the pipeline
/// does (src/topic itself never mutates a graph; nous-layering).
void ApplyTopics(PropertyGraph* g, VertexTopicAssignments fitted) {
  for (size_t i = 0; i < fitted.vertices.size(); ++i) {
    g->SetVertexTopics(fitted.vertices[i], std::move(fitted.topics[i]));
  }
}

TEST(DocTermTest, FitVertexTopicsAssignsDistributions) {
  PropertyGraph g;
  // Two sector clusters of vertices.
  for (int i = 0; i < 6; ++i) {
    VertexId v = g.GetOrAddVertex("consumer" + std::to_string(i));
    for (const char* t : {"camera", "quadcopter", "retail"}) {
      g.AddVertexTerm(v, g.terms().Intern(t), 3.0);
    }
  }
  for (int i = 0; i < 6; ++i) {
    VertexId v = g.GetOrAddVertex("realty" + std::to_string(i));
    for (const char* t : {"property", "listing", "broker"}) {
      g.AddVertexTerm(v, g.terms().Intern(t), 3.0);
    }
  }
  LdaConfig config;
  config.num_topics = 2;
  config.iterations = 100;
  ApplyTopics(&g, FitVertexTopics(g, config));
  auto va = g.FindVertex("consumer0");
  auto vb = g.FindVertex("consumer1");
  auto vc = g.FindVertex("realty0");
  ASSERT_TRUE(va && vb && vc);
  double within = JsDivergence(g.VertexTopics(*va), g.VertexTopics(*vb));
  double across = JsDivergence(g.VertexTopics(*va), g.VertexTopics(*vc));
  EXPECT_LT(within, across);
}

TEST(DocTermTest, EmptyGraphIsSafe) {
  PropertyGraph g;
  LdaConfig config;
  config.iterations = 5;
  ApplyTopics(&g, FitVertexTopics(g, config));  // must not crash
  SUCCEED();
}

}  // namespace
}  // namespace nous
