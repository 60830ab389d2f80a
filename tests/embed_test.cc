#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/hash.h"
#include "common/random.h"
#include "embed/baselines.h"
#include "embed/bpr.h"
#include "embed/eval.h"

namespace nous {
namespace {

/// Learnable synthetic world: entities split into two communities;
/// predicate 0 links within community A, predicate 1 within B. A good
/// model scores within-community pairs above cross-community ones.
std::vector<IdTriple> CommunityTriples(size_t num_entities,
                                       size_t triples_per_entity,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<IdTriple> triples;
  size_t half = num_entities / 2;
  for (uint32_t s = 0; s < num_entities; ++s) {
    bool in_a = s < half;
    for (size_t k = 0; k < triples_per_entity; ++k) {
      uint32_t o = in_a ? static_cast<uint32_t>(rng.UniformInt(half))
                        : static_cast<uint32_t>(half +
                                                rng.UniformInt(half));
      if (o == s) o = in_a ? (o + 1) % half
                           : static_cast<uint32_t>(
                                 half + (o + 1 - half) % half);
      triples.push_back(IdTriple{s, in_a ? 0u : 1u, o});
    }
  }
  return triples;
}

TEST(BprTest, ScoreIsCalibratedProbability) {
  BprModel model;
  auto triples = CommunityTriples(40, 4, 1);
  model.Train(triples, 40, 2, model.config().epochs);
  for (const IdTriple& t : triples) {
    double s = model.Score(t[0], t[1], t[2]);
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
}

TEST(BprTest, UnseenIdsScoreNeutral) {
  BprModel model;
  EXPECT_DOUBLE_EQ(model.Score(5, 0, 7), 0.5);
  auto triples = CommunityTriples(20, 3, 2);
  model.Train(triples, 20, 2, model.config().epochs);
  EXPECT_DOUBLE_EQ(model.Score(100, 0, 3), 0.5);
  EXPECT_DOUBLE_EQ(model.Score(3, 9, 4), 0.5);
}

TEST(BprTest, LearnsCommunityStructure) {
  BprConfig config;
  config.epochs = 100;
  config.latent_dim = 16;
  BprModel model(config);
  auto triples = CommunityTriples(60, 6, 3);
  std::vector<IdTriple> train, test;
  SplitTriples(triples, 0.8, 11, &train, &test);
  model.Train(train, 60, 2, model.config().epochs);

  // The task ceiling is ~0.75: within-community unobserved objects are
  // structurally positive, so only cross-community corruptions are
  // reliably separable.
  RankingMetrics metrics = EvaluateRanking(model, test, triples, 60);
  EXPECT_GT(metrics.auc, 0.65) << "BPR AUC " << metrics.auc;
  EXPECT_GT(metrics.mrr, 0.2);

  RandomPredictor random(9);
  RankingMetrics random_metrics =
      EvaluateRanking(random, test, triples, 60);
  EXPECT_GT(metrics.auc, random_metrics.auc + 0.15);
}

TEST(BprTest, TrainingReducesLoss) {
  BprConfig config;
  config.epochs = 0;  // initialize only
  BprModel model(config);
  auto triples = CommunityTriples(40, 5, 4);
  model.Train(triples, 40, 2, model.config().epochs);
  double loss_before = model.EstimateLoss(triples);
  model.Train(triples, 40, 2, 30);
  double loss_after = model.EstimateLoss(triples);
  EXPECT_LT(loss_after, loss_before);
}

TEST(BprTest, IncrementalGrowthHandlesNewEntities) {
  BprModel model;
  auto triples = CommunityTriples(30, 4, 5);
  model.Train(triples, 30, 2, model.config().epochs);
  EXPECT_EQ(model.num_entities(), 30u);
  // New entities arrive (dynamic KG).
  std::vector<IdTriple> fresh = {{30, 0, 31}, {31, 0, 30}, {32, 1, 30}};
  model.Train(fresh, 33, 2, 5);
  EXPECT_EQ(model.num_entities(), 33u);
  double s = model.Score(30, 0, 31);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

TEST(BprTest, DeterministicForSameSeed) {
  auto triples = CommunityTriples(30, 4, 6);
  BprModel a, b;
  a.Train(triples, 30, 2, a.config().epochs);
  b.Train(triples, 30, 2, b.config().epochs);
  for (const IdTriple& t : triples) {
    EXPECT_DOUBLE_EQ(a.Score(t[0], t[1], t[2]), b.Score(t[0], t[1], t[2]));
  }
}

// ---------- Block SGD (the pipeline's BPR refresh) ----------

TEST(BprTest, BlockSgdModelBytesArePinned) {
  // The contract that makes pipeline ingest reproducible: with a fixed
  // sgd_block, training is a pure function of the triples, config and
  // seed. The constant is the FNV-1a of the trained image when block
  // gradients could still be computed across a thread pool, where 0,
  // 1, 2 and 8 pool threads all gave these bytes.
  auto triples = CommunityTriples(40, 5, 7);
  BprConfig config;
  config.epochs = 20;
  config.sgd_block = 64;
  BprModel model(config);
  model.Train(triples, 40, 2, model.config().epochs);
  BinaryWriter writer;
  model.SaveBinary(&writer);
  EXPECT_EQ(writer.data().size(), 10592u);
  EXPECT_EQ(Fnv1a(writer.data()), 0xa27618cd20d5d780ull);
}

TEST(BprTest, BlockSgdWithBlockOneMatchesSequentialSgd) {
  // sgd_block=1 degenerates to classic SGD: the gradient is computed
  // from current parameters and applied immediately.
  auto triples = CommunityTriples(30, 4, 8);
  BprConfig sequential_config;
  sequential_config.epochs = 10;
  BprConfig block_config = sequential_config;
  block_config.sgd_block = 1;
  BprModel sequential(sequential_config), block(block_config);
  sequential.Train(triples, 30, 2, sequential.config().epochs);
  block.Train(triples, 30, 2, block.config().epochs);
  for (const IdTriple& t : triples) {
    ASSERT_DOUBLE_EQ(sequential.Score(t[0], t[1], t[2]),
                     block.Score(t[0], t[1], t[2]));
  }
}

TEST(BprTest, BlockSgdAucWithinToleranceOfSequentialTrainer) {
  // Block gradients are stale by at most sgd_block-1 updates, so the
  // trained model differs from the sequential trainer's — but ranking
  // quality must hold up. This is the documented tolerance for the
  // pipeline's block-SGD BPR refresh.
  auto triples = CommunityTriples(60, 6, 3);
  std::vector<IdTriple> train, test;
  SplitTriples(triples, 0.8, 11, &train, &test);

  BprConfig sequential_config;
  sequential_config.epochs = 100;
  BprModel sequential(sequential_config);
  sequential.Train(train, 60, 2, sequential.config().epochs);
  RankingMetrics sequential_metrics =
      EvaluateRanking(sequential, test, triples, 60);

  BprConfig block_config = sequential_config;
  block_config.sgd_block = 256;
  BprModel block(block_config);
  block.Train(train, 60, 2, block.config().epochs);
  RankingMetrics block_metrics = EvaluateRanking(block, test, triples, 60);

  EXPECT_GT(block_metrics.auc, 0.65) << "block AUC " << block_metrics.auc;
  EXPECT_NEAR(block_metrics.auc, sequential_metrics.auc, 0.05)
      << "sequential " << sequential_metrics.auc << " vs block "
      << block_metrics.auc;
}

// ---------- Baselines ----------

TEST(NeighborIndexTest, BuildsUndirectedNeighborhoods) {
  std::vector<IdTriple> triples = {{0, 0, 1}, {1, 0, 2}};
  NeighborIndex index(triples, 3);
  EXPECT_EQ(index.Degree(0), 1u);
  EXPECT_EQ(index.Degree(1), 2u);
  EXPECT_TRUE(index.Neighbors(1).count(0) > 0);
  EXPECT_TRUE(index.Neighbors(1).count(2) > 0);
  EXPECT_EQ(index.Degree(99), 0u);  // out of range is safe
}

TEST(BaselinesTest, CommonNeighborsCountsSharedVertices) {
  // 0 and 2 share neighbor 1; 0 and 3 share none.
  std::vector<IdTriple> triples = {{0, 0, 1}, {2, 0, 1}, {3, 0, 4}};
  NeighborIndex index(triples, 5);
  CommonNeighborsPredictor cn(&index);
  EXPECT_DOUBLE_EQ(cn.Score(0, 0, 2), 1.0);
  EXPECT_DOUBLE_EQ(cn.Score(0, 0, 3), 0.0);
}

TEST(BaselinesTest, AdamicAdarDiscountsHighDegreeNeighbors) {
  // Hub vertex 1 connects everyone; vertex 5 connects only 0 and 2.
  std::vector<IdTriple> triples = {{0, 0, 1}, {2, 0, 1}, {3, 0, 1},
                                   {4, 0, 1}, {0, 0, 5}, {2, 0, 5}};
  NeighborIndex index(triples, 6);
  AdamicAdarPredictor aa(&index);
  CommonNeighborsPredictor cn(&index);
  // Both share {1,5} for (0,2): AA weighs the low-degree 5 more.
  double score_02 = aa.Score(0, 0, 2);
  double score_03 = aa.Score(0, 0, 3);  // only the hub is shared
  EXPECT_GT(score_02, score_03);
  EXPECT_DOUBLE_EQ(cn.Score(0, 0, 2), 2.0);
}

TEST(BaselinesTest, PreferentialAttachmentUsesDegrees) {
  std::vector<IdTriple> triples = {{0, 0, 1}, {0, 0, 2}, {3, 0, 1}};
  NeighborIndex index(triples, 4);
  PreferentialAttachmentPredictor pa(&index);
  EXPECT_DOUBLE_EQ(pa.Score(0, 0, 1), 4.0);  // deg 2 * deg 2
  EXPECT_DOUBLE_EQ(pa.Score(3, 0, 2), 1.0);
}

TEST(BaselinesTest, TopologyBaselinesBeatRandomOnCommunities) {
  auto triples = CommunityTriples(60, 6, 7);
  std::vector<IdTriple> train, test;
  SplitTriples(triples, 0.8, 13, &train, &test);
  NeighborIndex index(train, 60);
  CommonNeighborsPredictor cn(&index);
  RandomPredictor random(3);
  RankingMetrics cn_metrics = EvaluateRanking(cn, test, triples, 60);
  RankingMetrics rnd_metrics = EvaluateRanking(random, test, triples, 60);
  EXPECT_GT(cn_metrics.auc, rnd_metrics.auc + 0.1);
}

// ---------- Eval ----------

TEST(EvalTest, PerfectPredictorScoresPerfectly) {
  // Oracle: scores the true object 1, everything else 0.
  class Oracle : public LinkPredictor {
   public:
    explicit Oracle(uint32_t target) : target_(target) {}
    double Score(uint32_t, uint32_t, uint32_t o) const override {
      return o == target_ ? 1.0 : 0.0;
    }
    std::string name() const override { return "oracle"; }

   private:
    uint32_t target_;
  };
  std::vector<IdTriple> test = {{0, 0, 7}};
  Oracle oracle(7);
  RankingMetrics metrics = EvaluateRanking(oracle, test, test, 50);
  EXPECT_DOUBLE_EQ(metrics.auc, 1.0);
  EXPECT_DOUBLE_EQ(metrics.mrr, 1.0);
  EXPECT_DOUBLE_EQ(metrics.hits_at_10, 1.0);
}

TEST(EvalTest, EmptyTestSetYieldsZeroMetrics) {
  RandomPredictor random(1);
  RankingMetrics metrics = EvaluateRanking(random, {}, {}, 10);
  EXPECT_EQ(metrics.evaluated, 0u);
  EXPECT_DOUBLE_EQ(metrics.auc, 0.0);
}

TEST(EvalTest, SplitPartitionsAllTriples) {
  auto triples = CommunityTriples(20, 3, 8);
  std::vector<IdTriple> train, test;
  SplitTriples(triples, 0.75, 3, &train, &test);
  EXPECT_EQ(train.size() + test.size(), triples.size());
  EXPECT_NEAR(static_cast<double>(train.size()) / triples.size(), 0.75,
              0.02);
}

}  // namespace
}  // namespace nous
