#include <algorithm>
#include <array>
#include <cmath>
#include <string>
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

/// Block SGD as first written, one sample's score and gradient at a
/// time (RawScore, ComputeGradient and ApplyGradient copied from the
/// scalar trainer), over the state a BprModel image holds.
struct ScalarBlockSgd {
  BprConfig config;
  Rng rng;
  uint64_t entities = 0;
  uint64_t predicates = 0;
  std::vector<double> subject_emb, object_emb, predicate_diag, predicate_bias;

  explicit ScalarBlockSgd(const BprModel& model) : config(model.config()) {
    BinaryWriter writer;
    model.SaveBinary(&writer);
    BinaryReader reader(writer.data());
    uint64_t state[4];
    for (uint64_t& word : state) NOUS_CHECK_OK(reader.U64(&word));
    rng.RestoreState(state);
    NOUS_CHECK_OK(reader.U64(&entities));
    NOUS_CHECK_OK(reader.U64(&predicates));
    NOUS_CHECK_OK(reader.F64Array(&subject_emb));
    NOUS_CHECK_OK(reader.F64Array(&object_emb));
    NOUS_CHECK_OK(reader.F64Array(&predicate_diag));
    NOUS_CHECK_OK(reader.F64Array(&predicate_bias));
  }

  std::string Image() const {
    BinaryWriter writer;
    uint64_t state[4];
    rng.SaveState(state);
    for (uint64_t word : state) writer.U64(word);
    writer.U64(entities);
    writer.U64(predicates);
    writer.F64Array(subject_emb);
    writer.F64Array(object_emb);
    writer.F64Array(predicate_diag);
    writer.F64Array(predicate_bias);
    return writer.Take();
  }

  double RawScore(uint32_t s, uint32_t p, uint32_t o) const {
    const size_t d = config.latent_dim;
    const double* u = &subject_emb[s * d];
    const double* v = &object_emb[o * d];
    const double* w = &predicate_diag[p * d];
    double x = predicate_bias[p];
    for (size_t k = 0; k < d; ++k) x += u[k] * w[k] * v[k];
    return x;
  }

  void ComputeGradient(const std::array<uint32_t, 4>& sample,
                       double* grad) const {
    const size_t d = config.latent_dim;
    const double lr = config.learning_rate;
    const double reg = config.regularization;
    const double* u = &subject_emb[sample[0] * d];
    const double* vp = &object_emb[sample[2] * d];
    const double* vn = &object_emb[sample[3] * d];
    const double* w = &predicate_diag[sample[1] * d];
    const double x = RawScore(sample[0], sample[1], sample[2]) -
                     RawScore(sample[0], sample[1], sample[3]);
    // 1 - sigmoid(x), with the trainer's overflow-safe sigmoid.
    const double g = 1.0 - (x >= 0 ? 1.0 / (1.0 + std::exp(-x))
                                   : std::exp(x) / (1.0 + std::exp(x)));
    for (size_t k = 0; k < d; ++k) {
      const double uk = u[k], vpk = vp[k], vnk = vn[k], wk = w[k];
      grad[k] = lr * (g * wk * (vpk - vnk) - reg * uk);
      grad[d + k] = lr * (g * wk * uk - reg * vpk);
      grad[2 * d + k] = lr * (-g * wk * uk - reg * vnk);
      grad[3 * d + k] = lr * (g * uk * (vpk - vnk) - reg * wk);
    }
  }

  void ApplyGradient(const std::array<uint32_t, 4>& sample,
                     const double* grad) {
    const size_t d = config.latent_dim;
    for (size_t k = 0; k < d; ++k) {
      subject_emb[sample[0] * d + k] += grad[k];
      object_emb[sample[2] * d + k] += grad[d + k];
      object_emb[sample[3] * d + k] += grad[2 * d + k];
      predicate_diag[sample[1] * d + k] += grad[3 * d + k];
    }
  }

  void Train(const std::vector<IdTriple>& triples, size_t epochs) {
    const size_t d = config.latent_dim;
    std::vector<size_t> order(triples.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::vector<std::array<uint32_t, 4>> samples;
    std::vector<double> grads;
    for (size_t epoch = 0; epoch < epochs; ++epoch) {
      rng.Shuffle(&order);
      samples.clear();
      for (size_t idx : order) {
        const IdTriple& t = triples[idx];
        for (size_t neg = 0; neg < config.negatives_per_positive; ++neg) {
          uint32_t o_neg = static_cast<uint32_t>(rng.UniformInt(entities));
          if (o_neg == t[2]) {
            o_neg = static_cast<uint32_t>((o_neg + 1) % entities);
          }
          samples.push_back({t[0], t[1], t[2], o_neg});
        }
      }
      for (size_t start = 0; start < samples.size();
           start += config.sgd_block) {
        const size_t count =
            std::min(config.sgd_block, samples.size() - start);
        grads.resize(count * 4 * d);
        for (size_t i = 0; i < count; ++i) {
          ComputeGradient(samples[start + i], &grads[i * 4 * d]);
        }
        for (size_t i = 0; i < count; ++i) {
          ApplyGradient(samples[start + i], &grads[i * 4 * d]);
        }
      }
    }
  }
};

TEST(BprTest, InterleavedBlockScoresMatchTheScalarKernelBitForBit) {
  // Random triples; 103 triples x 2 negatives = 206 samples in blocks
  // of 13 (three scored singly after each run of four), with a last
  // block of 11; latent_dim 7.
  Rng rng(5);
  std::vector<IdTriple> triples;
  for (size_t i = 0; i < 103; ++i) {
    triples.push_back(IdTriple{static_cast<uint32_t>(rng.UniformInt(37)),
                               static_cast<uint32_t>(rng.UniformInt(3)),
                               static_cast<uint32_t>(rng.UniformInt(37))});
  }
  BprConfig config;
  config.latent_dim = 7;
  config.negatives_per_positive = 2;
  config.sgd_block = 13;
  BprModel model(config);
  model.Train(triples, 37, 3, 0);  // sizes the tables, trains nothing
  ScalarBlockSgd reference(model);
  ASSERT_EQ(reference.Image(), [&] {
    BinaryWriter writer;
    model.SaveBinary(&writer);
    return writer.Take();
  }());
  for (size_t round = 0; round < 3; ++round) {
    model.Train(triples, 37, 3, 4);
    reference.Train(triples, 4);
    BinaryWriter writer;
    model.SaveBinary(&writer);
    ASSERT_EQ(writer.Take(), reference.Image()) << "round " << round;
  }
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
