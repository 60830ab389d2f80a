#ifndef NOUS_EMBED_BPR_H_
#define NOUS_EMBED_BPR_H_

#include <cstddef>
#include <vector>

#include "common/binary_io.h"
#include "common/random.h"
#include "common/status.h"
#include "embed/link_predictor.h"

namespace nous {

struct BprConfig {
  size_t latent_dim = 16;
  double learning_rate = 0.05;
  double regularization = 0.01;
  /// Epochs of a full training pass (the pipeline's curated bootstrap
  /// and Finalize); Train takes its epoch count from the caller.
  size_t epochs = 30;
  /// Negative objects sampled per positive per epoch.
  size_t negatives_per_positive = 1;
  uint64_t seed = 31;
  /// SGD scheduling. 0 = classic sequential SGD (every update sees all
  /// preceding ones — the seed behavior). >0 = block SGD: gradients for
  /// `sgd_block` consecutive samples are computed against parameters
  /// frozen at the block start, then applied in sample order. The
  /// block size picks the trained model (the pipeline's is 256);
  /// training is serial either way, so no thread count enters it.
  /// See DESIGN.md "Threading model" for why it does not use a pool.
  size_t sgd_block = 0;
};

/// Latent-feature link prediction trained with the Bayesian
/// Personalized Ranking criterion (§3.4, following Zhang et al. [16]):
/// score(s,p,o) = sigmoid(u_s . (w_p ⊙ v_o) + b_p), with shared entity
/// embeddings and a per-predicate diagonal interaction. Training
/// optimizes ln sigmoid(x_pos − x_neg) by SGD over (positive, sampled
/// negative-object) pairs. Retraining grows the tables as the dynamic
/// KG grows (BprConfig::sgd_block picks sequential or block SGD).
class BprModel : public LinkPredictor {
 public:
  explicit BprModel(BprConfig config = {});

  /// Runs `epochs` SGD passes over `triples`, continuing from the
  /// current parameters. Grows parameter tables to `num_entities` /
  /// `num_predicates` as needed (never shrinks), so the same call both
  /// trains a fresh model and refreshes one as the dynamic KG grows.
  void Train(const std::vector<IdTriple>& triples, size_t num_entities,
             size_t num_predicates, size_t epochs);

  /// Calibrated confidence in (0, 1).
  double Score(uint32_t subject, uint32_t predicate,
               uint32_t object) const override;

  std::string name() const override { return "bpr"; }

  /// Mean BPR loss over a sample of the training set (diagnostics).
  double EstimateLoss(const std::vector<IdTriple>& triples,
                      size_t max_samples = 2000) const;

  size_t num_entities() const { return num_entities_; }
  const BprConfig& config() const { return config_; }

  /// Checkpoint serialization: parameter tables bit-exact plus the
  /// RNG state, so a restored model continues the exact same SGD
  /// trajectory (negative sampling included). The config is
  /// reconstructed by the caller and must match the saved dimensions.
  void SaveBinary(BinaryWriter* writer) const;
  Status LoadBinary(BinaryReader* reader);

 private:
  /// One presampled SGD example: (subject, predicate, positive object,
  /// corrupted object).
  struct Sample {
    uint32_t s, p, o_pos, o_neg;
  };

  void EnsureCapacity(size_t num_entities, size_t num_predicates);
  void RunEpochs(const std::vector<IdTriple>& triples, size_t epochs);
  void RunEpochsBlocked(const std::vector<IdTriple>& triples, size_t epochs);
  double RawScore(uint32_t s, uint32_t p, uint32_t o) const;
  void SgdStep(uint32_t s, uint32_t p, uint32_t o_pos, uint32_t o_neg);
  /// RawScore(s, p, o_pos) − RawScore(s, p, o_neg) of samples[0..4)
  /// into diffs[0..4), bit for bit, with the four sums interleaved.
  void ScoreDiffs4(const Sample* samples, double* diffs) const;
  /// Writes the 4 x latent_dim gradient rows (du, dv_pos, dv_neg, dw)
  /// for `sample`, whose score difference is `x_diff`, into `grad`,
  /// reading current parameters only.
  void ComputeGradient(const Sample& sample, double x_diff,
                       double* grad) const;
  void ApplyGradient(const Sample& sample, const double* grad);

  BprConfig config_;
  Rng rng_;
  size_t num_entities_ = 0;
  size_t num_predicates_ = 0;
  /// Row-major [entity][dim] subject and object tables.
  std::vector<double> subject_emb_;
  std::vector<double> object_emb_;
  /// Row-major [predicate][dim] diagonal interaction weights.
  std::vector<double> predicate_diag_;
  std::vector<double> predicate_bias_;
};

}  // namespace nous

#endif  // NOUS_EMBED_BPR_H_
