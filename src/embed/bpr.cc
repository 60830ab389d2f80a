#include "embed/bpr.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace nous {

namespace {

double Sigmoid(double x) {
  if (x >= 0) {
    return 1.0 / (1.0 + std::exp(-x));
  }
  double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

BprModel::BprModel(BprConfig config)
    : config_(config), rng_(config.seed) {}

void BprModel::EnsureCapacity(size_t num_entities, size_t num_predicates) {
  const size_t d = config_.latent_dim;
  if (num_entities > num_entities_) {
    size_t old = subject_emb_.size();
    subject_emb_.resize(num_entities * d);
    object_emb_.resize(num_entities * d);
    const double scale = 1.0 / std::sqrt(static_cast<double>(d));
    for (size_t i = old; i < subject_emb_.size(); ++i) {
      subject_emb_[i] = rng_.Gaussian() * scale;
      object_emb_[i] = rng_.Gaussian() * scale;
    }
    num_entities_ = num_entities;
  }
  if (num_predicates > num_predicates_) {
    size_t old = predicate_diag_.size();
    predicate_diag_.resize(num_predicates * d, 0.0);
    for (size_t i = old; i < predicate_diag_.size(); ++i) {
      predicate_diag_[i] = 1.0 + 0.1 * rng_.Gaussian();
    }
    predicate_bias_.resize(num_predicates, 0.0);
    num_predicates_ = num_predicates;
  }
}

double BprModel::RawScore(uint32_t s, uint32_t p, uint32_t o) const {
  const size_t d = config_.latent_dim;
  const double* u = &subject_emb_[s * d];
  const double* v = &object_emb_[o * d];
  const double* w = &predicate_diag_[p * d];
  double x = predicate_bias_[p];
  for (size_t k = 0; k < d; ++k) x += u[k] * w[k] * v[k];
  return x;
}

double BprModel::Score(uint32_t subject, uint32_t predicate,
                       uint32_t object) const {
  if (subject >= num_entities_ || object >= num_entities_ ||
      predicate >= num_predicates_) {
    return 0.5;  // unseen ids: uninformative prior
  }
  return Sigmoid(RawScore(subject, predicate, object));
}

void BprModel::SgdStep(uint32_t s, uint32_t p, uint32_t o_pos,
                       uint32_t o_neg) {
  const size_t d = config_.latent_dim;
  const double lr = config_.learning_rate;
  const double reg = config_.regularization;
  double* u = &subject_emb_[s * d];
  double* vp = &object_emb_[o_pos * d];
  double* vn = &object_emb_[o_neg * d];
  double* w = &predicate_diag_[p * d];
  const double x_diff = RawScore(s, p, o_pos) - RawScore(s, p, o_neg);
  // d/dx of -ln sigmoid(x) is -(1 - sigmoid(x)).
  const double g = 1.0 - Sigmoid(x_diff);
  for (size_t k = 0; k < d; ++k) {
    const double uk = u[k], vpk = vp[k], vnk = vn[k], wk = w[k];
    u[k] += lr * (g * wk * (vpk - vnk) - reg * uk);
    vp[k] += lr * (g * wk * uk - reg * vpk);
    vn[k] += lr * (-g * wk * uk - reg * vnk);
    w[k] += lr * (g * uk * (vpk - vnk) - reg * wk);
  }
}

void BprModel::ScoreDiffs4(const Sample* samples, double* diffs) const {
  const size_t d = config_.latent_dim;
  const double* u[4];
  const double* w[4];
  const double* vp[4];
  const double* vn[4];
  double x_pos[4];
  double x_neg[4];
  for (size_t j = 0; j < 4; ++j) {
    const Sample& sample = samples[j];
    u[j] = &subject_emb_[sample.s * d];
    w[j] = &predicate_diag_[sample.p * d];
    vp[j] = &object_emb_[sample.o_pos * d];
    vn[j] = &object_emb_[sample.o_neg * d];
    x_pos[j] = x_neg[j] = predicate_bias_[sample.p];
  }
  // RawScore's sums, term for term: each starts from the bias and adds
  // (u·w)·v in k order. The four samples' chains are independent, so
  // their adds overlap instead of waiting on one another.
  for (size_t k = 0; k < d; ++k) {
    for (size_t j = 0; j < 4; ++j) {
      const double uw = u[j][k] * w[j][k];
      x_pos[j] += uw * vp[j][k];
      x_neg[j] += uw * vn[j][k];
    }
  }
  for (size_t j = 0; j < 4; ++j) diffs[j] = x_pos[j] - x_neg[j];
}

void BprModel::ComputeGradient(const Sample& sample, double x_diff,
                               double* grad) const {
  const size_t d = config_.latent_dim;
  const double lr = config_.learning_rate;
  const double reg = config_.regularization;
  const double* u = &subject_emb_[sample.s * d];
  const double* vp = &object_emb_[sample.o_pos * d];
  const double* vn = &object_emb_[sample.o_neg * d];
  const double* w = &predicate_diag_[sample.p * d];
  const double g = 1.0 - Sigmoid(x_diff);
  double* du = grad;
  double* dvp = grad + d;
  double* dvn = grad + 2 * d;
  double* dw = grad + 3 * d;
  for (size_t k = 0; k < d; ++k) {
    const double uk = u[k], vpk = vp[k], vnk = vn[k], wk = w[k];
    du[k] = lr * (g * wk * (vpk - vnk) - reg * uk);
    dvp[k] = lr * (g * wk * uk - reg * vpk);
    dvn[k] = lr * (-g * wk * uk - reg * vnk);
    dw[k] = lr * (g * uk * (vpk - vnk) - reg * wk);
  }
}

void BprModel::ApplyGradient(const Sample& sample, const double* grad) {
  const size_t d = config_.latent_dim;
  double* u = &subject_emb_[sample.s * d];
  double* vp = &object_emb_[sample.o_pos * d];
  double* vn = &object_emb_[sample.o_neg * d];
  double* w = &predicate_diag_[sample.p * d];
  const double* du = grad;
  const double* dvp = grad + d;
  const double* dvn = grad + 2 * d;
  const double* dw = grad + 3 * d;
  for (size_t k = 0; k < d; ++k) {
    u[k] += du[k];
    vp[k] += dvp[k];
    vn[k] += dvn[k];
    w[k] += dw[k];
  }
}

void BprModel::RunEpochsBlocked(const std::vector<IdTriple>& triples,
                                size_t epochs) {
  const size_t d = config_.latent_dim;
  const size_t block = config_.sgd_block;
  std::vector<size_t> order(triples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<Sample> samples;
  samples.reserve(order.size() * config_.negatives_per_positive);
  std::vector<double> grads;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    rng_.Shuffle(&order);
    // Presample negatives, consuming rng_ in the same shuffled order
    // as the sequential path.
    samples.clear();
    for (size_t idx : order) {
      const IdTriple& t = triples[idx];
      for (size_t neg = 0; neg < config_.negatives_per_positive; ++neg) {
        uint32_t o_neg =
            static_cast<uint32_t>(rng_.UniformInt(num_entities_));
        if (o_neg == t[2]) {
          o_neg = static_cast<uint32_t>((o_neg + 1) % num_entities_);
        }
        samples.push_back(Sample{t[0], t[1], t[2], o_neg});
      }
    }
    for (size_t start = 0; start < samples.size(); start += block) {
      const size_t count = std::min(block, samples.size() - start);
      grads.resize(count * 4 * d);
      // Every gradient reads the parameters frozen at the block start;
      // the apply loop below is the only writer. Scores go four samples
      // at a time, the block's tail one at a time.
      size_t i = 0;
      for (; i + 4 <= count; i += 4) {
        double diffs[4];
        ScoreDiffs4(&samples[start + i], diffs);
        for (size_t j = 0; j < 4; ++j) {
          ComputeGradient(samples[start + i + j], diffs[j],
                          &grads[(i + j) * 4 * d]);
        }
      }
      for (; i < count; ++i) {
        const Sample& sample = samples[start + i];
        ComputeGradient(sample,
                        RawScore(sample.s, sample.p, sample.o_pos) -
                            RawScore(sample.s, sample.p, sample.o_neg),
                        &grads[i * 4 * d]);
      }
      for (size_t i = 0; i < count; ++i) {
        ApplyGradient(samples[start + i], &grads[i * 4 * d]);
      }
    }
  }
}

void BprModel::RunEpochs(const std::vector<IdTriple>& triples,
                         size_t epochs) {
  if (triples.empty() || num_entities_ < 2) return;
  static Counter* refreshes = MetricsRegistry::Global().GetCounter(
      "nous_embed_refresh_total", "BPR training passes (full or refresh)");
  static Counter* refresh_epochs = MetricsRegistry::Global().GetCounter(
      "nous_embed_refresh_epochs_total", "BPR epochs run across refreshes");
  refreshes->Increment();
  refresh_epochs->Increment(epochs);
  if (config_.sgd_block > 0) {
    RunEpochsBlocked(triples, epochs);
    return;
  }
  std::vector<size_t> order(triples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    rng_.Shuffle(&order);
    for (size_t idx : order) {
      const IdTriple& t = triples[idx];
      for (size_t neg = 0; neg < config_.negatives_per_positive; ++neg) {
        uint32_t o_neg = static_cast<uint32_t>(
            rng_.UniformInt(num_entities_));
        if (o_neg == t[2]) {
          o_neg = static_cast<uint32_t>((o_neg + 1) % num_entities_);
        }
        SgdStep(t[0], t[1], t[2], o_neg);
      }
    }
  }
}

void BprModel::Train(const std::vector<IdTriple>& triples,
                     size_t num_entities, size_t num_predicates,
                     size_t epochs) {
  EnsureCapacity(num_entities, num_predicates);
  RunEpochs(triples, epochs);
}

double BprModel::EstimateLoss(const std::vector<IdTriple>& triples,
                              size_t max_samples) const {
  if (triples.empty() || num_entities_ < 2) return 0;
  Rng rng(config_.seed + 1);
  double total = 0;
  size_t n = std::min(max_samples, triples.size());
  for (size_t i = 0; i < n; ++i) {
    const IdTriple& t = triples[rng.UniformInt(triples.size())];
    uint32_t o_neg =
        static_cast<uint32_t>(rng.UniformInt(num_entities_));
    if (o_neg == t[2]) {
      o_neg = static_cast<uint32_t>((o_neg + 1) % num_entities_);
    }
    double x = RawScore(t[0], t[1], t[2]) - RawScore(t[0], t[1], o_neg);
    total += -std::log(std::max(1e-12, Sigmoid(x)));
  }
  return total / static_cast<double>(n);
}

void BprModel::SaveBinary(BinaryWriter* writer) const {
  uint64_t rng_state[4];
  rng_.SaveState(rng_state);
  for (uint64_t word : rng_state) writer->U64(word);
  writer->U64(num_entities_);
  writer->U64(num_predicates_);
  writer->F64Array(subject_emb_);
  writer->F64Array(object_emb_);
  writer->F64Array(predicate_diag_);
  writer->F64Array(predicate_bias_);
}

Status BprModel::LoadBinary(BinaryReader* reader) {
  uint64_t rng_state[4];
  for (uint64_t& word : rng_state) NOUS_RETURN_IF_ERROR(reader->U64(&word));
  rng_.RestoreState(rng_state);
  uint64_t entities = 0, predicates = 0;
  NOUS_RETURN_IF_ERROR(reader->U64(&entities));
  NOUS_RETURN_IF_ERROR(reader->U64(&predicates));
  num_entities_ = entities;
  num_predicates_ = predicates;
  NOUS_RETURN_IF_ERROR(reader->F64Array(&subject_emb_));
  NOUS_RETURN_IF_ERROR(reader->F64Array(&object_emb_));
  NOUS_RETURN_IF_ERROR(reader->F64Array(&predicate_diag_));
  NOUS_RETURN_IF_ERROR(reader->F64Array(&predicate_bias_));
  const size_t dim = config_.latent_dim;
  if (subject_emb_.size() != num_entities_ * dim ||
      object_emb_.size() != num_entities_ * dim ||
      predicate_diag_.size() != num_predicates_ * dim ||
      predicate_bias_.size() != num_predicates_) {
    return Status::DataLoss(
        "BPR checkpoint dimensions do not match latent_dim " +
        std::to_string(dim));
  }
  return Status::Ok();
}

}  // namespace nous
