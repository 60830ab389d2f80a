#ifndef NOUS_TOPIC_LDA_H_
#define NOUS_TOPIC_LDA_H_

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace nous {

struct LdaConfig {
  /// In [1, 256]: token topic assignments are stored as uint8_t.
  size_t num_topics = 10;
  /// Dirichlet hyperparameters: document-topic (alpha), topic-term
  /// (beta).
  double alpha = 0.1;
  double beta = 0.01;
  size_t iterations = 200;
  uint64_t seed = 41;
};

/// Latent Dirichlet Allocation fit by collapsed Gibbs sampling (§3.6):
/// NOUS runs LDA over the per-entity "document-term" matrix and assigns
/// each KG vertex its document-topic distribution, which the coherent
/// path search then compares.
class LdaModel {
 public:
  explicit LdaModel(LdaConfig config = {});

  /// Fits on `docs` (each a sequence of term ids < vocab_size).
  /// Re-fitting replaces the previous state.
  void Fit(const std::vector<std::vector<uint32_t>>& docs,
           size_t vocab_size);

  /// Smoothed document-topic distribution theta_d for a training doc.
  std::vector<double> DocumentTopics(size_t doc) const;

  /// Smoothed topic-term distribution phi_k.
  std::vector<double> TopicTerms(size_t topic) const;

  /// Folds in an unseen document against the fitted topics (phi held
  /// fixed) and returns its topic distribution.
  std::vector<double> Infer(const std::vector<uint32_t>& doc,
                            size_t iterations = 20) const;

  size_t num_topics() const { return config_.num_topics; }
  size_t vocab_size() const { return vocab_size_; }
  size_t num_docs() const { return doc_topic_.size(); }

 private:
  LdaConfig config_;
  size_t vocab_size_ = 0;
  /// Per-document topic counts n_dk (row per doc).
  std::vector<std::vector<uint32_t>> doc_topic_;
  /// Topic-term counts n_kw, row-major [topic][term].
  std::vector<uint32_t> topic_term_;
  /// Per-topic totals n_k.
  std::vector<uint32_t> topic_total_;
  /// Document lengths.
  std::vector<uint32_t> doc_len_;
};

}  // namespace nous

#endif  // NOUS_TOPIC_LDA_H_
