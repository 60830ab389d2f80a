#include "topic/lda.h"

#include <cmath>

#include "common/logging.h"

namespace nous {

LdaModel::LdaModel(LdaConfig config) : config_(config) {
  NOUS_CHECK(config_.num_topics > 0);
  // Token topic assignments are stored as uint8_t.
  NOUS_CHECK(config_.num_topics <= 256);
}

void LdaModel::Fit(const std::vector<std::vector<uint32_t>>& docs,
                   size_t vocab_size) {
  const size_t K = config_.num_topics;
  vocab_size_ = vocab_size;
  doc_topic_.assign(docs.size(), std::vector<uint32_t>(K, 0));
  topic_term_.assign(K * vocab_size, 0);
  topic_total_.assign(K, 0);
  doc_len_.assign(docs.size(), 0);

  Rng rng(config_.seed);
  // Token-level topic assignments, stored per document.
  std::vector<std::vector<uint8_t>> z(docs.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    z[d].resize(docs[d].size());
    doc_len_[d] = static_cast<uint32_t>(docs[d].size());
    for (size_t i = 0; i < docs[d].size(); ++i) {
      uint32_t w = docs[d][i];
      NOUS_CHECK(w < vocab_size) << "term id out of vocabulary";
      uint8_t k = static_cast<uint8_t>(rng.UniformInt(K));
      z[d][i] = k;
      ++doc_topic_[d][k];
      ++topic_term_[k * vocab_size + w];
      ++topic_total_[k];
    }
  }

  const double alpha = config_.alpha;
  const double beta = config_.beta;
  const double v_beta = beta * static_cast<double>(vocab_size);
  std::vector<double> probs(K);
  for (size_t iter = 0; iter < config_.iterations; ++iter) {
    for (size_t d = 0; d < docs.size(); ++d) {
      for (size_t i = 0; i < docs[d].size(); ++i) {
        const uint32_t w = docs[d][i];
        const uint8_t old_k = z[d][i];
        --doc_topic_[d][old_k];
        --topic_term_[old_k * vocab_size + w];
        --topic_total_[old_k];
        for (size_t k = 0; k < K; ++k) {
          probs[k] = (doc_topic_[d][k] + alpha) *
                     (topic_term_[k * vocab_size + w] + beta) /
                     (topic_total_[k] + v_beta);
        }
        uint8_t new_k = static_cast<uint8_t>(rng.Categorical(probs));
        z[d][i] = new_k;
        ++doc_topic_[d][new_k];
        ++topic_term_[new_k * vocab_size + w];
        ++topic_total_[new_k];
      }
    }
  }
}

std::vector<double> LdaModel::DocumentTopics(size_t doc) const {
  const size_t K = config_.num_topics;
  std::vector<double> theta(K, 0);
  if (doc >= doc_topic_.size()) return theta;
  const double denom =
      static_cast<double>(doc_len_[doc]) + config_.alpha * K;
  for (size_t k = 0; k < K; ++k) {
    theta[k] = (doc_topic_[doc][k] + config_.alpha) / denom;
  }
  return theta;
}

std::vector<double> LdaModel::TopicTerms(size_t topic) const {
  std::vector<double> phi(vocab_size_, 0);
  if (topic >= config_.num_topics) return phi;
  const double denom = static_cast<double>(topic_total_[topic]) +
                       config_.beta * static_cast<double>(vocab_size_);
  for (size_t w = 0; w < vocab_size_; ++w) {
    phi[w] = (topic_term_[topic * vocab_size_ + w] + config_.beta) / denom;
  }
  return phi;
}

std::vector<double> LdaModel::Infer(const std::vector<uint32_t>& doc,
                                    size_t iterations) const {
  const size_t K = config_.num_topics;
  std::vector<double> theta(K, 1.0 / static_cast<double>(K));
  if (doc.empty() || vocab_size_ == 0) return theta;
  Rng rng(config_.seed ^ 0xABCDEF);
  std::vector<uint8_t> z(doc.size());
  std::vector<uint32_t> local_dk(K, 0);
  for (size_t i = 0; i < doc.size(); ++i) {
    uint8_t k = static_cast<uint8_t>(rng.UniformInt(K));
    z[i] = k;
    ++local_dk[k];
  }
  const double alpha = config_.alpha;
  const double beta = config_.beta;
  const double v_beta = beta * static_cast<double>(vocab_size_);
  std::vector<double> probs(K);
  for (size_t iter = 0; iter < iterations; ++iter) {
    for (size_t i = 0; i < doc.size(); ++i) {
      uint32_t w = doc[i] < vocab_size_ ? doc[i] : 0;
      --local_dk[z[i]];
      for (size_t k = 0; k < K; ++k) {
        probs[k] = (local_dk[k] + alpha) *
                   (topic_term_[k * vocab_size_ + w] + beta) /
                   (topic_total_[k] + v_beta);
      }
      z[i] = static_cast<uint8_t>(rng.Categorical(probs));
      ++local_dk[z[i]];
    }
  }
  const double denom = static_cast<double>(doc.size()) + alpha * K;
  for (size_t k = 0; k < K; ++k) {
    theta[k] = (local_dk[k] + alpha) / denom;
  }
  return theta;
}

}  // namespace nous
