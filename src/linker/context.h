#ifndef NOUS_LINKER_CONTEXT_H_
#define NOUS_LINKER_CONTEXT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stamp_set.h"
#include "graph/property_graph.h"
#include "text/lexicon.h"

namespace nous {

/// Sparse bag of lower-cased content words keyed by surface string.
using TermBag = std::unordered_map<std::string, double>;

/// Tokenizes `text`, drops stopwords/punctuation/numbers, and counts
/// the remaining lower-cased terms — the mention-side context of the
/// AIDA similarity (§3.3).
TermBag BuildDocumentBag(const std::string& text, const Lexicon& lexicon);

/// AIDA's context similarity (§3.3) over word ids: cosine between the
/// mention's surrounding document words and the entity context — the
/// vertex's stored bag (curated description terms, or a new entity's
/// seed document words) plus the labels of its first `max_neighbors`
/// out-then-in adjacency entries, tokenized on whitespace, lower-cased,
/// words shorter than 2 bytes dropped. The neighborhood component is
/// the paper's adaptation of AIDA to a growing KG ("we use only the
/// entity neighborhood in the knowledge graph to calculate contextual
/// similarity").
///
/// Words are interned once into a private table, and each TermId's and
/// VertexId's words are derived lazily on first use (term strings and
/// vertex labels never change), so scoring a candidate builds, lowers,
/// splits and hashes no string. Derived state only: it is never
/// serialized, and Clear() must be called when the graph is reloaded.
///
/// Exactness: every weight the pipeline stores is an integer or a
/// multiple of 0.5 — document counts, curated KB terms (1.0), new-entity
/// seeds (min(w, 3) * 0.5), neighbor words (1.0) — so every dot product
/// and squared norm below is an exact sum of exactly representable
/// values, and the cosine is bit-identical to a string-keyed bag summed
/// in any order.
class ContextScorer {
 public:
  ContextScorer(const PropertyGraph* graph, size_t max_neighbors)
      : graph_(graph), max_neighbors_(max_neighbors) {}

  /// Maps the document's bag to word ids; once per document.
  void SetDocument(const TermBag& doc_bag);

  /// Selects the mention whose own (lower-cased) words are excluded
  /// from the document bag for the following Similarity calls: AIDA
  /// compares the mention's *surrounding* context with the entity.
  void SetMention(std::string_view surface);

  /// Cosine(mention context, entity context of `v`); 0 when either
  /// side is empty or they share no word.
  double Similarity(VertexId v);

  /// Adjacency entries read by Similarity so far.
  uint64_t adjacency_scanned() const { return adjacency_scanned_; }

  /// Drops every derived id and cached word list.
  void Clear();

  /// Distinct words interned so far.
  size_t num_words() const { return word_ids_.size(); }

 private:
  static constexpr uint32_t kUnfilled = UINT32_MAX;
  static constexpr size_t kSpareWords = size_t{1} << 16;

  uint32_t Intern(const std::string& word);
  uint32_t TermWord(TermId term);
  std::span<const uint32_t> LabelWords(VertexId v);
  void AddWeight(uint32_t word, double weight);
  bool Skipped(uint32_t word) const;

  const PropertyGraph* graph_;  // not owned
  size_t max_neighbors_;

  std::unordered_map<std::string, uint32_t> word_ids_;
  std::vector<uint32_t> term_word_;  // TermId -> word id
  // VertexId -> [begin, end) in label_words_; begin kUnfilled until used.
  std::vector<std::pair<uint32_t, uint32_t>> label_span_;
  std::vector<uint32_t> label_words_;

  // Document side: (word, count) pairs plus a dense lookup.
  std::vector<std::pair<uint32_t, double>> doc_words_;
  std::vector<double> doc_weight_;
  StampSet in_doc_;
  std::vector<uint32_t> skipped_;
  double context_norm_ = 0;

  // Entity side: dense weights over the touched word ids.
  std::vector<double> weight_;
  StampSet in_bag_;
  std::vector<uint32_t> touched_;

  uint64_t adjacency_scanned_ = 0;
};

}  // namespace nous

#endif  // NOUS_LINKER_CONTEXT_H_
