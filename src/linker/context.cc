#include "linker/context.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "text/tokenizer.h"

namespace nous {

TermBag BuildDocumentBag(const std::string& text, const Lexicon& lexicon) {
  TermBag bag;
  for (const Token& tok : Tokenize(text)) {
    if (tok.text.size() < 2) continue;
    if (lexicon.IsStopword(tok.lower) || lexicon.IsDeterminer(tok.lower) ||
        lexicon.IsPreposition(tok.lower) || lexicon.IsPronoun(tok.lower)) {
      continue;
    }
    if (IsDigits(tok.text)) continue;
    bag[tok.lower] += 1.0;
  }
  return bag;
}

uint32_t ContextScorer::Intern(const std::string& word) {
  auto [it, inserted] = word_ids_.try_emplace(
      word, static_cast<uint32_t>(word_ids_.size()));
  if (inserted) {
    doc_weight_.push_back(0);
    weight_.push_back(0);
    in_doc_.Grow(word_ids_.size());
    in_bag_.Grow(word_ids_.size());
  }
  return it->second;
}

uint32_t ContextScorer::TermWord(TermId term) {
  if (term >= term_word_.size()) term_word_.resize(term + 1, kUnfilled);
  if (term_word_[term] == kUnfilled) {
    term_word_[term] = Intern(ToLower(graph_->terms().GetString(term)));
  }
  return term_word_[term];
}

std::span<const uint32_t> ContextScorer::LabelWords(VertexId v) {
  if (v >= label_span_.size()) {
    label_span_.resize(v + 1, {kUnfilled, kUnfilled});
  }
  if (label_span_[v].first == kUnfilled) {
    uint32_t begin = static_cast<uint32_t>(label_words_.size());
    for (const std::string& word : SplitWhitespace(graph_->VertexLabel(v))) {
      if (word.size() < 2) continue;
      uint32_t id = Intern(ToLower(word));
      label_words_.push_back(id);
    }
    label_span_[v] = {begin, static_cast<uint32_t>(label_words_.size())};
  }
  const auto [begin, end] = label_span_[v];
  return {label_words_.data() + begin, label_words_.data() + end};
}

void ContextScorer::SetDocument(const TermBag& doc_bag) {
  // Document words are interned too, so a long stream would grow the
  // table with its whole vocabulary. Scores do not depend on interning
  // history, so once the table far outgrows the entity-side words,
  // start over.
  if (word_ids_.size() >
      kSpareWords + 4 * (graph_->terms().size() + label_words_.size())) {
    Clear();
  }
  doc_words_.clear();
  for (const auto& [word, count] : doc_bag) {
    doc_words_.emplace_back(Intern(word), count);
  }
  in_doc_.Reset(word_ids_.size());
  for (const auto& [id, count] : doc_words_) {
    in_doc_.Insert(id);
    doc_weight_[id] = count;
  }
  skipped_.clear();
}

void ContextScorer::SetMention(std::string_view surface) {
  skipped_.clear();
  for (const std::string& word : SplitWhitespace(surface)) {
    auto it = word_ids_.find(ToLower(word));
    if (it != word_ids_.end() && in_doc_.Contains(it->second)) {
      skipped_.push_back(it->second);
    }
  }
  context_norm_ = 0;
  for (const auto& [id, count] : doc_words_) {
    if (!Skipped(id)) context_norm_ += count * count;
  }
}

bool ContextScorer::Skipped(uint32_t word) const {
  return std::find(skipped_.begin(), skipped_.end(), word) !=
         skipped_.end();
}

void ContextScorer::AddWeight(uint32_t word, double weight) {
  if (in_bag_.Insert(word)) {
    weight_[word] = weight;
    touched_.push_back(word);
  } else {
    weight_[word] += weight;
  }
}

double ContextScorer::Similarity(VertexId v) {
  if (v >= graph_->NumVertices()) return 0.0;
  in_bag_.Reset(word_ids_.size());
  touched_.clear();
  for (const auto& [term, weight] : graph_->VertexBag(v)) {
    AddWeight(TermWord(term), weight);
  }
  size_t taken = 0;
  for (const std::vector<AdjEntry>* adj :
       {&graph_->OutEdges(v), &graph_->InEdges(v)}) {
    for (const AdjEntry& a : *adj) {
      if (taken >= max_neighbors_) break;
      ++taken;
      for (uint32_t word : LabelWords(a.neighbor)) AddWeight(word, 1.0);
    }
  }
  adjacency_scanned_ += taken;
  // Exact sums (see the class comment), so the order is free.
  double dot = 0, norm = 0;
  for (uint32_t word : touched_) {
    const double w = weight_[word];
    norm += w * w;
    if (in_doc_.Contains(word) && !Skipped(word)) {
      dot += w * doc_weight_[word];
    }
  }
  if (dot == 0) return 0.0;
  return dot / (std::sqrt(context_norm_) * std::sqrt(norm));
}

void ContextScorer::Clear() {
  word_ids_.clear();
  term_word_.clear();
  label_span_.clear();
  label_words_.clear();
  doc_words_.clear();
  doc_weight_.clear();
  in_doc_.Clear();
  skipped_.clear();
  context_norm_ = 0;
  weight_.clear();
  in_bag_.Clear();
  touched_.clear();
}

}  // namespace nous
