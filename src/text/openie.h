#ifndef NOUS_TEXT_OPENIE_H_
#define NOUS_TEXT_OPENIE_H_

#include <optional>
#include <string>
#include <vector>

#include "graph/types.h"
#include "text/coref.h"
#include "text/lexicon.h"
#include "text/ner.h"
#include "text/pos_tagger.h"

namespace nous {

/// One raw OpenIE tuple extracted from a sentence, pre-linking.
struct RawExtraction {
  Triple triple;
  /// Normalized relation: verb base form, optionally suffixed with the
  /// governing preposition ("partner_with", "found_in").
  std::string relation;
  double confidence = 1.0;
  size_t sentence_index = 0;
  bool subject_from_coref = false;
  bool object_from_coref = false;
  /// True when the governing verb was negated (only emitted when
  /// config.drop_negated is false).
  bool negated = false;
  /// False when the argument was a plain noun-phrase fallback rather
  /// than a recognized entity.
  bool subject_is_entity = true;
  bool object_is_entity = true;
  EntityType subject_type = EntityType::kMisc;
  EntityType object_type = EntityType::kMisc;
};

/// Heuristic knobs — demo feature 1's precision/recall trade-offs.
struct OpenIeConfig {
  /// Resolve pronouns before pairing arguments (recall up, precision
  /// down for wrong antecedents).
  bool use_coref = true;
  /// Require the object to be a recognized entity (precision up).
  bool require_entity_object = false;
  /// Require the subject to be a recognized entity.
  bool require_entity_subject = true;
  /// Maximum token gap between an argument span and the verb group.
  size_t max_arg_gap = 6;
  /// Emit secondary (subject, verb_prep, arg) tuples from trailing
  /// prepositional phrases.
  bool allow_nary = true;
  /// Drop tuples whose verb is negated; when false they are kept with
  /// confidence scaled by 0.2.
  bool drop_negated = true;
  /// Emit copula ("X is a maker of drones") isa-style tuples.
  bool extract_copula = true;
  double base_confidence = 0.95;
  /// Tuples below this confidence are suppressed.
  double min_confidence = 0.0;
};

/// Pattern-based Open Information Extraction over tagged tokens and NER
/// mentions (§3.2). Produces binary tuples with verb-anchored relation
/// phrases and optional n-ary expansions, with heuristic confidences.
class OpenIeExtractor {
 public:
  /// `lexicon` and `ner` must outlive the extractor.
  OpenIeExtractor(const Lexicon* lexicon, const Ner* ner,
                  OpenIeConfig config = {});

  /// Full document path: sentence split, tokenize, tag, NER, coref,
  /// then per-sentence extraction.
  std::vector<RawExtraction> ExtractFromText(const std::string& text) const;

  /// The same from already split, tokenized and POS-tagged sentences
  /// (what SrlExtractor has in hand), so the text is tagged once.
  std::vector<RawExtraction> ExtractFromSentences(
      const std::vector<std::vector<Token>>& sentences) const;

  /// Single prepared sentence (used by tests and ExtractFromSentences).
  /// `extra_mentions` carries coref-resolved pronouns for the sentence.
  std::vector<RawExtraction> ExtractFromSentence(
      const std::vector<Token>& tokens,
      const std::vector<EntityMention>& mentions,
      const std::vector<EntityMention>& extra_mentions,
      size_t sentence_index) const;

  const OpenIeConfig& config() const { return config_; }

 private:
  const Lexicon* lexicon_;
  const Ner* ner_;
  OpenIeConfig config_;
  PosTagger tagger_;
  CorefResolver coref_;
};

}  // namespace nous

#endif  // NOUS_TEXT_OPENIE_H_
