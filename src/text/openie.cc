#include "text/openie.h"

#include <algorithm>

#include "common/string_util.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace nous {

namespace {

/// A verb-anchored relation group within a sentence.
struct VerbGroup {
  size_t begin = 0;     // first token of the group (incl. aux/adverbs)
  size_t end = 0;       // one past the main verb
  std::string base;     // lexicon base form of the main verb
  bool passive = false; // "was acquired by" style
  bool negated = false;
  bool copula = false;  // bare "is/are/was" with no participle
};

/// Candidate argument for tuple assembly.
struct ArgSpan {
  size_t begin = 0;
  size_t end = 0;
  std::string text;
  bool is_entity = true;
  bool from_coref = false;
  EntityType type = EntityType::kMisc;
};

bool IsPastParticipleLike(const Lexicon& lexicon, const Token& tok) {
  auto base = lexicon.VerbBase(tok.lower);
  if (!base.has_value()) return false;
  // Treat -ed/-en and known irregulars as participles; adequate for the
  // template register the corpus emits.
  return EndsWith(tok.lower, "ed") || tok.lower == "sold" ||
         tok.lower == "made" || tok.lower == "bought" ||
         tok.lower == "led" || tok.lower == "found" ||
         tok.lower == "been";
}

std::vector<VerbGroup> FindVerbGroups(const Lexicon& lexicon,
                                      const std::vector<Token>& tokens) {
  std::vector<VerbGroup> groups;
  size_t i = 0;
  while (i < tokens.size()) {
    if (tokens[i].tag != PosTag::kVerb && tokens[i].tag != PosTag::kModal) {
      ++i;
      continue;
    }
    VerbGroup g;
    g.begin = i;
    size_t j = i;
    bool saw_aux_be = false;
    bool saw_aux_have = false;
    std::string main_base;
    size_t main_end = i;
    while (j < tokens.size()) {
      const Token& tok = tokens[j];
      if (tok.tag == PosTag::kModal) {
        ++j;
        continue;
      }
      if (tok.tag == PosTag::kAdverb) {
        ++j;
        continue;
      }
      if (lexicon.IsNegation(tok.lower)) {
        g.negated = true;
        ++j;
        continue;
      }
      if (tok.tag == PosTag::kVerb) {
        auto base = lexicon.VerbBase(tok.lower);
        std::string b = base.value_or(tok.lower);
        if (b == "be") {
          saw_aux_be = true;
          main_base = b;
          main_end = j + 1;
          ++j;
          continue;
        }
        if (b == "have") {
          saw_aux_have = true;
          main_base = b;
          main_end = j + 1;
          ++j;
          continue;
        }
        main_base = b;
        main_end = j + 1;
        if (saw_aux_be && IsPastParticipleLike(lexicon, tok)) {
          g.passive = true;
        }
        ++j;
        // Stop after the first content verb.
        break;
      }
      break;
    }
    if (main_base.empty()) {
      i = j + 1;
      continue;
    }
    g.end = main_end;
    g.base = main_base;
    g.copula = (main_base == "be" && !g.passive);
    // Negation may precede the verb group ("never acquired").
    for (size_t back = 1; back <= 2 && back <= g.begin; ++back) {
      if (lexicon.IsNegation(tokens[g.begin - back].lower)) {
        g.negated = true;
      }
    }
    // Auxiliary "have" followed by nothing verbal is possession-like;
    // keep base "have".
    (void)saw_aux_have;
    groups.push_back(g);
    i = std::max(j, g.end);
  }
  return groups;
}

/// Noun-phrase fallback chunks: [DET] ADJ* NOUN+ runs not overlapping
/// any entity mention. Text drops the leading determiner.
std::vector<ArgSpan> FindNounChunks(const std::vector<Token>& tokens,
                                    const std::vector<ArgSpan>& taken) {
  auto overlaps_taken = [&taken](size_t begin, size_t end) {
    for (const ArgSpan& a : taken) {
      if (begin < a.end && a.begin < end) return true;
    }
    return false;
  };
  std::vector<ArgSpan> chunks;
  size_t i = 0;
  while (i < tokens.size()) {
    size_t start = i;
    if (tokens[i].tag == PosTag::kDeterminer) ++i;
    size_t content_start = i;
    while (i < tokens.size() && tokens[i].tag == PosTag::kAdjective) ++i;
    size_t noun_start = i;
    while (i < tokens.size() && (tokens[i].tag == PosTag::kNoun ||
                                 tokens[i].tag == PosTag::kProperNoun)) {
      ++i;
    }
    if (i > noun_start && !overlaps_taken(start, i)) {
      ArgSpan a;
      a.begin = start;
      a.end = i;
      a.is_entity = false;
      std::vector<std::string> parts;
      for (size_t k = content_start; k < i; ++k)
        parts.push_back(tokens[k].lower);
      a.text = Join(parts, " ");
      if (!a.text.empty()) chunks.push_back(std::move(a));
    }
    if (i == start) ++i;
  }
  return chunks;
}

}  // namespace

OpenIeExtractor::OpenIeExtractor(const Lexicon* lexicon, const Ner* ner,
                                 OpenIeConfig config)
    : lexicon_(lexicon), ner_(ner), config_(config), tagger_(lexicon),
      coref_(lexicon) {}

std::vector<RawExtraction> OpenIeExtractor::ExtractFromText(
    const std::string& text) const {
  std::vector<std::vector<Token>> sentences;
  for (const std::string& sent : SplitSentences(text)) {
    sentences.push_back(Tokenize(sent));
    tagger_.Tag(&sentences.back());
  }
  return ExtractFromSentences(sentences);
}

std::vector<RawExtraction> OpenIeExtractor::ExtractFromSentences(
    const std::vector<std::vector<Token>>& sentences) const {
  std::vector<std::vector<EntityMention>> mentions;
  mentions.reserve(sentences.size());
  for (const std::vector<Token>& tokens : sentences) {
    mentions.push_back(ner_->FindMentions(tokens));
  }
  std::vector<std::vector<EntityMention>> extra(sentences.size());
  if (config_.use_coref) {
    for (const PronounResolution& r : coref_.Resolve(sentences, mentions)) {
      EntityMention m = r.antecedent;
      m.begin = r.token;
      m.end = r.token_end;
      m.from_coref = true;
      extra[r.sentence].push_back(std::move(m));
    }
  }
  std::vector<RawExtraction> all;
  for (size_t s = 0; s < sentences.size(); ++s) {
    std::vector<RawExtraction> found =
        ExtractFromSentence(sentences[s], mentions[s], extra[s], s);
    all.insert(all.end(), found.begin(), found.end());
  }
  return all;
}

std::vector<RawExtraction> OpenIeExtractor::ExtractFromSentence(
    const std::vector<Token>& tokens,
    const std::vector<EntityMention>& mentions,
    const std::vector<EntityMention>& extra_mentions,
    size_t sentence_index) const {
  std::vector<RawExtraction> results;
  // Assemble candidate arguments.
  std::vector<ArgSpan> args;
  for (const EntityMention& m : mentions) {
    ArgSpan a;
    a.begin = m.begin;
    a.end = m.end;
    a.text = m.text;
    a.is_entity = true;
    a.from_coref = false;
    a.type = m.type;
    args.push_back(std::move(a));
  }
  for (const EntityMention& m : extra_mentions) {
    ArgSpan a;
    a.begin = m.begin;
    a.end = m.end;
    a.text = m.text;
    a.is_entity = true;
    a.from_coref = true;
    a.type = m.type;
    args.push_back(std::move(a));
  }
  std::vector<ArgSpan> chunks = FindNounChunks(tokens, args);
  args.insert(args.end(), chunks.begin(), chunks.end());
  std::sort(args.begin(), args.end(),
            [](const ArgSpan& a, const ArgSpan& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end > b.end;
            });

  auto pick_subject = [&](const VerbGroup& g) -> const ArgSpan* {
    // Closest argument ending before the verb group, preferring
    // recognized entities over noun-phrase chunks: in appositions
    // ("DJI, a drone maker, acquired X") the NP sits closer to the
    // verb but the entity is the grammatical subject.
    const ArgSpan* best_entity = nullptr;
    const ArgSpan* best_chunk = nullptr;
    for (const ArgSpan& a : args) {
      if (a.end > g.begin) break;
      if (a.type == EntityType::kDate) continue;
      if (g.begin - a.end > config_.max_arg_gap) continue;
      if (a.is_entity) {
        if (best_entity == nullptr || a.end > best_entity->end) {
          best_entity = &a;
        }
      } else if (best_chunk == nullptr || a.end > best_chunk->end) {
        best_chunk = &a;
      }
    }
    return best_entity != nullptr ? best_entity : best_chunk;
  };
  auto pick_object = [&](size_t from) -> const ArgSpan* {
    for (const ArgSpan& a : args) {
      if (a.begin < from) continue;
      if (a.type == EntityType::kDate) continue;
      if (a.begin - from > config_.max_arg_gap) return nullptr;
      return &a;
    }
    return nullptr;
  };

  for (const VerbGroup& g : FindVerbGroups(*lexicon_, tokens)) {
    if (g.copula && !config_.extract_copula) continue;
    if (g.negated && config_.drop_negated) continue;
    const ArgSpan* subject = pick_subject(g);
    if (subject == nullptr) continue;

    // Preposition immediately after the verb group folds into the
    // relation ("partnered with", "invested in").
    size_t obj_from = g.end;
    std::string prep;
    if (g.end < tokens.size() &&
        tokens[g.end].tag == PosTag::kPreposition) {
      prep = tokens[g.end].lower;
      obj_from = g.end + 1;
    }
    const ArgSpan* object = pick_object(obj_from);
    if (object == nullptr) continue;
    if (object->begin < g.end) continue;

    const ArgSpan* subj = subject;
    const ArgSpan* obj = object;
    std::string relation = g.base;
    if (g.passive && prep == "by") {
      // "X was acquired by Y" => (Y, acquire, X).
      std::swap(subj, obj);
    } else if (!prep.empty()) {
      relation += "_" + prep;
    }

    if (config_.require_entity_subject && !subj->is_entity) continue;
    if (config_.require_entity_object && !obj->is_entity) continue;
    if (!subj->is_entity && !obj->is_entity) continue;
    if (subj->text == obj->text) continue;

    RawExtraction ex;
    ex.triple.subject = subj->text;
    ex.triple.predicate = relation;
    ex.triple.object = obj->text;
    ex.relation = relation;
    ex.sentence_index = sentence_index;
    ex.subject_from_coref = subj->from_coref;
    ex.object_from_coref = obj->from_coref;
    ex.subject_is_entity = subj->is_entity;
    ex.object_is_entity = obj->is_entity;
    ex.subject_type = subj->type;
    ex.object_type = obj->type;
    ex.negated = g.negated;
    double conf = config_.base_confidence;
    size_t subj_gap =
        subject->end <= g.begin ? g.begin - subject->end : 0;
    size_t obj_gap = object->begin >= obj_from
                         ? object->begin - obj_from
                         : 0;
    conf -= 0.04 * static_cast<double>(subj_gap);
    conf -= 0.04 * static_cast<double>(obj_gap);
    if (ex.subject_from_coref || ex.object_from_coref) conf -= 0.15;
    if (!subj->is_entity || !obj->is_entity) conf *= 0.6;
    if (g.negated) conf *= 0.2;
    ex.confidence = std::clamp(conf, 0.01, 1.0);
    if (ex.confidence < config_.min_confidence) continue;
    results.push_back(ex);

    // N-ary expansion: trailing "PREP arg" after the object becomes a
    // secondary tuple (subject, verb_prep, arg).
    if (config_.allow_nary) {
      size_t after = object->end;
      if (after < tokens.size() &&
          tokens[after].tag == PosTag::kPreposition) {
        const std::string& p2 = tokens[after].lower;
        const ArgSpan* arg2 = pick_object(after + 1);
        if (arg2 != nullptr && arg2->type != EntityType::kDate &&
            arg2->text != subj->text) {
          RawExtraction ex2 = results.back();
          ex2.triple.predicate = g.base + "_" + p2;
          ex2.relation = ex2.triple.predicate;
          ex2.triple.object = arg2->text;
          ex2.object_is_entity = arg2->is_entity;
          ex2.object_from_coref = arg2->from_coref;
          ex2.object_type = arg2->type;
          ex2.confidence = std::clamp(ex.confidence - 0.1, 0.01, 1.0);
          if (ex2.confidence >= config_.min_confidence) {
            results.push_back(std::move(ex2));
          }
        }
      }
    }
  }
  return results;
}

}  // namespace nous
