#include "text/srl.h"

#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace nous {

SrlExtractor::SrlExtractor(const Lexicon* lexicon, const Ner* ner,
                           OpenIeConfig config)
    : lexicon_(lexicon), ner_(ner), openie_(lexicon, ner, config) {}

std::vector<SrlFrame> SrlExtractor::Extract(const std::string& text,
                                            const Date& document_date,
                                            size_t* num_sentences) const {
  // Sentences are tagged once, for both the dates and OpenIE; the
  // per-sentence dates are found once and extractions join by index.
  std::vector<std::vector<Token>> sentences;
  std::vector<std::optional<Date>> sentence_dates;
  PosTagger tagger(lexicon_);
  for (const std::string& sent : SplitSentences(text)) {
    sentences.push_back(Tokenize(sent));
    tagger.Tag(&sentences.back());
    const std::vector<Token>& tokens = sentences.back();
    std::optional<Date> found;
    for (size_t i = 0; i < tokens.size(); ++i) {
      size_t consumed = 0;
      if (auto date = ParseDateAt(tokens, i, *lexicon_, &consumed)) {
        found = date;
        break;
      }
    }
    sentence_dates.push_back(found);
  }
  if (num_sentences != nullptr) *num_sentences = sentence_dates.size();
  std::vector<SrlFrame> frames;
  for (RawExtraction& ex : openie_.ExtractFromSentences(sentences)) {
    SrlFrame frame;
    if (ex.sentence_index < sentence_dates.size() &&
        sentence_dates[ex.sentence_index].has_value()) {
      frame.date = *sentence_dates[ex.sentence_index];
      frame.date_from_sentence = true;
    } else {
      frame.date = document_date;
      frame.date_from_sentence = false;
    }
    frame.extraction = std::move(ex);
    frames.push_back(std::move(frame));
  }
  return frames;
}

}  // namespace nous
