#include "mining/quick_pattern_cache.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace nous {

size_t QuickPatternCache::Home(const uint32_t* key) const {
  uint64_t h = 0;
  for (size_t i = 0; i < key_words_; ++i) {
    h = (h ^ key[i]) * 0x9e3779b97f4a7c15ULL;
  }
  // The top bits of the last product mix every word.
  return static_cast<size_t>(h >> (64 - std::countr_zero(table_.size())));
}

bool QuickPatternCache::KeyEquals(uint32_t entry, const uint32_t* key) const {
  const uint32_t* stored = keys_.data() + size_t{entry} * key_words_;
  return std::equal(stored, stored + key_words_, key);
}

const QuickPatternCache::Value* QuickPatternCache::Find(
    const uint32_t* key) const {
  if (table_.empty()) return nullptr;
  const size_t mask = table_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    if (table_[i] == 0) return nullptr;
    if (KeyEquals(table_[i] - 1, key)) return &values_[table_[i] - 1];
  }
}

void QuickPatternCache::Place(uint32_t entry) {
  const size_t mask = table_.size() - 1;
  size_t i = Home(keys_.data() + size_t{entry} * key_words_);
  while (table_[i] != 0) i = (i + 1) & mask;
  table_[i] = entry + 1;
}

const QuickPatternCache::Value& QuickPatternCache::Insert(const uint32_t* key,
                                                          Value value) {
  NOUS_CHECK(Find(key) == nullptr);
  const uint32_t entry = static_cast<uint32_t>(values_.size());
  keys_.insert(keys_.end(), key, key + key_words_);
  values_.push_back(std::move(value));
  if (values_.size() * 2 > table_.size()) {
    table_.assign(std::max<size_t>(16, table_.size() * 2), 0);
    for (uint32_t e = 0; e < values_.size(); ++e) Place(e);
  } else {
    Place(entry);
  }
  return values_.back();
}

}  // namespace nous
