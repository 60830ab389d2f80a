#ifndef NOUS_MINING_QUICK_PATTERN_CACHE_H_
#define NOUS_MINING_QUICK_PATTERN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nous {

/// The streaming miner's quick-pattern cache (Arabesque's two-level
/// aggregation): fixed-width keys of `key_words` u32 words, shorter
/// keys zero-padded, each mapped to a pattern id and the subset-local
/// vertex at each canonical position. Open addressing with linear
/// probing, at most half full; entries are never erased, so a returned
/// value stays valid until the next Insert.
class QuickPatternCache {
 public:
  struct Value {
    uint32_t pattern_id = 0;
    std::vector<uint8_t> local_vertex;  // per canonical position
  };

  explicit QuickPatternCache(size_t key_words) : key_words_(key_words) {}

  /// The value cached for `key` (key_words words), or nullptr.
  const Value* Find(const uint32_t* key) const;
  /// Caches `value` for `key`, which must not be cached yet.
  const Value& Insert(const uint32_t* key, Value value);

  size_t size() const { return values_.size(); }

 private:
  size_t Home(const uint32_t* key) const;
  bool KeyEquals(uint32_t entry, const uint32_t* key) const;
  void Place(uint32_t entry);

  size_t key_words_;
  std::vector<uint32_t> table_;  // entry index + 1; 0 when empty
  std::vector<uint32_t> keys_;   // entry i's key at i * key_words_
  std::vector<Value> values_;
};

}  // namespace nous

#endif  // NOUS_MINING_QUICK_PATTERN_CACHE_H_
