#ifndef NOUS_MINING_VERTEX_COUNT_TABLE_H_
#define NOUS_MINING_VERTEX_COUNT_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace nous {

/// Occurrence counts of the graph vertices seen at one pattern
/// position; MNI support is the smallest size() over a pattern's
/// positions. Open addressing with linear probing over a power-of-two
/// array of (vertex, count) pairs, at most 3/4 full. Erase shifts the
/// rest of the probe cluster back instead of leaving a tombstone, so a
/// vertex's count going 0 -> 1 or 1 -> 0 never allocates or frees, and
/// lookups never step over dead entries. Capacity only grows.
class VertexCountTable {
 public:
  /// Adds one occurrence of `v` (not kInvalidVertex).
  void Increment(VertexId v) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    size_t i = Home(v, slots_.size());
    while (slots_[i].vertex != kInvalidVertex) {
      if (slots_[i].vertex == v) {
        ++slots_[i].count;
        return;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = Slot{v, 1};
    ++size_;
  }

  /// Removes one occurrence of `v`; false (and no change) when `v` has
  /// none.
  bool Decrement(VertexId v) {
    size_t i = Find(v);
    if (i == kNotFound) return false;
    if (--slots_[i].count == 0) Erase(i);
    return true;
  }

  /// Occurrences of `v` (0 when absent).
  uint32_t Count(VertexId v) const {
    size_t i = Find(v);
    return i == kNotFound ? 0 : slots_[i].count;
  }

  /// Distinct vertices with a nonzero count.
  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  /// The slot where the probe for `v` starts in a table of `capacity`
  /// (a power of two) slots. Public so tests can build clusters that
  /// wrap past the table's end.
  static size_t Home(VertexId v, size_t capacity) {
    // Fibonacci hashing: the top bits of the product are well mixed
    // even for the dense, sequential ids the graph hands out.
    uint64_t h = static_cast<uint64_t>(v) * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(h >> (64 - std::countr_zero(capacity)));
  }

 private:
  struct Slot {
    VertexId vertex = kInvalidVertex;
    uint32_t count = 0;
  };
  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  static constexpr size_t kMinCapacity = 4;

  size_t Find(VertexId v) const {
    if (slots_.empty()) return kNotFound;
    size_t i = Home(v, slots_.size());
    while (slots_[i].vertex != kInvalidVertex) {
      if (slots_[i].vertex == v) return i;
      i = (i + 1) & (slots_.size() - 1);
    }
    return kNotFound;
  }

  /// Empties slot `hole` and closes the gap: each later entry of the
  /// cluster whose home is not cyclically in (hole, j] moves back into
  /// the hole, which moves on to where it was.
  void Erase(size_t hole) {
    const size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; slots_[j].vertex != kInvalidVertex;
         j = (j + 1) & mask) {
      size_t home = Home(slots_[j].vertex, slots_.size());
      // Distances measured forward from the hole; the entry may move
      // only if its home is not past the hole on the way to j.
      if (((j - home) & mask) < ((j - hole) & mask)) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(old.empty() ? kMinCapacity : old.size() * 2);
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.vertex == kInvalidVertex) continue;
      size_t i = Home(s.vertex, slots_.size());
      while (slots_[i].vertex != kInvalidVertex) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace nous

#endif  // NOUS_MINING_VERTEX_COUNT_TABLE_H_
