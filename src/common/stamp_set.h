#ifndef NOUS_COMMON_STAMP_SET_H_
#define NOUS_COMMON_STAMP_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nous {

/// Membership over dense ids by epoch stamps: an id whose slot holds
/// the current epoch is a member, so starting a new set is one
/// increment instead of a clear.
class StampSet {
 public:
  /// Starts an empty set over ids < size.
  void Reset(size_t size) {
    Grow(size);
    if (++epoch_ == 0) {
      // Wrapped: a stale stamp could equal the new epoch.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Extends the id range to `size` without clearing the current set.
  void Grow(size_t size) {
    if (stamps_.size() < size) stamps_.resize(size, 0);
  }

  /// Marks `id`; true when it was not marked yet.
  bool Insert(uint32_t id) {
    if (stamps_[id] == epoch_) return false;
    stamps_[id] = epoch_;
    return true;
  }

  bool Contains(uint32_t id) const { return stamps_[id] == epoch_; }

  /// Releases the id range; the next Reset starts over at epoch 1.
  void Clear() {
    stamps_.clear();
    epoch_ = 0;
  }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
};

}  // namespace nous

#endif  // NOUS_COMMON_STAMP_SET_H_
