#ifndef NOUS_OBS_TRACE_BUFFER_H_
#define NOUS_OBS_TRACE_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace nous {

/// One attribute attached to a completed span. Keys are string
/// literals (owned by the call site); string values are copied.
struct SpanAttr {
  enum class Kind { kInt, kDouble, kString };

  const char* key = "";
  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  double double_value = 0;
  std::string string_value;
};

/// A completed span as recorded into the TraceBuffer. `name` is the
/// stage literal passed to TraceSpan and must outlive the buffer
/// (string literals do).
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  /// 0 for root spans.
  uint64_t parent_span_id = 0;
  const char* name = "";
  /// Dense per-thread index (TraceThreadIndex) of the recording thread.
  uint32_t thread_index = 0;
  /// Microseconds since the process trace epoch (TraceEpoch), floored.
  uint64_t start_us = 0;
  /// Floored end minus floored start, so nested intervals stay nested.
  uint64_t duration_us = 0;
  std::vector<SpanAttr> attrs;
};

/// Bounded, lock-striped ring buffer of recently completed spans.
/// Writers append to the stripe picked by their thread index, so the
/// hot path (one append per span end) takes an uncontended mutex in
/// the steady state. Readers (the /api/trace exporter and the
/// slow-query log) merge all stripes; they run rarely and may observe
/// stripes at slightly different instants, which is fine for a
/// diagnostics buffer.
///
/// Capacity is fixed at construction; once full, each stripe
/// overwrites its oldest record.
class TraceBuffer {
 public:
  static constexpr size_t kStripes = 8;

  /// `capacity` is the total record budget, split evenly across
  /// stripes (rounded up, minimum 1 per stripe).
  explicit TraceBuffer(size_t capacity = kDefaultCapacity);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Process-wide buffer that TraceSpan records into.
  static TraceBuffer& Global();

  void Append(SpanRecord record);

  /// Returns buffered spans ordered by start time. When `limit` is
  /// non-zero, only the `limit` most recently *started* spans are
  /// returned.
  std::vector<SpanRecord> Snapshot(size_t limit = 0) const;

  /// Returns all buffered spans belonging to `trace_id`, ordered by
  /// start time. Used by the slow-query log to print a per-stage
  /// breakdown of one request.
  std::vector<SpanRecord> CollectTrace(uint64_t trace_id) const;

  /// Total records this buffer can hold (sum of stripe capacities).
  size_t capacity() const { return capacity_; }

  /// Total Append calls over the buffer's lifetime (including
  /// overwritten records); lets tests assert wraparound.
  uint64_t total_appended() const;

  /// Drops all buffered records (test isolation).
  void Clear();

 private:
  static constexpr size_t kDefaultCapacity = 8192;

  struct alignas(64) Stripe {
    mutable AnnotatedMutex mutex;
    /// Ring storage: `size() < stripe capacity` while filling, then a
    /// fixed-size ring with `next` as the overwrite cursor.
    std::vector<SpanRecord> ring GUARDED_BY(mutex);
    size_t next GUARDED_BY(mutex) = 0;
    uint64_t appended GUARDED_BY(mutex) = 0;
  };

  size_t capacity_ = 0;
  size_t stripe_capacity_ = 0;
  Stripe stripes_[kStripes];
};

}  // namespace nous

#endif  // NOUS_OBS_TRACE_BUFFER_H_
