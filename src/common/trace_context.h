#ifndef NOUS_COMMON_TRACE_CONTEXT_H_
#define NOUS_COMMON_TRACE_CONTEXT_H_

#include <chrono>
#include <cstdint>

namespace nous {

/// Identity of the currently-executing span, carried in a thread-local
/// and explicitly propagated across ThreadPool task boundaries so that
/// work fanned out to pool threads (e.g. IngestBatch's parallel
/// extraction) parents correctly under the submitting span.
///
/// This lives in common (not obs) because ThreadPool must capture and
/// restore it, and common cannot depend on obs. The obs layer
/// (TraceSpan) is the only producer of non-trivial contexts.
struct TraceContext {
  /// 0 means "no active trace".
  uint64_t trace_id = 0;
  /// Id of the innermost active span; new spans use this as parent.
  uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// Returns the calling thread's current trace context (all-zero when
/// no span is active on this thread).
TraceContext CurrentTraceContext();

/// Overwrites the calling thread's current trace context. Prefer
/// TraceContextScope; this exists for RAII types that must interleave
/// save/restore with other work (TraceSpan).
void SetCurrentTraceContext(const TraceContext& context);

/// Process-unique, never-zero id source for trace and span ids.
uint64_t NextTraceId();

/// Small dense index for the calling thread (0, 1, 2, ... in first-call
/// order). Used as the `tid` of trace events so per-thread tracks render
/// compactly in trace viewers; std::thread::id is not an integer.
uint32_t TraceThreadIndex();

/// Arbitrary process-local steady epoch, fixed by the first call. All
/// span timestamps are microseconds since it, so exported traces are
/// internally consistent (monotonic, immune to wall-clock steps).
std::chrono::steady_clock::time_point TraceEpoch();

/// RAII: installs `context` as the calling thread's current trace
/// context and restores the previous one on destruction. ThreadPool
/// wraps every submitted task in one of these, capturing the
/// submitter's context.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& context)
      : saved_(CurrentTraceContext()) {
    SetCurrentTraceContext(context);
  }
  ~TraceContextScope() { SetCurrentTraceContext(saved_); }

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace nous

#endif  // NOUS_COMMON_TRACE_CONTEXT_H_
