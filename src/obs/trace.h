#ifndef NOUS_OBS_TRACE_H_
#define NOUS_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/trace_context.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"

namespace nous {

/// RAII request-scoped span, and the one clock for stage timing. On
/// construction it mints a span id, installs itself as the thread's
/// current trace context (minting a fresh trace id when none is active,
/// i.e. this is a root span), and reads steady_clock once. On End() (or
/// destruction, if End() was not called) it reads the clock again and
/// from that one interval:
///
///   - records the elapsed seconds into the registry latency histogram,
///   - appends a SpanRecord (ids, timing, attributes) to the global
///     TraceBuffer for /api/trace export,
///   - restores the parent context, and
///   - for slow *root* spans, emits the structured slow-query log.
///
/// End() returns the same seconds it recorded, so a caller that also
/// keeps a running total (PipelineStats) adds exactly what the
/// histogram saw: the histogram's _sum equals the total.
///
/// At debug log level it also emits structured begin/end lines:
///
///   span_begin stage=extraction
///   span_end stage=extraction seconds=0.000123
///
/// Use via NOUS_SPAN / NOUS_SPAN_VAR below; construct directly only
/// when the stage name is not a compile-time literal.
class TraceSpan {
 public:
  /// `stage` must outlive the global TraceBuffer (string literals do);
  /// `histogram` may be null to trace without the aggregate recording.
  TraceSpan(const char* stage, LatencyHistogram* histogram);
  ~TraceSpan() {
    if (!ended_) End();
  }

  /// Closes the span now (observe, append, restore the parent context)
  /// and returns the recorded seconds, at the clock's ns resolution.
  /// Call at most once; the destructor does nothing afterwards.
  double End();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a key/value attribute, exported in the trace event's
  /// `args`. Keys are string literals. At most kMaxAttrs attributes
  /// are kept per span; extras are dropped silently.
  void Attr(const char* key, int64_t value);
  void Attr(const char* key, uint64_t value) {
    Attr(key, static_cast<int64_t>(value));
  }
  void Attr(const char* key, int value) {
    Attr(key, static_cast<int64_t>(value));
  }
  void Attr(const char* key, unsigned value) {
    Attr(key, static_cast<int64_t>(value));
  }
  void Attr(const char* key, double value);
  void Attr(const char* key, const char* value);
  void Attr(const char* key, const std::string& value);

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }
  /// 0 when this is a root span.
  uint64_t parent_span_id() const { return parent_span_id_; }

  static constexpr size_t kMaxAttrs = 8;

 private:
  using Clock = std::chrono::steady_clock;

  const char* stage_;
  LatencyHistogram* histogram_;
  TraceContext saved_context_;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  Clock::time_point start_;
  /// start_ in microseconds since TraceEpoch().
  uint64_t start_us_ = 0;
  bool ended_ = false;
  std::vector<SpanAttr> attrs_;
};

/// Threshold for the structured slow-query log, in milliseconds of
/// *root* span duration; <= 0 disables it. Initialized once from the
/// NOUS_SLOW_QUERY_MS environment variable (unset/invalid = disabled);
/// the setter (wired to nous_server's --slow-query-ms flag) overrides
/// it at runtime. Each slow root span logs one Warning line with its
/// trace id and a per-stage time breakdown, and increments the
/// `nous_slow_trace_total` counter.
void SetSlowTraceThresholdMs(double ms);
double SlowTraceThresholdMs();

namespace internal {
#define NOUS_OBS_CONCAT_INNER(a, b) a##b
#define NOUS_OBS_CONCAT(a, b) NOUS_OBS_CONCAT_INNER(a, b)
}  // namespace internal

/// Times the enclosing scope as pipeline stage `stage` (a string
/// literal), recording into the global registry histogram
/// `nous_<stage>_latency_seconds` and the global TraceBuffer. The
/// histogram pointer is resolved once per call site (thread-safe
/// function-local static), so the steady-state cost is two clock
/// reads, one locked bucket increment, and one striped ring append
/// (measured cost in DESIGN.md §5.12).
#define NOUS_SPAN(stage) NOUS_SPAN_VAR(NOUS_OBS_CONCAT(nous_span_, __LINE__), stage)

/// Like NOUS_SPAN but binds the span to a named local, so the caller
/// can attach attributes: NOUS_SPAN_VAR(span, "ingest_batch");
/// span.Attr("batch_size", n);
#define NOUS_SPAN_VAR(var, stage)                                          \
  static ::nous::LatencyHistogram* NOUS_OBS_CONCAT(var, _hist) =           \
      ::nous::MetricsRegistry::Global().GetHistogram(                      \
          "nous_" stage "_latency_seconds",                                \
          "Latency of the " stage " stage in seconds");                    \
  ::nous::TraceSpan var(stage, NOUS_OBS_CONCAT(var, _hist))

}  // namespace nous

#endif  // NOUS_OBS_TRACE_H_
