#include "obs/trace.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/logging.h"

namespace nous {
namespace {

// Threshold is stored in microseconds as an int64 so the hot-path read
// is a single relaxed atomic load. <= 0 disables.
std::atomic<int64_t>& SlowTraceThresholdUs() {
  static std::atomic<int64_t>* threshold = [] {
    auto* value = new std::atomic<int64_t>(0);  // lint: new-ok(intentionally leaked process singleton)
    const char* env = std::getenv("NOUS_SLOW_QUERY_MS");
    if (env != nullptr && *env != '\0') {
      char* end = nullptr;
      double ms = std::strtod(env, &end);
      if (end != env && ms > 0) {
        value->store(static_cast<int64_t>(ms * 1000.0));
      }
    }
    return value;
  }();
  return *threshold;
}

// Logs one Warning line for a slow root span: trace id plus a
// per-stage breakdown aggregated over every buffered span of the
// trace. Bumps nous_slow_trace_total so the behavior is testable
// without scraping stderr.
void LogSlowTrace(const char* stage, uint64_t trace_id, double seconds) {
  static Counter* slow_traces = MetricsRegistry::Global().GetCounter(
      "nous_slow_trace_total",
      "Root spans slower than the slow-query threshold");
  slow_traces->Increment();
  std::vector<SpanRecord> spans = TraceBuffer::Global().CollectTrace(trace_id);
  // Aggregate by stage name: count and total self-reported duration.
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_stage;
  for (const SpanRecord& span : spans) {
    auto& entry = by_stage[span.name];
    entry.first += 1;
    entry.second += span.duration_us;
  }
  std::ostringstream breakdown;
  for (const auto& [name, entry] : by_stage) {
    breakdown << ' ' << name << "=" << (entry.second / 1000.0) << "ms";
    if (entry.first > 1) breakdown << "(x" << entry.first << ")";
  }
  NOUS_LOG(Warning) << "slow_trace trace_id=" << trace_id
                    << " root=" << stage << " total_ms=" << (seconds * 1e3)
                    << " spans=" << spans.size() << " stages:"
                    << breakdown.str();
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point epoch,
                     std::chrono::steady_clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - epoch)
          .count());
}

}  // namespace

void SetSlowTraceThresholdMs(double ms) {
  SlowTraceThresholdUs().store(
      ms > 0 ? static_cast<int64_t>(ms * 1000.0) : 0);
}

double SlowTraceThresholdMs() {
  return static_cast<double>(SlowTraceThresholdUs().load()) / 1000.0;
}

TraceSpan::TraceSpan(const char* stage, LatencyHistogram* histogram)
    : stage_(stage),
      histogram_(histogram),
      saved_context_(CurrentTraceContext()) {
  span_id_ = NextTraceId();
  if (saved_context_.valid()) {
    trace_id_ = saved_context_.trace_id;
    parent_span_id_ = saved_context_.span_id;
  } else {
    trace_id_ = NextTraceId();
    parent_span_id_ = 0;
  }
  SetCurrentTraceContext(TraceContext{trace_id_, span_id_});
  // The epoch is fixed before the clock read, so start_ never precedes
  // it.
  const Clock::time_point epoch = TraceEpoch();
  start_ = Clock::now();
  start_us_ = MicrosSince(epoch, start_);
  NOUS_LOG(Debug) << "span_begin stage=" << stage_;
}

double TraceSpan::End() {
  const Clock::time_point end = Clock::now();
  ended_ = true;
  const double seconds = std::chrono::duration<double>(end - start_).count();
  if (histogram_ != nullptr) histogram_->Observe(seconds);
  SpanRecord record;
  record.trace_id = trace_id_;
  record.span_id = span_id_;
  record.parent_span_id = parent_span_id_;
  record.name = stage_;
  record.thread_index = TraceThreadIndex();
  record.start_us = start_us_;
  // Both ends are floored on the same epoch, so a child's recorded
  // interval always lies inside its parent's.
  record.duration_us = MicrosSince(TraceEpoch(), end) - start_us_;
  record.attrs = std::move(attrs_);
  TraceBuffer::Global().Append(std::move(record));
  SetCurrentTraceContext(saved_context_);
  NOUS_LOG(Debug) << "span_end stage=" << stage_
                  << " seconds=" << seconds;
  if (parent_span_id_ == 0) {
    int64_t threshold_us = SlowTraceThresholdUs().load();
    if (threshold_us > 0 && seconds * 1e6 >= static_cast<double>(threshold_us)) {
      LogSlowTrace(stage_, trace_id_, seconds);
    }
  }
  return seconds;
}

void TraceSpan::Attr(const char* key, int64_t value) {
  if (attrs_.size() >= kMaxAttrs) return;
  SpanAttr attr;
  attr.key = key;
  attr.kind = SpanAttr::Kind::kInt;
  attr.int_value = value;
  attrs_.push_back(std::move(attr));
}

void TraceSpan::Attr(const char* key, double value) {
  if (attrs_.size() >= kMaxAttrs) return;
  SpanAttr attr;
  attr.key = key;
  attr.kind = SpanAttr::Kind::kDouble;
  attr.double_value = value;
  attrs_.push_back(std::move(attr));
}

void TraceSpan::Attr(const char* key, const char* value) {
  Attr(key, std::string(value));
}

void TraceSpan::Attr(const char* key, const std::string& value) {
  if (attrs_.size() >= kMaxAttrs) return;
  SpanAttr attr;
  attr.key = key;
  attr.kind = SpanAttr::Kind::kString;
  attr.string_value = value;
  attrs_.push_back(std::move(attr));
}

}  // namespace nous
