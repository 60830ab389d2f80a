#include "common/trace_context.h"

#include <atomic>

namespace nous {
namespace {

thread_local TraceContext tls_trace_context;

std::atomic<uint64_t> next_trace_id{1};
std::atomic<uint32_t> next_thread_index{0};

}  // namespace

TraceContext CurrentTraceContext() { return tls_trace_context; }

void SetCurrentTraceContext(const TraceContext& context) {
  tls_trace_context = context;
}

uint64_t NextTraceId() {
  return next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

uint32_t TraceThreadIndex() {
  thread_local uint32_t index =
      next_thread_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::chrono::steady_clock::time_point TraceEpoch() {
  // Function-local static init is thread-safe, so all threads agree on
  // the epoch.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace nous
