#ifndef NOUS_PERFBENCH_SPANS_H_
#define NOUS_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace nous {
namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span: a call into a NOUS layer made by the benchmark.
/// `op` groups the spans of one benchmark operation (a commit, a
/// query); `parent` is the id of the enclosing span, 0 at the root.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The spans of one thread, kept in memory until the run ends. A
/// disabled log records nothing: its scopes cost one branch, which is
/// how the end-to-end runs keep the benchmark's tracing off.
class SpanLog {
 public:
  SpanLog(bool enabled, uint32_t thread_tag)
      : enabled_(enabled), next_id_(static_cast<uint64_t>(thread_tag) << 40) {}

  /// RAII span; records itself when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, uint64_t op, uint64_t parent)
        : log_(log->enabled_ ? log : nullptr) {
      if (log_ == nullptr) return;
      span_.name = name;
      span_.id = ++log_->next_id_;
      span_.parent = parent;
      span_.op = op;
      span_.start_ns = NowNs();
    }
    ~Scope() {
      if (log_ == nullptr) return;
      span_.end_ns = NowNs();
      log_->spans_.push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint64_t id() const { return span_.id; }

   private:
    SpanLog* log_;
    Span span_;
  };

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Per-name totals over every log: count, wall time, self time (the
/// span's duration minus what its child spans cover) and the median
/// duration.
struct SpanSummary {
  size_t count = 0;
  double total_s = 0;
  double self_s = 0;
  double p50_s = 0;
  double mean_s() const {
    return count == 0 ? 0 : total_s / static_cast<double>(count);
  }
};

std::map<std::string, SpanSummary> Summarize(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as a tab-separated line:
/// id parent op name start_ns end_ns self_ns.
void WriteSpans(const std::vector<const SpanLog*>& logs, std::ostream& out);

}  // namespace perfbench
}  // namespace nous

#endif  // NOUS_PERFBENCH_SPANS_H_
