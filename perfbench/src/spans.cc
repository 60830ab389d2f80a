#include "spans.h"

#include <unordered_map>

#include "bench_stats.h"

namespace nous {
namespace perfbench {
namespace {

/// Nanoseconds each span's children cover, keyed by parent id.
std::unordered_map<uint64_t, int64_t> ChildTime(
    const std::vector<const SpanLog*>& logs) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (span.parent != 0) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
  }
  return child_ns;
}

}  // namespace

std::map<std::string, SpanSummary> Summarize(
    const std::vector<const SpanLog*>& logs) {
  std::unordered_map<uint64_t, int64_t> child_ns = ChildTime(logs);
  std::map<std::string, SpanSummary> out;
  std::map<std::string, std::vector<double>> durations;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      double d = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      auto it = child_ns.find(span.id);
      double children =
          it == child_ns.end() ? 0 : static_cast<double>(it->second) * 1e-9;
      SpanSummary& s = out[span.name];
      ++s.count;
      s.total_s += d;
      s.self_s += d - children;
      durations[span.name].push_back(d);
    }
  }
  for (auto& [name, values] : durations) {
    out[name].p50_s = Median(std::move(values));
  }
  return out;
}

void WriteSpans(const std::vector<const SpanLog*>& logs, std::ostream& out) {
  std::unordered_map<uint64_t, int64_t> child_ns = ChildTime(logs);
  out << "id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n";
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      auto it = child_ns.find(span.id);
      int64_t children = it == child_ns.end() ? 0 : it->second;
      out << span.id << '\t' << span.parent << '\t' << span.op << '\t'
          << span.name << '\t' << span.start_ns << '\t' << span.end_ns
          << '\t' << (span.end_ns - span.start_ns - children) << '\n';
    }
  }
}

}  // namespace perfbench
}  // namespace nous
