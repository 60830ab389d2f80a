// Request-scoped tracing: context propagation across ThreadPool
// boundaries, the striped span ring buffer, the slow-trace log
// trigger, and the resource sampler lifecycle.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "common/trace_context.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"

namespace nous {
namespace {

SpanRecord MakeRecord(uint64_t trace_id, uint64_t span_id,
                      uint64_t start_us) {
  SpanRecord record;
  record.trace_id = trace_id;
  record.span_id = span_id;
  record.name = "test";
  record.start_us = start_us;
  record.duration_us = 1;
  return record;
}

// ---------- TraceContext ----------

TEST(TraceContextTest, DefaultIsInvalidAndScopeRestores) {
  EXPECT_FALSE(CurrentTraceContext().valid());
  TraceContext context;
  context.trace_id = 7;
  context.span_id = 9;
  {
    TraceContextScope scope(context);
    EXPECT_TRUE(CurrentTraceContext().valid());
    EXPECT_EQ(CurrentTraceContext().trace_id, 7u);
    EXPECT_EQ(CurrentTraceContext().span_id, 9u);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(TraceContextTest, NextTraceIdIsUniqueAndNonZero) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    uint64_t id = NextTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second);
  }
}

// ---------- TraceSpan context management ----------

TEST(TraceSpanTest, RootSpanMintsTraceIdAndRestoresOnExit) {
  ASSERT_FALSE(CurrentTraceContext().valid());
  {
    TraceSpan span("root", nullptr);
    EXPECT_NE(span.trace_id(), 0u);
    EXPECT_NE(span.span_id(), 0u);
    EXPECT_EQ(span.parent_span_id(), 0u);
    EXPECT_EQ(CurrentTraceContext().trace_id, span.trace_id());
    EXPECT_EQ(CurrentTraceContext().span_id, span.span_id());
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(TraceSpanTest, NestedSpanParentsUnderEnclosingSpan) {
  TraceSpan root("root", nullptr);
  {
    TraceSpan child("child", nullptr);
    EXPECT_EQ(child.trace_id(), root.trace_id());
    EXPECT_EQ(child.parent_span_id(), root.span_id());
    EXPECT_NE(child.span_id(), root.span_id());
    EXPECT_EQ(CurrentTraceContext().span_id, child.span_id());
  }
  EXPECT_EQ(CurrentTraceContext().span_id, root.span_id());
}

TEST(TraceSpanTest, EndRecordsOnceAndReturnsTheObservedSeconds) {
  MetricsRegistry registry;
  LatencyHistogram* h = registry.GetHistogram("nous_end_latency_seconds");
  TraceBuffer::Global().Clear();
  double seconds = -1;
  uint64_t root_id = 0, span_id = 0;
  {
    TraceSpan root("root", nullptr);
    root_id = root.span_id();
    {
      TraceSpan span("trace_test_end", h);
      span_id = span.span_id();
      seconds = span.End();
      // End() already restored the parent context...
      EXPECT_EQ(CurrentTraceContext().span_id, root_id);
    }
    // ...and the destructor neither records nor restores again.
    EXPECT_EQ(CurrentTraceContext().span_id, root_id);
  }
  FixedHistogram snapshot = h->Snapshot();
  EXPECT_EQ(snapshot.count(), 1u);
  EXPECT_EQ(snapshot.sum(), seconds);
  EXPECT_GE(seconds, 0.0);
  std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& child = spans[0].span_id == span_id ? spans[0] : spans[1];
  const SpanRecord& parent = spans[0].span_id == root_id ? spans[0] : spans[1];
  EXPECT_EQ(child.span_id, span_id);
  EXPECT_EQ(parent.span_id, root_id);
  EXPECT_GE(child.start_us, parent.start_us);
  EXPECT_LE(child.start_us + child.duration_us,
            parent.start_us + parent.duration_us);
}

TEST(TraceSpanTest, AttrsAreExportedWithKindsAndCapped) {
  TraceBuffer::Global().Clear();
  uint64_t span_id = 0;
  {
    NOUS_SPAN_VAR(span, "trace_test_attrs");
    span.Attr("docs", 42);
    span.Attr("ratio", 0.5);
    span.Attr("source", "wsj");
    for (int i = 0; i < 20; ++i) span.Attr("overflow", i);
    span_id = span.span_id();
  }
  std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  const SpanRecord* found = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.span_id == span_id) found = &s;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_STREQ(found->name, "trace_test_attrs");
  ASSERT_EQ(found->attrs.size(), TraceSpan::kMaxAttrs);
  EXPECT_STREQ(found->attrs[0].key, "docs");
  EXPECT_EQ(found->attrs[0].kind, SpanAttr::Kind::kInt);
  EXPECT_EQ(found->attrs[0].int_value, 42);
  EXPECT_EQ(found->attrs[1].kind, SpanAttr::Kind::kDouble);
  EXPECT_DOUBLE_EQ(found->attrs[1].double_value, 0.5);
  EXPECT_EQ(found->attrs[2].kind, SpanAttr::Kind::kString);
  EXPECT_EQ(found->attrs[2].string_value, "wsj");
}

// ---------- Propagation across ThreadPool ----------

TEST(TracePropagationTest, PoolTasksParentUnderSubmittingSpan) {
  TraceBuffer::Global().Clear();
  constexpr size_t kThreads = 8;
  constexpr size_t kTasks = 64;
  uint64_t root_trace_id = 0;
  uint64_t root_span_id = 0;
  {
    TraceSpan root("trace_test_root", nullptr);
    root_trace_id = root.trace_id();
    root_span_id = root.span_id();
    ThreadPool pool(kThreads);
    pool.ParallelFor(kTasks, [&](size_t) {
      TraceSpan child("trace_test_child", nullptr);
      EXPECT_EQ(child.trace_id(), root_trace_id);
      EXPECT_EQ(child.parent_span_id(), root_span_id);
      // Long enough that a single worker cannot drain every task
      // before the others wake, so the fan-out genuinely spreads.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
  }
  // The exported trace forms a single tree: one root, every child
  // linked to it, even though children ran on pool threads.
  std::vector<SpanRecord> trace =
      TraceBuffer::Global().CollectTrace(root_trace_id);
  ASSERT_EQ(trace.size(), kTasks + 1);
  size_t roots = 0, children = 0;
  std::set<uint32_t> thread_indexes;
  for (const SpanRecord& s : trace) {
    if (s.parent_span_id == 0) {
      ++roots;
      EXPECT_EQ(s.span_id, root_span_id);
    } else {
      ++children;
      EXPECT_EQ(s.parent_span_id, root_span_id);
      thread_indexes.insert(s.thread_index);
    }
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(children, kTasks);
  // Work genuinely fanned out across pool threads.
  EXPECT_GT(thread_indexes.size(), 1u);
}

TEST(TracePropagationTest, UntracedSubmitStaysUntraced) {
  ASSERT_FALSE(CurrentTraceContext().valid());
  ThreadPool pool(2);
  std::atomic<int> valid_count{0};
  pool.ParallelFor(16, [&](size_t) {
    if (CurrentTraceContext().valid()) valid_count.fetch_add(1);
  });
  EXPECT_EQ(valid_count.load(), 0);
}

TEST(TracePropagationTest, PoolThreadContextDoesNotLeakAcrossTasks) {
  ThreadPool pool(1);  // one worker: tasks run back to back
  {
    TraceSpan root("trace_test_leak_root", nullptr);
    pool.Submit([] { TraceSpan child("trace_test_leak_child", nullptr); });
    pool.Wait();
  }
  std::atomic<bool> leaked{false};
  pool.Submit([&] { leaked.store(CurrentTraceContext().valid()); });
  pool.Wait();
  EXPECT_FALSE(leaked.load());
}

// ---------- TraceBuffer ----------

TEST(TraceBufferTest, WraparoundKeepsNewestAndCountsAllAppends) {
  TraceBuffer buffer(16);
  EXPECT_EQ(buffer.capacity(), 16u);
  constexpr uint64_t kAppends = 100;
  for (uint64_t i = 1; i <= kAppends; ++i) {
    buffer.Append(MakeRecord(/*trace_id=*/1, /*span_id=*/i,
                             /*start_us=*/i));
  }
  EXPECT_EQ(buffer.total_appended(), kAppends);
  std::vector<SpanRecord> spans = buffer.Snapshot();
  ASSERT_FALSE(spans.empty());
  EXPECT_LE(spans.size(), buffer.capacity());
  // Survivors are the newest appends (single-thread appends land on
  // one stripe, which keeps its most recent records).
  for (const SpanRecord& s : spans) {
    EXPECT_GT(s.span_id, kAppends - buffer.capacity());
  }
  // Ordered by start time.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_us, spans[i].start_us);
  }
}

TEST(TraceBufferTest, SnapshotLimitReturnsMostRecentlyStarted) {
  TraceBuffer buffer(64);
  for (uint64_t i = 1; i <= 10; ++i) {
    buffer.Append(MakeRecord(1, i, /*start_us=*/i * 100));
  }
  std::vector<SpanRecord> spans = buffer.Snapshot(/*limit=*/3);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].start_us, 800u);
  EXPECT_EQ(spans[2].start_us, 1000u);
}

TEST(TraceBufferTest, CollectTraceFiltersById) {
  TraceBuffer buffer(64);
  buffer.Append(MakeRecord(5, 1, 10));
  buffer.Append(MakeRecord(6, 2, 20));
  buffer.Append(MakeRecord(5, 3, 30));
  std::vector<SpanRecord> trace = buffer.CollectTrace(5);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].span_id, 1u);
  EXPECT_EQ(trace[1].span_id, 3u);
  EXPECT_TRUE(buffer.CollectTrace(999).empty());
}

TEST(TraceBufferTest, ConcurrentAppendLosesNothingToRaces) {
  // A small buffer hammered from many threads: every append must be
  // counted, the snapshot stays within capacity, and nothing crashes
  // (run under TSan to check the striped locking).
  TraceBuffer buffer(32);
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 2000;
  {
    ThreadPool pool(kThreads);
    pool.ParallelFor(kThreads, [&buffer](size_t t) {
      for (size_t i = 0; i < kPerThread; ++i) {
        buffer.Append(MakeRecord(t + 1, i + 1, i));
      }
    });
  }
  EXPECT_EQ(buffer.total_appended(), kThreads * kPerThread);
  std::vector<SpanRecord> spans = buffer.Snapshot();
  EXPECT_LE(spans.size(), buffer.capacity());
  EXPECT_FALSE(spans.empty());
}

TEST(TraceBufferTest, ClearEmptiesBufferButKeepsCapacity) {
  TraceBuffer buffer(16);
  for (uint64_t i = 1; i <= 8; ++i) buffer.Append(MakeRecord(1, i, i));
  buffer.Clear();
  EXPECT_TRUE(buffer.Snapshot().empty());
  EXPECT_EQ(buffer.capacity(), 16u);
  buffer.Append(MakeRecord(1, 99, 1));
  EXPECT_EQ(buffer.Snapshot().size(), 1u);
}

// ---------- Slow-trace log ----------

TEST(SlowTraceTest, RootSpanOverThresholdIncrementsCounter) {
  Counter* slow =
      MetricsRegistry::Global().GetCounter("nous_slow_trace_total");
  double saved = SlowTraceThresholdMs();

  // Generous threshold: a fast span does not trip it.
  SetSlowTraceThresholdMs(60000.0);
  uint64_t before = slow->Value();
  { TraceSpan fast("trace_test_fast", nullptr); }
  EXPECT_EQ(slow->Value(), before);

  // Tiny threshold: a root span that sleeps past it trips it once.
  SetSlowTraceThresholdMs(0.01);
  before = slow->Value();
  {
    TraceSpan slow_span("trace_test_slow", nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(slow->Value(), before + 1);

  // Child spans never trigger the log, only the root does.
  before = slow->Value();
  {
    SetSlowTraceThresholdMs(60000.0);
    TraceSpan root("trace_test_slow_root", nullptr);
    SetSlowTraceThresholdMs(0.01);
    {
      TraceSpan child("trace_test_slow_child", nullptr);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(slow->Value(), before);
    SetSlowTraceThresholdMs(60000.0);
  }
  EXPECT_EQ(slow->Value(), before);

  SetSlowTraceThresholdMs(saved);
}

TEST(SlowTraceTest, NonPositiveThresholdDisables) {
  Counter* slow =
      MetricsRegistry::Global().GetCounter("nous_slow_trace_total");
  double saved = SlowTraceThresholdMs();
  SetSlowTraceThresholdMs(0.0);
  uint64_t before = slow->Value();
  {
    TraceSpan span("trace_test_disabled", nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(slow->Value(), before);
  SetSlowTraceThresholdMs(saved);
}

// ---------- ResourceSampler ----------

TEST(ResourceSamplerTest, ReadsProcessMemory) {
  ProcMemoryStats stats;
  ASSERT_TRUE(ReadProcMemoryStats(&stats));
  EXPECT_GT(stats.rss_bytes, 0u);
  EXPECT_GT(stats.peak_rss_bytes, 0u);
  EXPECT_GE(stats.peak_rss_bytes, stats.rss_bytes);
  EXPECT_GT(PeakRssBytes(), 0u);
}

TEST(ResourceSamplerTest, SampleOncePublishesGaugesAndRunsProbes) {
  std::atomic<int> probe_runs{0};
  ResourceSampler sampler(std::chrono::milliseconds(60000));
  sampler.AddProbe([&probe_runs] { probe_runs.fetch_add(1); });
  sampler.SampleOnce();
  EXPECT_EQ(probe_runs.load(), 1);
  Gauge* rss =
      MetricsRegistry::Global().GetGauge("nous_process_rss_bytes");
  Gauge* peak =
      MetricsRegistry::Global().GetGauge("nous_process_peak_rss_bytes");
  EXPECT_GT(rss->Value(), 0.0);
  EXPECT_GE(peak->Value(), rss->Value());
}

TEST(ResourceSamplerTest, StartStopIsIdempotentAndLeakFree) {
  // Run under ASan/TSan: repeated start/stop cycles must join the
  // thread cleanly every time and never leak or race.
  std::atomic<int> probe_runs{0};
  ResourceSampler sampler(std::chrono::milliseconds(1));
  sampler.AddProbe([&probe_runs] { probe_runs.fetch_add(1); });
  sampler.Start();
  sampler.Start();  // no-op: already running
  while (probe_runs.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.Stop();
  sampler.Stop();  // no-op: already stopped
  int after_stop = probe_runs.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(probe_runs.load(), after_stop);
  // Restartable after Stop.
  sampler.Start();
  while (probe_runs.load() <= after_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.Stop();
}

TEST(ResourceSamplerTest, DestructorStopsRunningSampler) {
  std::atomic<int> probe_runs{0};
  {
    ResourceSampler sampler(std::chrono::milliseconds(1));
    sampler.AddProbe([&probe_runs] { probe_runs.fetch_add(1); });
    sampler.Start();
    while (probe_runs.load() < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }  // destructor joins the thread; ASan flags any leak
  SUCCEED();
}

}  // namespace
}  // namespace nous
