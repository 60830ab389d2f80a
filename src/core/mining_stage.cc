#include "core/mining_stage.h"

#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/trace_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qa/query_engine.h"

namespace nous {

namespace {

Gauge* WindowEdgesGauge() {
  static Gauge* gauge = MetricsRegistry::Global().GetGauge(
      "nous_mining_window_edges", "Live edges in the miner's sliding window");
  return gauge;
}

Gauge* LagGauge() {
  static Gauge* gauge = MetricsRegistry::Global().GetGauge(
      "nous_mining_stage_lag_batches",
      "Mining jobs (committed batches or window resets) submitted and not "
      "yet finished");
  return gauge;
}

}  // namespace

MiningStage::MiningStage(MinerConfig miner, size_t window_edges,
                         EdgeId num_pinned, ThreadPool* pool)
    : config_(miner),
      window_edges_(window_edges),
      num_pinned_(num_pinned),
      pool_(pool) {}

MiningStage::~MiningStage() { WaitIdle(); }

MiningStage::PatternFuture MiningStage::Submit(uint64_t version,
                                               PropertyGraph graph,
                                               EdgeId begin, bool reset) {
  Job job;
  job.version = version;
  job.graph = std::move(graph);
  job.begin = begin;
  job.reset = reset;
  PatternFuture patterns = job.patterns.get_future().share();
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(job));
    ++unfinished_;
    PublishLagLocked();
    if (draining_) return patterns;  // the strand task picks it up
    draining_ = true;
  }
  if (pool_ == nullptr) {
    Drain();
  } else {
    pool_->Submit([this] { Drain(); });
  }
  return patterns;
}

void MiningStage::Drain() {
  for (;;) {
    Job job;
    {
      MutexLock lock(mutex_);
      if (queue_.empty()) {
        // Last touch of `this`: WaitIdle (and so the destructor) returns
        // only once it sees this.
        draining_ = false;
        changed_.notify_all();
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      changed_.notify_all();  // the backlog shrank
    }
    Mine(job);
  }
}

void MiningStage::Mine(Job& job) {
  // A root span whichever thread runs the job: the work belongs to no
  // commit, so a trace shows it beside ingest_batch, not inside it.
  TraceContextScope root(TraceContext{});
  NOUS_SPAN_VAR(span, "mine_batch");
  const EdgeId end = static_cast<EdgeId>(job.graph.NumEdges());
  span.Attr("version", job.version);
  span.Attr("edges", static_cast<uint64_t>(end - job.begin));
  // The "mine_batch" fault point (delay only) slows the stage for
  // scheduling tests.
  if (std::optional<Fault> fault = FaultInjector::Global().Hit("mine_batch");
      fault.has_value() && fault->kind == FaultKind::kDelay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fault->arg));
  }
  // The window points at graph_; every edge it reads is below the new
  // clone's end, and identical there to the previous clone.
  graph_ = std::move(job.graph);
  double seconds = 0;
  if (job.reset) {
    miner_ = std::make_unique<StreamingMiner>(config_);
    window_ = std::make_unique<TemporalWindow>(&graph_, window_edges_,
                                               num_pinned_, job.begin);
    window_->AddListener(miner_.get());
    // Announced, not pushed: pinned edges never expire.
    for (EdgeId e = 0; e < num_pinned_; ++e) miner_->OnEdgeAdded(*window_, e);
    for (EdgeId e = job.begin; e < end; ++e) window_->Push(e);
  } else {
    NOUS_CHECK(window_ != nullptr) << "mining job before the first reset";
    for (EdgeId e = job.begin; e < end; ++e) {
      NOUS_SPAN_VAR(mine_span, "mining");
      window_->Push(e);
      seconds += mine_span.End();
    }
  }
  WindowEdgesGauge()->Set(static_cast<double>(window_->size()));
  auto rendered = std::make_shared<const RenderedPatternSet>(
      RenderedPatternSet{RenderClosedPatterns(*miner_, graph_)});
  span.End();
  {
    MutexLock lock(mutex_);
    mine_seconds_ += seconds;
    --unfinished_;
    PublishLagLocked();
  }
  job.patterns.set_value(std::move(rendered));
}

void MiningStage::WaitForBacklogBelow(size_t limit) {
  UniqueLock lock(mutex_);
  if (queue_.size() < limit) return;
  NOUS_SPAN("mine_wait");
  while (queue_.size() >= limit) changed_.wait(lock.std_lock());
}

void MiningStage::WaitIdle() const {
  UniqueLock lock(mutex_);
  while (draining_) changed_.wait(lock.std_lock());
}

const StreamingMiner* MiningStage::miner() const {
  WaitIdle();
  return miner_.get();
}

const TemporalWindow* MiningStage::window() const {
  WaitIdle();
  return window_.get();
}

double MiningStage::mine_seconds() const {
  MutexLock lock(mutex_);
  return mine_seconds_;
}

size_t MiningStage::lag() const {
  MutexLock lock(mutex_);
  return unfinished_;
}

void MiningStage::PublishLagLocked() const {
  LagGauge()->Set(static_cast<double>(unfinished_));
}

}  // namespace nous
