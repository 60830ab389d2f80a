#ifndef NOUS_COMMON_THREAD_POOL_H_
#define NOUS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace nous {

/// Per-batch completion token: a caller Add()s the amount of work it
/// is about to hand out, workers Done() it as they finish, and Wait()
/// blocks until the balance returns to zero. Unlike ThreadPool::Wait()
/// (which observes every task in the pool), a WaitGroup tracks only
/// its own batch, so independent callers sharing one pool never see
/// each other's work.
class WaitGroup {
 public:
  WaitGroup() = default;

  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  /// Registers `n` units of pending work. Call before the work can
  /// possibly complete.
  void Add(size_t n = 1);

  /// Marks `n` units complete.
  void Done(size_t n = 1);

  /// Blocks until the pending count reaches zero.
  void Wait();

 private:
  AnnotatedMutex mutex_;
  std::condition_variable done_;
  size_t pending_ GUARDED_BY(mutex_) = 0;
};

/// Fixed-size worker pool. Stands in for the distributed workers of the
/// paper's Spark deployment: ingest extraction, Finalize's BPR and LDA
/// fits, the streaming-miner baseline, and the HTTP server all shard
/// work across pool threads.
///
/// Concurrency contract: Submit() and ParallelFor() may be called from
/// any number of threads at once. ParallelFor tracks its own batch with
/// a private completion count (not the pool-wide one), and the calling
/// thread participates in draining the iteration space, so concurrent
/// and nested ParallelFor calls always make progress — even on a pool
/// whose workers are all busy.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; tasks must not throw. When `wait_group` is
  /// non-null it is Add(1)-ed before enqueue and Done(1)-ed after the
  /// task runs, so the caller can Wait() for just its own batch.
  ///
  /// The submitter's TraceContext is captured at enqueue time and
  /// installed around the task, so spans opened inside pool tasks
  /// parent under the span that submitted them.
  void Submit(std::function<void()> task, WaitGroup* wait_group = nullptr);

  /// Blocks until every task submitted to the pool (by any caller) has
  /// finished. Prefer a WaitGroup when other callers share the pool.
  void Wait();

  /// Runs fn(i) for i in [0, n) across the pool and waits for
  /// completion. The calling thread drains chunks alongside the
  /// workers; helper tasks that arrive after the range is exhausted
  /// are no-ops, so the call returns as soon as all n items are done.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

  /// Number of tasks enqueued but not yet picked up by a worker. A
  /// point-in-time reading for telemetry (the ResourceSampler exports
  /// it as a gauge); it is stale the moment it returns.
  size_t QueueDepth();

 private:
  void WorkerLoop();

  /// Immutable after construction (each worker only reads its own
  /// entry at join time), so reads need no lock.
  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mutex_);
  AnnotatedMutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ GUARDED_BY(mutex_) = 0;
  bool shutdown_ GUARDED_BY(mutex_) = false;
};

}  // namespace nous

#endif  // NOUS_COMMON_THREAD_POOL_H_
