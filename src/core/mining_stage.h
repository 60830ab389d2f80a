#ifndef NOUS_CORE_MINING_STAGE_H_
#define NOUS_CORE_MINING_STAGE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>

#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/snapshot.h"
#include "graph/property_graph.h"
#include "graph/temporal_window.h"
#include "mining/streaming_miner.h"

namespace nous {

/// The streaming miner (§3.5) as a pipeline stage beside the commit
/// loop. Mining only watches the KG update stream and feeds nothing
/// back into fusion, so the pipeline hands each committed batch to this
/// stage and moves on: a job is a copy-on-write clone of the KG at the
/// batch's version plus the batch's new edge-id range (or a window
/// reset), and the stage pushes those edges through its TemporalWindow
/// and StreamingMiner over the clone, then renders that version's
/// closed patterns into the job's write-once pattern set.
///
/// Exact: the KG is append-only and the window reads adjacency only
/// below its stream_end(), so edge e's window subsets in a later clone
/// are the ones it had when it was committed; vertex types are read
/// from the clone, which equals the type at commit time because the
/// pipeline types a vertex when it creates it, before any edge touches
/// it (a retype of a vertex with an edge fails a NOUS_CHECK).
///
/// Scheduling: with a pool, the stage is a strand — at most one pool
/// task drains the FIFO of jobs at a time. Without one, Submit runs the
/// job inline. Either way jobs run in submission order.
///
/// Concurrency: Submit, WaitForBacklogBelow, WaitIdle, mine_seconds
/// and lag are thread-safe. The miner, window and graph belong to the
/// running job; miner() and window() wait until the stage is idle, and
/// stay valid only while the caller keeps new jobs out — KgPipeline
/// submits only under the exclusive side of kg_mutex(), so a holder of
/// the shared side reads them race-free.
class MiningStage {
 public:
  using PatternFuture = KgSnapshot::PatternFuture;

  /// `pool` may be null (jobs then run inline in Submit); it must
  /// outlive the stage. The window pins the graph's first `num_pinned`
  /// edges and keeps `window_edges` streamed ones (0 = unbounded).
  MiningStage(MinerConfig miner, size_t window_edges, EdgeId num_pinned,
              ThreadPool* pool);
  /// Waits until every submitted job has run.
  ~MiningStage();

  MiningStage(const MiningStage&) = delete;
  MiningStage& operator=(const MiningStage&) = delete;

  /// Queues mining of `graph` (the KG at `version`): its edges [begin,
  /// graph.NumEdges()) are pushed in id order. With `reset`, the job
  /// first replaces the miner and window with fresh ones whose stream
  /// starts at `begin`, announcing the pinned prefix. Returns the
  /// version's pattern set, filled when the job finishes.
  PatternFuture Submit(uint64_t version, PropertyGraph graph, EdgeId begin,
                       bool reset) EXCLUDES(mutex_);

  /// Blocks, in span "mine_wait", while `limit` or more jobs wait to
  /// start. The committer calls it with no pipeline lock held.
  void WaitForBacklogBelow(size_t limit) EXCLUDES(mutex_);

  /// Blocks until no job is queued or running.
  void WaitIdle() const EXCLUDES(mutex_);

  /// The miner and its window after WaitIdle (see the class comment).
  const StreamingMiner* miner() const EXCLUDES(mutex_);
  const TemporalWindow* window() const EXCLUDES(mutex_);

  /// Sum of the "mining" spans of finished jobs (one per pushed edge;
  /// a reset's replay is not timed).
  double mine_seconds() const EXCLUDES(mutex_);

  /// Jobs submitted and not yet finished.
  size_t lag() const EXCLUDES(mutex_);

 private:
  struct Job {
    uint64_t version = 0;
    PropertyGraph graph;
    EdgeId begin = 0;
    bool reset = false;
    std::promise<std::shared_ptr<const RenderedPatternSet>> patterns;
  };

  /// The strand task: runs queued jobs until none is left.
  void Drain() EXCLUDES(mutex_);
  /// Runs one job on the stage's miner, window and graph.
  void Mine(Job& job) EXCLUDES(mutex_);
  void PublishLagLocked() const REQUIRES(mutex_);

  const MinerConfig config_;
  const size_t window_edges_;
  const EdgeId num_pinned_;
  ThreadPool* const pool_;  // not owned

  // Owned by the running job (one at a time, see Drain); read through
  // miner()/window() only when idle.
  PropertyGraph graph_;  // lint: unguarded(owned by the running job)
  std::unique_ptr<TemporalWindow> window_;  // lint: unguarded(same)
  std::unique_ptr<StreamingMiner> miner_;   // lint: unguarded(same)

  mutable AnnotatedMutex mutex_;
  mutable std::condition_variable changed_;
  std::deque<Job> queue_ GUARDED_BY(mutex_);
  /// A Drain call is queued on the pool or running (inline or on the
  /// pool); false means idle.
  bool draining_ GUARDED_BY(mutex_) = false;
  /// Jobs submitted and not yet finished (see lag()).
  size_t unfinished_ GUARDED_BY(mutex_) = 0;
  double mine_seconds_ GUARDED_BY(mutex_) = 0;
};

}  // namespace nous

#endif  // NOUS_CORE_MINING_STAGE_H_
