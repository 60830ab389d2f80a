#ifndef NOUS_CORE_SNAPSHOT_H_
#define NOUS_CORE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "core/pipeline_stats.h"
#include "graph/property_graph.h"
#include "qa/query_engine.h"

namespace nous {

/// An immutable, consistent view of the fused KG, published by the
/// pipeline after every commit (DESIGN.md §5.11). Queries execute
/// against a snapshot without touching kg_mutex, so one slow beam
/// search can never stall ingest — and ingest can never mutate the
/// graph under a running query.
///
/// `version` is the pipeline's KG version: it increments on every
/// mutating operation (ingest call, batch, finalize) and survives
/// checkpoints (SaveState/LoadState). A load restores the image's
/// version, which may be lower than the one it replaces, so snapshots
/// are ordered by (`load_generation`, `version`): the generation counts
/// the pipeline's successful loads. The pair keys the query cache — a
/// cached answer is valid exactly while the pair it was computed at is
/// still current.
///
/// Deeply immutable after construction: every accessor is const and
/// returns `const&` / `shared_ptr<const ...>`, so holders of a
/// snapshot — even through a non-const reference — cannot mutate the
/// published state. The nous-snapshot-mutation clang-tidy check
/// (tools/nous-tidy, DESIGN.md §5.14) enforces the residue the type
/// system cannot: const_casts and non-const escapes of
/// snapshot-reachable state.
class KgSnapshot {
 public:
  /// Write-once pattern set of a version: the mining stage fills it
  /// when it has mined the version (an invalid future means mining is
  /// off).
  using PatternFuture =
      std::shared_future<std::shared_ptr<const RenderedPatternSet>>;

  /// Assembled by KgPipeline::PublishSnapshot, the only producer. The
  /// graph footprint estimate is computed here, outside the pipeline
  /// locks, so readers report bytes without re-walking chunks.
  KgSnapshot(uint64_t load_generation, uint64_t version, PropertyGraph graph,
             PatternFuture patterns, PipelineStats stats);

  KgSnapshot(const KgSnapshot&) = delete;
  KgSnapshot& operator=(const KgSnapshot&) = delete;

  /// Successful state loads the pipeline had made when this snapshot
  /// was cut; orders snapshots before version() does.
  uint64_t load_generation() const { return load_generation_; }

  /// The pipeline's KG version this snapshot was cut at; monotonic
  /// within a load generation.
  uint64_t version() const { return version_; }

  /// O(1) copy-on-write clone of the fused KG (identical ids, slot
  /// layout, adjacency order): all chunks are shared with the live
  /// graph at publish time, and later ingest unshares only the chunks
  /// it touches (DESIGN.md §5.13).
  const PropertyGraph& graph() const { return graph_; }

  /// This version's rendered miner patterns, shared with the previous
  /// version when this one added no edge; null with mining off. Blocks
  /// (span "mine_wait") until the mining stage has mined this version.
  std::shared_ptr<const RenderedPatternSet> pattern_set() const;

  /// Whether pattern_set() would return without waiting.
  bool patterns_ready() const;

  /// Pipeline counters as of version() (lock-free /api/stats).
  const PipelineStats& stats() const { return stats_; }

  /// Estimated heap bytes of graph() at publish time (shared +
  /// private; see PropertyGraph::Footprint). The live shared/private
  /// split is sampled on demand by the ResourceSampler gauges
  /// nous_snapshot_graph_{shared,private}_bytes.
  size_t approx_graph_bytes() const { return approx_graph_bytes_; }

  /// Patterns for query execution (empty with mining off); blocks
  /// like pattern_set(). Only pattern and trending answers read them.
  const std::vector<RenderedPattern>& patterns() const;

 private:
  uint64_t load_generation_ = 0;
  uint64_t version_ = 0;
  PropertyGraph graph_;
  PatternFuture patterns_;
  PipelineStats stats_;
  size_t approx_graph_bytes_ = 0;
};

/// Holds the latest published snapshot. Readers copy the pointer
/// under a mutex held only for that copy (one refcount increment), so
/// a query never waits on ingest; the snapshot itself is immutable,
/// outliving the store entry for as long as any reader holds it. A
/// plain mutex rather than std::atomic<std::shared_ptr>: libstdc++'s
/// lock-bit implementation of the latter is invisible to
/// ThreadSanitizer, which then reports its internals as races.
class SnapshotStore {
 public:
  /// Installs `snapshot` if its (load generation, version) is newer
  /// than the current one's. Publication is monotonic: two publishers
  /// can race (each cloned under a reader lock, so each snapshot is
  /// internally consistent and correctly labeled), and the older label
  /// simply loses. A state load starts a new generation, so its
  /// snapshot replaces every earlier one even when the loaded image
  /// has a lower version.
  void Publish(std::shared_ptr<const KgSnapshot> snapshot)
      EXCLUDES(mutex_);

  /// Latest published snapshot; null before the first Publish.
  std::shared_ptr<const KgSnapshot> Current() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return current_;
  }

  /// Version of the latest published snapshot (0 before the first).
  uint64_t version() const {
    std::shared_ptr<const KgSnapshot> cur = Current();
    return cur == nullptr ? 0 : cur->version();
  }

  /// Snapshots actually installed over the store's lifetime (losers of
  /// the monotonicity race are not counted). /api/stats reports this
  /// as the snapshot-store entry count.
  uint64_t publish_count() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  mutable AnnotatedMutex mutex_;
  std::shared_ptr<const KgSnapshot> current_ GUARDED_BY(mutex_);
  std::atomic<uint64_t> publishes_{0};
};

}  // namespace nous

#endif  // NOUS_CORE_SNAPSHOT_H_
