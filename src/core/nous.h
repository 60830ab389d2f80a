#ifndef NOUS_CORE_NOUS_H_
#define NOUS_CORE_NOUS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/snapshot.h"
#include "corpus/document_stream.h"
#include "durability/manager.h"
#include "durability/wal_codec.h"
#include "graph/graph_stats.h"
#include "obs/resource_sampler.h"
#include "qa/query_cache.h"
#include "qa/query_engine.h"

namespace nous {

/// Observer of durable commits, the WAL-shipping hook (DESIGN.md
/// §5.15). Every mutation of a durable instance, Finalize included, is
/// one WAL record, so the records it sees rebuild the KG. The callback
/// runs on the committing thread while it holds the ingest mutex:
/// implementations must only enqueue (never block on network or disk)
/// and must not call back into Nous. Under FsyncPolicy::kAlways it
/// fires once the record is applied, before its group fsync (§5.16).
/// Checkpoints are not reported: they change no state.
class CommitListener {
 public:
  virtual ~CommitListener() = default;
  /// One record (an article batch or a finalize) was WAL-logged and
  /// applied. `payload` is the exact WAL payload (wal_codec bytes);
  /// `kg_version` the live KG version after the apply.
  virtual void OnCommit(uint64_t seq, const std::string& payload,
                        uint64_t kg_version) = 0;
};

/// Top-level facade: the public API a downstream user programs against.
///
///   CuratedKb kb = BuildCuratedKb(world, Ontology::DroneDefault(), {});
///   Nous nous(&kb);
///   nous.IngestStream(&stream);
///   nous.Finalize();
///   auto answer = nous.Ask("tell me about DJI");
///
/// Wraps the construction pipeline (§3), the streaming miner (§3.5),
/// and the question-answering engine (§3.6, Figure 5's query classes).
///
/// Durability (DESIGN.md §5.10): with Options::durability.dir set,
/// Recover() restores the last checkpoint, replays the WAL, and opens
/// the log; every subsequent ingest and Finalize is logged before it is
/// applied and only acknowledged (Status OK) once both succeeded — and,
/// under FsyncPolicy::kAlways, once a group fsync covered it (§5.16).
/// kill -9 at any byte offset recovers a KG bit-identical to the last
/// durable record.
/// Nous construction options. Lives at namespace scope (with a nested
/// alias below) because GCC 12 miscompiles `Options options = {}`
/// default arguments when a nested class carries its own default
/// member initializers.
struct NousOptions {
  PipelineConfig pipeline;
  QueryEngineConfig query;
  /// Crash safety; disabled while `durability.dir` is empty.
  DurabilityOptions durability;
  /// Versioned LRU cache over executed answers (DESIGN.md §5.11): a
  /// cached answer is keyed by the KG version and load generation it
  /// was computed at, so every ingest commit and state load implicitly
  /// invalidates the whole cache.
  QueryCacheOptions query_cache;
  /// Must be 1 (the constructor checks): one graph, one WAL, one
  /// commit path. Accepted so callers that set it keep compiling.
  size_t shards = 1;
};

class Nous {
 public:
  using Options = NousOptions;

  /// `kb` must outlive the instance.
  explicit Nous(const CuratedKb* kb, Options options = {});

  /// What Recover() found on disk.
  struct RecoveryStats {
    bool restored_checkpoint = false;
    /// WAL records replayed: article batches and finalizes.
    uint64_t replayed_batches = 0;
    uint64_t replayed_articles = 0;
    /// Torn/corrupt WAL tail records dropped (never-acknowledged data).
    uint64_t dropped_wal_records = 0;
    uint64_t dropped_wal_bytes = 0;
    uint64_t last_seq = 0;
  };

  /// Restores durable state and arms the WAL. Must be called before
  /// any ingest, on a Nous built with the same CuratedKb and
  /// PipelineConfig that produced the on-disk state. On a fresh
  /// directory this simply enables durable ingest. Fails if durability
  /// is unconfigured, already enabled, or ingest already happened.
  Result<RecoveryStats> Recover() EXCLUDES(kg_mutex());

  /// Recover(), discarding the stats — reads better at call sites
  /// that know the directory is fresh.
  Status EnableDurability();

  /// Forces a checkpoint now: atomically persists the full pipeline
  /// state and resets the WAL. Also triggered automatically every
  /// `durability.checkpoint_interval_batches` ingested batches.
  Status Checkpoint() EXCLUDES(kg_mutex());

  /// Whether durable ingest is armed (Recover succeeded).
  bool durable() const {
    return durability_enabled_.load(std::memory_order_acquire);
  }

  /// Feeds one article through the construction pipeline. With
  /// durability armed, the article is WAL-logged first and the call
  /// fails — with no state change — if logging fails ("never
  /// acknowledge what is not logged"). Under FsyncPolicy::kAlways a
  /// failed group fsync also fails the call, after the batch was
  /// applied (it is visible but was never acknowledged).
  Status Ingest(const Article& article) EXCLUDES(kg_mutex());

  /// Batch ingest: extraction fans out across the pipeline's worker
  /// pool; the fused KG is identical to one-at-a-time ingestion.
  Status IngestBatch(const std::vector<Article>& articles)
      EXCLUDES(kg_mutex());

  /// Drains a document stream, optionally finalizing afterwards.
  /// Stops at the first durability failure.
  Status IngestStream(DocumentStream* stream, bool finalize = true)
      EXCLUDES(kg_mutex());

  /// Ad-hoc text ingestion.
  Status IngestText(const std::string& text, const Date& date,
                    const std::string& source) EXCLUDES(kg_mutex());

  /// Fits topics + final confidence refresh. Idempotent-ish: may be
  /// called again after more ingestion. In durable mode Finalize is a
  /// commit like an ingest: its WAL record is logged before it runs
  /// and shipped to followers, and recovery replays it. A checkpoint
  /// follows (replaying a Finalize is costly); if that checkpoint
  /// fails, the error is returned, and the logged record still keeps
  /// durable state equal to the served one.
  Status Finalize() EXCLUDES(kg_mutex());

  /// Registers the replication hook (nullptr to clear). The listener
  /// is invoked under the ingest mutex for every durable commit from
  /// the moment this returns; it must outlive its
  /// registration. Setting it blocks until in-flight commits drain,
  /// so after SetCommitListener(nullptr) returns no further callbacks
  /// run.
  void SetCommitListener(CommitListener* listener) EXCLUDES(kg_mutex());

  /// A consistent (seq, kg_version, full state image) triple captured
  /// under the ingest mutex — what the leader ships to a follower that
  /// needs a full resync.
  struct ReplicationImage {
    uint64_t seq = 0;
    uint64_t kg_version = 0;
    std::string state;
  };
  Result<ReplicationImage> CaptureReplicationImage() EXCLUDES(kg_mutex());

  /// Follower-side apply of one shipped WAL record (an article batch
  /// or a finalize): logs it to the local WAL (log-before-apply, same
  /// as the leader) and applies it through the leader's commit path.
  /// `seq` must be exactly last_durable_seq() + 1 — a gap means frames
  /// were lost and the caller must resync (FailedPrecondition). When
  /// `expected_kg_version` is nonzero and the local KG version after
  /// the apply differs, returns DataLoss: the replica diverged and
  /// must resync from a full image.
  Status ApplyReplicatedBatch(uint64_t seq, const std::string& payload,
                              uint64_t expected_kg_version)
      EXCLUDES(kg_mutex());

  /// Follower-side apply of a full checkpoint image covering `seq`:
  /// replaces the in-memory pipeline state and persists the image as
  /// the local checkpoint (resetting the local WAL).
  Status ApplyReplicatedCheckpoint(uint64_t seq, const std::string& state)
      EXCLUDES(kg_mutex());

  /// Highest WAL seq this instance has logged + applied (0 before any
  /// durable commit). Lock-free; readable from any thread.
  uint64_t last_durable_seq() const {
    return durable_seq_.load(std::memory_order_acquire);
  }
  /// KG version matching last_durable_seq().
  uint64_t durable_kg_version() const {
    return durable_kg_version_.load(std::memory_order_acquire);
  }

  /// Parses and executes a natural-language-like query (Figure 5).
  /// Runs entirely against the latest published KgSnapshot — no lock
  /// is taken, so a slow query can never stall ingest — consulting
  /// the versioned query cache first.
  ///
  /// `snapshot_out`, when non-null, receives the snapshot the answer
  /// was computed against so callers can serialize the answer against
  /// the exact same view.
  Result<Answer> Ask(const std::string& question,
                     std::shared_ptr<const KgSnapshot>* snapshot_out =
                         nullptr);

  /// Executes a pre-built structured query. Serves like Ask().
  Result<Answer> Execute(const Query& query,
                         std::shared_ptr<const KgSnapshot>* snapshot_out =
                             nullptr);

  /// The pipeline's reader/writer lock, re-exported so callers that
  /// inspect the live graph can name one capability for both objects:
  /// RETURN_CAPABILITY aliases `nous.kg_mutex()` to the pipeline's
  /// underlying mutex member.
  AnnotatedSharedMutex& kg_mutex() const
      RETURN_CAPABILITY(pipeline_.kg_mutex()) {
    return pipeline_.kg_mutex();
  }

  const PropertyGraph& graph() const REQUIRES_SHARED(kg_mutex()) {
    return pipeline_.graph();
  }
  /// Monotonic KG version of the live graph (see KgPipeline).
  uint64_t kg_version() const REQUIRES_SHARED(kg_mutex()) {
    return pipeline_.kg_version();
  }
  /// See KgPipeline::stats() (by value: it merges the mining stage's
  /// counters).
  PipelineStats stats() const REQUIRES_SHARED(kg_mutex()) {
    return pipeline_.stats();
  }
  /// Walks the latest published snapshot (no lock).
  GraphStats ComputeStats() const;
  KgPipeline& pipeline() { return pipeline_; }
  /// See KgPipeline::miner() (waits until the mining stage is idle).
  const StreamingMiner* miner() const REQUIRES_SHARED(kg_mutex()) {
    return pipeline_.miner();
  }

  /// Latest published KG snapshot (never null: the constructor
  /// publishes the curated bootstrap).
  std::shared_ptr<const KgSnapshot> snapshot() const {
    return pipeline_.snapshot();
  }

  /// The query cache, for stats inspection; null when disabled.
  const QueryCache* query_cache() const { return cache_.get(); }

  /// The options this instance was built with (immutable). The
  /// replication leader reads durability.dir to tail the WAL.
  const Options& options() const { return options_; }

  /// Registers a telemetry probe on `sampler` that exports the
  /// serving-tier gauges on every sampling tick: snapshot version and
  /// clone bytes, publish count, query-cache hit ratio, thread-pool
  /// queue depth, and p99 gauges derived from the publish / WAL
  /// latency histograms. The sampler must not outlive this Nous.
  void RegisterResourceProbes(ResourceSampler* sampler);

 private:
  /// The one ingest path: Ingest, IngestBatch and IngestText all land
  /// here, and only here is durable vs. not decided.
  Status Commit(const Article* articles, size_t count)
      EXCLUDES(ingest_mutex_, kg_mutex());
  /// The durable commit path of Commit, Finalize and
  /// ApplyReplicatedBatch: under ingest_mutex_, logs `payload` (the
  /// encoding of `kind` and `articles`), applies it, publishes, tells
  /// the listener and checkpoints when due (always after a finalize);
  /// then (kAlways) waits for the group fsync with the mutex released,
  /// so concurrent writers share one fsync. A nonzero `replicated_seq`
  /// must be the next local seq, and a nonzero `expected_kg_version`
  /// must match the version after the apply (else DataLoss).
  Status LogAndApply(const std::string& payload, WalRecordKind kind,
                     const Article* articles, size_t count,
                     uint64_t replicated_seq = 0,
                     uint64_t expected_kg_version = 0)
      EXCLUDES(ingest_mutex_, kg_mutex());
  /// Applies one logged record to the pipeline; recovery replay calls
  /// it directly.
  void ApplyRecordLocked(WalRecordKind kind, const Article* articles,
                         size_t count) REQUIRES(ingest_mutex_)
      EXCLUDES(kg_mutex());
  /// Persists SaveState() as the checkpoint covering every logged
  /// record (resetting the WAL).
  Status CheckpointLocked() REQUIRES(ingest_mutex_) EXCLUDES(kg_mutex());
  /// Cache-checked execution against one immutable snapshot.
  Result<Answer> ExecuteOnSnapshot(
      const Query& query,
      const std::shared_ptr<const KgSnapshot>& snap) const;
  /// Reads the live KG version (brief reader lock), publishes the
  /// (seq, version) pair to the lock-free accessors and returns the
  /// version.
  uint64_t PublishCommitLocked(uint64_t seq) REQUIRES(ingest_mutex_)
      EXCLUDES(kg_mutex());

  Options options_;
  KgPipeline pipeline_;
  /// Versioned answer cache; internally synchronized, null when
  /// disabled. The pointer is immutable after construction.
  std::unique_ptr<QueryCache> cache_;  // lint: unguarded(see above)

  /// Serializes durable ingest so the WAL append order equals the
  /// pipeline apply order (lock order: ingest_mutex_ before the
  /// pipeline's kg_mutex, which IngestBatch acquires internally, and
  /// before the DurabilityManager's group-commit mutex). Non-durable
  /// ingest never touches this mutex.
  AnnotatedMutex ingest_mutex_;
  std::unique_ptr<DurabilityManager> durability_ GUARDED_BY(ingest_mutex_);
  /// Fast-path flag mirroring `durability_ != nullptr`; flipped once
  /// by Recover() before any concurrent ingest exists.
  std::atomic<bool> durability_enabled_{false};
  /// Replication hook; null when nothing is subscribed.
  CommitListener* listener_ GUARDED_BY(ingest_mutex_) = nullptr;
  /// (seq, kg_version) of the last durable commit, published for
  /// lock-free lag/staleness reads by the serving tier.
  std::atomic<uint64_t> durable_seq_{0};
  std::atomic<uint64_t> durable_kg_version_{0};
};

}  // namespace nous

#endif  // NOUS_CORE_NOUS_H_
