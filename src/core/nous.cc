#include "core/nous.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_annotations.h"
#include "durability/wal_codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nous {

Nous::Nous(const CuratedKb* kb, Options options)
    : options_(std::move(options)), pipeline_(kb, options_.pipeline) {
  NOUS_CHECK(options_.shards == 1);
  if (options_.query_cache.entries > 0) {
    cache_ = std::make_unique<QueryCache>(options_.query_cache.entries);
  }
}

Result<Nous::RecoveryStats> Nous::Recover() {
  if (options_.durability.dir.empty()) {
    return Status::FailedPrecondition(
        "Recover(): Options::durability.dir is empty");
  }
  MutexLock lock(ingest_mutex_);
  if (durability_ != nullptr || durable()) {
    return Status::FailedPrecondition("durability is already enabled");
  }
  {
    ReaderMutexLock read(kg_mutex());
    if (pipeline_.stats().documents != 0) {
      return Status::FailedPrecondition(
          "Recover() must run before any ingest");
    }
  }
  auto manager = std::make_unique<DurabilityManager>(options_.durability);
  NOUS_ASSIGN_OR_RETURN(DurabilityManager::RecoveredState recovered,
                        manager->Recover());
  RecoveryStats stats;
  stats.dropped_wal_records = recovered.dropped_records;
  stats.dropped_wal_bytes = recovered.dropped_bytes;
  uint64_t last_seq = 0;
  if (recovered.has_checkpoint) {
    NOUS_SPAN("load_state");
    NOUS_RETURN_IF_ERROR(pipeline_.LoadState(recovered.checkpoint.state));
    if (cache_ != nullptr) cache_->Clear();
    stats.restored_checkpoint = true;
    last_seq = recovered.checkpoint.last_applied_seq;
  }
  {
    NOUS_SPAN_VAR(replay_span, "wal_replay");
    for (const WalRecord& record : recovered.replay) {
      NOUS_ASSIGN_OR_RETURN(std::vector<Article> batch,
                            DecodeArticleBatch(record.payload));
      pipeline_.IngestBatch(batch);
      last_seq = record.seq;
      ++stats.replayed_batches;
      stats.replayed_articles += batch.size();
    }
    replay_span.Attr("batches", stats.replayed_batches);
    replay_span.Attr("articles", stats.replayed_articles);
  }
  NOUS_RETURN_IF_ERROR(manager->OpenWal(last_seq));
  stats.last_seq = last_seq;
  durability_ = std::move(manager);
  durability_enabled_.store(true, std::memory_order_release);
  PublishCommitLocked(last_seq);
  return stats;
}

Status Nous::EnableDurability() {
  Result<RecoveryStats> result = Recover();
  return result.ok() ? Status::Ok() : result.status();
}

Status Nous::Checkpoint() {
  MutexLock lock(ingest_mutex_);
  if (durability_ == nullptr) {
    return Status::FailedPrecondition("durability is not enabled");
  }
  return CheckpointLocked();
}

Status Nous::CheckpointLocked() {
  std::string state = pipeline_.SaveState();
  const uint64_t seq = durability_->last_logged_seq();
  NOUS_RETURN_IF_ERROR(durability_->WriteCheckpoint(state));
  const uint64_t kgv = PublishCommitLocked(seq);
  if (listener_ != nullptr) listener_->OnCheckpoint(seq, state, kgv);
  return Status::Ok();
}

uint64_t Nous::PublishCommitLocked(uint64_t seq) {
  uint64_t kgv = 0;
  {
    ReaderMutexLock lock(kg_mutex());
    kgv = pipeline_.kg_version();
  }
  durable_seq_.store(seq, std::memory_order_release);
  durable_kg_version_.store(kgv, std::memory_order_release);
  return kgv;
}

Status Nous::Commit(const Article* articles, size_t count) {
  if (count == 0) return Status::Ok();
  if (!durable()) {
    pipeline_.IngestBatch(articles, count);
    return Status::Ok();
  }
  DurabilityManager* manager = nullptr;
  uint64_t seq = 0;
  {
    MutexLock lock(ingest_mutex_);
    // Log before apply: a batch that cannot reach the WAL is rejected
    // with the pipeline untouched, so nothing unlogged is ever
    // acknowledged. A torn append (crash or injected fault) leaves a
    // CRC-invalid tail the next Recover() drops.
    std::string payload = EncodeArticleBatch(articles, count);
    NOUS_ASSIGN_OR_RETURN(seq, durability_->LogBatch(payload));
    pipeline_.IngestBatch(articles, count);
    const uint64_t kgv = PublishCommitLocked(seq);
    if (listener_ != nullptr) listener_->OnCommit(seq, payload, kgv);
    if (durability_->ShouldCheckpoint()) {
      NOUS_RETURN_IF_ERROR(CheckpointLocked());
    }
    manager = durability_.get();
  }
  // Group commit (kAlways): wait for the fsync with the ingest mutex
  // released, so the next writers append while this one's flush runs
  // and one fsync acknowledges them all. No-op for the other policies.
  return manager->WaitDurable(seq);
}

Status Nous::Ingest(const Article& article) { return Commit(&article, 1); }

Status Nous::IngestBatch(const std::vector<Article>& articles) {
  return Commit(articles.data(), articles.size());
}

Status Nous::IngestStream(DocumentStream* stream, bool finalize) {
  // Batches keep the worker pool busy on extraction while the commit
  // loop preserves stream order (see KgPipeline::IngestBatch). One
  // batch is also the WAL commit unit in durable mode.
  constexpr size_t kBatch = 64;
  std::vector<Article> batch;
  batch.reserve(kBatch);
  while (!stream->Done()) {
    batch.push_back(stream->Next());
    if (batch.size() == kBatch) {
      NOUS_RETURN_IF_ERROR(IngestBatch(batch));
      batch.clear();
    }
  }
  NOUS_RETURN_IF_ERROR(IngestBatch(batch));
  if (finalize) Finalize();
  return Status::Ok();
}

Status Nous::IngestText(const std::string& text, const Date& date,
                        const std::string& source) {
  // Reserve the concrete "adhoc_N" id up front so the WAL logs the
  // article exactly as the pipeline will ingest it.
  Article article;
  article.id = pipeline_.ReserveAdhocId();
  article.date = date;
  article.source = source;
  article.text = text;
  return Commit(&article, 1);
}

void Nous::Finalize() {
  MutexLock lock(ingest_mutex_);
  pipeline_.Finalize();
  if (durability_ == nullptr) return;
  // Finalize mutates the KG outside the WAL (topic fit, confidence
  // refresh), so durable mode must capture its effect in a checkpoint
  // — otherwise a restart or a follower replaying the WAL would land
  // on a different KG than the one that served queries.
  Status status = CheckpointLocked();
  if (!status.ok()) {
    NOUS_LOG(Warning) << "Finalize(): checkpoint failed, durable state "
                         "lags the finalized KG: "
                      << status.ToString();
  }
}

void Nous::SetCommitListener(CommitListener* listener) {
  MutexLock lock(ingest_mutex_);
  listener_ = listener;
}

Result<Nous::ReplicationImage> Nous::CaptureReplicationImage() {
  MutexLock lock(ingest_mutex_);
  if (durability_ == nullptr) {
    return Status::FailedPrecondition(
        "CaptureReplicationImage(): durability is not enabled");
  }
  ReplicationImage image;
  image.seq = durability_->last_logged_seq();
  image.state = pipeline_.SaveState();
  {
    ReaderMutexLock read(kg_mutex());
    image.kg_version = pipeline_.kg_version();
  }
  return image;
}

Status Nous::ApplyReplicatedBatch(uint64_t seq, const std::string& payload,
                                  uint64_t expected_kg_version) {
  DurabilityManager* manager = nullptr;
  {
    MutexLock lock(ingest_mutex_);
    if (durability_ == nullptr) {
      return Status::FailedPrecondition(
          "ApplyReplicatedBatch(): durability is not enabled");
    }
    const uint64_t local = durability_->last_logged_seq();
    if (seq != local + 1) {
      return Status::FailedPrecondition(
          "replicated batch seq " + std::to_string(seq) +
          " does not follow local seq " + std::to_string(local));
    }
    // Decode before logging: a payload that cannot decode must not
    // enter the local WAL (recovery would choke on it).
    NOUS_ASSIGN_OR_RETURN(std::vector<Article> batch,
                          DecodeArticleBatch(payload));
    NOUS_ASSIGN_OR_RETURN(uint64_t logged, durability_->LogBatch(payload));
    (void)logged;
    pipeline_.IngestBatch(batch);
    const uint64_t kgv = PublishCommitLocked(seq);
    if (listener_ != nullptr) listener_->OnCommit(seq, payload, kgv);
    if (expected_kg_version != 0 && kgv != expected_kg_version) {
      return Status::DataLoss(
          "replica diverged: KG version " + std::to_string(kgv) +
          " after seq " + std::to_string(seq) + ", leader had " +
          std::to_string(expected_kg_version));
    }
    if (durability_->ShouldCheckpoint()) {
      NOUS_RETURN_IF_ERROR(CheckpointLocked());
    }
    manager = durability_.get();
  }
  // Same group-commit wait as Commit(): acknowledged once fsynced.
  return manager->WaitDurable(seq);
}

Status Nous::ApplyReplicatedCheckpoint(uint64_t seq,
                                       const std::string& state) {
  MutexLock lock(ingest_mutex_);
  if (durability_ == nullptr) {
    return Status::FailedPrecondition(
        "ApplyReplicatedCheckpoint(): durability is not enabled");
  }
  NOUS_RETURN_IF_ERROR(pipeline_.LoadState(state));
  // The load's generation already keeps stale answers from being
  // served; clearing frees them.
  if (cache_ != nullptr) cache_->Clear();
  NOUS_RETURN_IF_ERROR(durability_->InstallCheckpoint(seq, state));
  const uint64_t kgv = PublishCommitLocked(seq);
  if (listener_ != nullptr) listener_->OnCheckpoint(seq, state, kgv);
  return Status::Ok();
}

Result<Answer> Nous::Ask(const std::string& question,
                         std::shared_ptr<const KgSnapshot>* snapshot_out) {
  Query query;
  {
    NOUS_SPAN("parse");
    NOUS_ASSIGN_OR_RETURN(query, ParseQuery(question));
  }
  return Execute(query, snapshot_out);
}

Result<Answer> Nous::Execute(const Query& query,
                             std::shared_ptr<const KgSnapshot>* snapshot_out) {
  std::shared_ptr<const KgSnapshot> snap = pipeline_.snapshot();
  if (snapshot_out != nullptr) *snapshot_out = snap;
  return ExecuteOnSnapshot(query, snap);
}

Result<Answer> Nous::ExecuteOnSnapshot(
    const Query& query,
    const std::shared_ptr<const KgSnapshot>& snap) const {
  std::string key;
  if (cache_ != nullptr) {
    key = CanonicalCacheKey(query);
    Answer cached;
    if (cache_->Lookup(key, snap->load_generation(), snap->version(),
                       &cached)) {
      return cached;
    }
  }
  // Only answers that read the miner's patterns wait for the mining
  // stage to finish this version. They share the snapshot's set, so a
  // cached answer keeps it alive.
  QueryEngine engine(&snap->graph(),
                     ReadsPatterns(query.kind) ? snap->pattern_set() : nullptr,
                     options_.query);
  NOUS_ASSIGN_OR_RETURN(Answer answer, engine.Execute(query));
  if (cache_ != nullptr) {
    cache_->Insert(key, snap->load_generation(), snap->version(), answer);
  }
  return answer;
}

GraphStats Nous::ComputeStats() const {
  return ComputeGraphStats(pipeline_.snapshot()->graph());
}

void Nous::RegisterResourceProbes(ResourceSampler* sampler) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Gauge* version = registry.GetGauge(
      "nous_kg_version", "Version of the latest published KG snapshot");
  Gauge* graph_bytes = registry.GetGauge(
      "nous_snapshot_graph_bytes",
      "Estimated heap bytes of the latest snapshot's graph "
      "(shared + private)");
  Gauge* graph_shared_bytes = registry.GetGauge(
      "nous_snapshot_graph_shared_bytes",
      "Snapshot graph bytes in COW chunks shared with the live graph "
      "or other snapshots");
  Gauge* graph_private_bytes = registry.GetGauge(
      "nous_snapshot_graph_private_bytes",
      "Snapshot graph bytes private to the latest snapshot — its true "
      "retention cost over the live graph");
  Gauge* publishes = registry.GetGauge(
      "nous_snapshot_publishes",
      "Snapshots installed in the store since process start");
  Gauge* hit_ratio = registry.GetGauge(
      "nous_query_cache_hit_ratio",
      "Query-cache hits / lookups since process start (0 when unused)");
  Gauge* queue_depth = registry.GetGauge(
      "nous_thread_pool_queue_depth",
      "Tasks waiting in the pipeline worker pool queue");
  Gauge* publish_p99 = registry.GetGauge(
      "nous_snapshot_publish_p99_seconds",
      "p99 of snapshot publish latency (from the span histogram)");
  Gauge* wal_append_p99 = registry.GetGauge(
      "nous_wal_append_p99_seconds",
      "p99 of WAL append latency (from the span histogram)");
  Gauge* wal_fsync_p99 = registry.GetGauge(
      "nous_wal_fsync_p99_seconds",
      "p99 of WAL fsync latency (from the span histogram)");
  sampler->AddProbe([this, &registry, version, graph_bytes,
                     graph_shared_bytes, graph_private_bytes, publishes,
                     hit_ratio, queue_depth, publish_p99, wal_append_p99,
                     wal_fsync_p99] {
    const SnapshotStore& store = pipeline_.snapshot_store();
    if (auto snap = store.Current()) {
      version->Set(static_cast<double>(snap->version()));
      // Re-sampled live (not the publish-time figure): sharing decays
      // as ingest unshares chunks, and the gauges should show that.
      CowFootprint fp = snap->graph().Footprint();
      graph_bytes->Set(static_cast<double>(fp.total_bytes()));
      graph_shared_bytes->Set(static_cast<double>(fp.shared_bytes));
      graph_private_bytes->Set(static_cast<double>(fp.private_bytes));
    }
    publishes->Set(static_cast<double>(store.publish_count()));
    if (cache_ != nullptr) {
      QueryCache::Stats stats = cache_->stats();
      double lookups = static_cast<double>(stats.hits + stats.misses);
      hit_ratio->Set(lookups > 0 ? static_cast<double>(stats.hits) / lookups
                                 : 0.0);
    }
    if (ThreadPool* pool = pipeline_.pool()) {
      queue_depth->Set(static_cast<double>(pool->QueueDepth()));
    }
    for (const auto& row : registry.HistogramRows()) {
      if (row.name == "nous_snapshot_publish_latency_seconds") {
        publish_p99->Set(row.p99);
      } else if (row.name == "nous_wal_append_latency_seconds") {
        wal_append_p99->Set(row.p99);
      } else if (row.name == "nous_wal_fsync_latency_seconds") {
        wal_fsync_p99->Set(row.p99);
      }
    }
  });
}

}  // namespace nous
