#ifndef NOUS_CORE_PIPELINE_H_
#define NOUS_CORE_PIPELINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/mining_stage.h"
#include "core/pipeline_stats.h"
#include "core/snapshot.h"
#include "corpus/article_generator.h"
#include "embed/bpr.h"
#include "graph/property_graph.h"
#include "kb/curated_kb.h"
#include "core/source_trust.h"
#include "linker/entity_linker.h"
#include "mapping/distant_supervision.h"
#include "mapping/predicate_mapper.h"
#include "text/lexicon.h"
#include "text/ner.h"
#include "text/srl.h"
#include "topic/doc_term.h"

namespace nous {

/// End-to-end pipeline configuration (Figure 1's components).
struct PipelineConfig {
  OpenIeConfig extraction;
  LinkerConfig linker;
  MapperConfig mapper;
  /// Block SGD by default (see BprConfig::sgd_block): the block size
  /// picks the trained model. Training is serial; Finalize runs it
  /// beside the LDA fit.
  BprConfig bpr{.sgd_block = 256};
  MinerConfig miner;
  LdaConfig lda;
  /// Sliding-window size (edges) for the streaming miner. The fused KG
  /// itself never expires facts.
  size_t miner_window_edges = 4096;
  bool enable_mining = true;
  bool enable_link_prediction = true;
  /// Documents between BPR refreshes, each a retrain over the whole
  /// KG (0 = only at Finalize).
  size_t bpr_refresh_interval = 100;
  size_t bpr_refresh_epochs = 2;
  /// Weight of the BPR prior when Finalize() rescores extracted edges
  /// (confidence = (1-w)*stored + w*prior). Keep modest: on small
  /// noisy KGs the prior is weak and large weights wash out the
  /// extraction signal.
  double bpr_rescore_weight = 0.25;
  /// Extracted triples whose blended confidence falls below this are
  /// rejected ("simply adding noisy facts ... will destroy its
  /// purpose", §3.4).
  double min_accept_confidence = 0.05;
  /// Keep triples whose relation maps to no ontology predicate, under
  /// a "raw:<phrase>" predicate (else drop them).
  bool keep_unmapped = true;
  /// Evidence added per distant-supervision alignment with a curated
  /// fact; two alignments clear the mapper's default evidence
  /// threshold, one does not.
  double ds_alignment_weight = 0.4;
  /// Learn predicate-phrase evidence from curated-fact alignments
  /// (ablation switch; seeds stay active either way).
  bool enable_distant_supervision = true;
  /// Track per-source corroboration rates and fold source trust into
  /// triple confidence (§3.4's "source level trust").
  bool enable_source_trust = true;
  /// Treat negated extractions ("DJI never acquired X") as retraction
  /// evidence: an existing matching edge loses confidence; no new edge
  /// is added. Forces the extractor to keep negated tuples.
  bool negation_retracts = true;
  /// Confidence multiplier applied to a retracted edge per negation.
  double retraction_factor = 0.5;
  /// Worker threads for batch ingest extraction, the mining stage and
  /// Finalize's two fits (0 = hardware_concurrency); above 1 the
  /// pipeline owns a pool of this many, beside the ingesting thread.
  /// The fused KG is identical for every value: extraction is pure
  /// per-document work that helpers run ahead of a commit loop fusing
  /// in arrival order, mining feeds nothing back into fusion, and
  /// Finalize's BPR retrain and LDA fit each run serially on one
  /// thread, side by side, reading only the KG until both finish.
  size_t num_threads = 0;
};

/// The NOUS knowledge-graph construction pipeline (§3): curated-KB
/// bootstrap, then per-document extract -> link -> map -> score ->
/// update. The fused KG accretes; the streaming miner watches a
/// sliding window fed with the same extracted stream plus the curated
/// base (mining "both structures", §3.5).
///
/// Threading model (DESIGN.md "Threading model"): pool helpers run the
/// pure extraction stage ahead of the commit loop (IngestBatch);
/// everything that mutates the KG and its models — linking, mapping,
/// scoring, KG updates, BPR refresh — commits sequentially in arrival
/// order under the exclusive side of kg_mutex(), so the fused graph is
/// bit-identical to serial ingest. The streaming miner consumes what
/// each commit publishes, as its own stage (MiningStage) beside the
/// commit loop. Readers (query serving, stats) take the shared side.
class KgPipeline {
 public:
  /// Copies the curated KB's contents into the KG. `kb` must outlive
  /// the pipeline (it seeds the NER gazetteer and DS alignment index).
  KgPipeline(const CuratedKb* kb, PipelineConfig config = {});

  KgPipeline(const KgPipeline&) = delete;
  KgPipeline& operator=(const KgPipeline&) = delete;

  /// Ingests a batch: extraction, joint linking, predicate mapping,
  /// confidence scoring, KG update, distant supervision, then hands
  /// the batch's new edges to the mining stage. Pool helpers extract
  /// documents (pure, per-document) in array order while this thread
  /// commits link -> map -> score -> update in array order under one
  /// write-lock acquisition, taking each document as soon as it is
  /// extracted and extracting any document no helper has claimed
  /// itself. Before taking the lock it waits (span "mine_wait") only
  /// while two mining jobs are queued. The fused KG is the same for
  /// any batching of the same articles and any thread count. An
  /// article with id "adhoc_N" raises the ad-hoc counter past N.
  void IngestBatch(const Article* articles, size_t count)
      EXCLUDES(kg_mutex_);
  void IngestBatch(const std::vector<Article>& articles)
      EXCLUDES(kg_mutex_) {
    IngestBatch(articles.data(), articles.size());
  }

  /// Draws the next "adhoc_N" article id (what Nous::IngestText
  /// assigns), so the caller can build the Article — and WAL-log it
  /// under its final id — before handing it to IngestBatch.
  std::string ReserveAdhocId();

  /// Runs a final BPR refresh and fits LDA topics over the fused KG,
  /// the two side by side on the pool, then rescores the extracted
  /// edges and applies the topics. Call once after the stream (or
  /// periodically).
  void Finalize() EXCLUDES(kg_mutex_);

  /// Serializes every piece of mutable state that influences future
  /// ingest — fused KG (bit-exact: ids and edge records; adjacency is
  /// rebuilt from the records), linker alias index, mapper evidence,
  /// BPR parameters + RNG state, source-trust counts, refresh cadence,
  /// ad-hoc id counter and stats counters (layout v6). The KG's edge
  /// list is the only stored copy of the stream: BPR trains over it
  /// and the miner window is its tail, so neither is written again.
  /// Holds no wall-clock value (the stage timings restart at zero
  /// after a load), so the bytes are a pure function of the ingested
  /// stream. Takes the shared lock. The payload feeds the durability
  /// checkpointer (DESIGN.md §5.10).
  std::string SaveState() const EXCLUDES(kg_mutex_);

  /// Restores a SaveState payload onto a pipeline built with the same
  /// CuratedKb and PipelineConfig that produced it (fresh, or warm as
  /// in a replication resync). The saved state replaces the current
  /// one; the miner window is rebuilt by a mining-stage reset job that
  /// replays the KG's last miner_window_edges streamed edges through
  /// the live insert path, after the jobs queued before it, so the
  /// restored miner serves the same patterns. Atomic: the whole
  /// image is parsed before anything is replaced, so on any error the
  /// pipeline is unchanged. A malformed image (truncated, trailing
  /// bytes, ids out of range) is DataLoss, as are images older than
  /// v6; one from another curated KB is FailedPrecondition. After a
  /// successful load, ingesting the same articles produces a fused KG
  /// bit-identical to the uncheckpointed run.
  Status LoadState(std::string_view payload) EXCLUDES(kg_mutex_);

  /// Reader/writer lock over the fused KG and models. IngestBatch,
  /// Finalize and LoadState acquire it exclusively, and submit mining
  /// jobs only under it; concurrent readers (query execution, stats,
  /// serialization) must hold a ReaderMutexLock while touching
  /// graph()/miner()/stats().
  /// RETURN_CAPABILITY makes `pipeline.kg_mutex()` and the member
  /// `kg_mutex_` the same capability to the thread-safety analysis, so
  /// locks taken through the accessor satisfy REQUIRES(kg_mutex_)
  /// declarations (and vice versa).
  AnnotatedSharedMutex& kg_mutex() const RETURN_CAPABILITY(kg_mutex_) {
    return kg_mutex_;
  }

  /// Worker pool shared by extraction helpers, the mining stage and
  /// Finalize's fits; null when the pipeline resolved to one thread.
  /// The pool itself is internally synchronized; the pointer is
  /// immutable after construction.
  ThreadPool* pool() { return pool_.get(); }

  PropertyGraph& graph() REQUIRES(kg_mutex_) { return graph_; }
  const PropertyGraph& graph() const REQUIRES_SHARED(kg_mutex_) {
    return graph_;
  }
  /// The streaming miner, null with mining off. Waits until the
  /// mining stage is idle; no job can start while the caller holds the
  /// shared lock, so the miner stays still until it is released.
  const StreamingMiner* miner() const REQUIRES_SHARED(kg_mutex_) {
    return stage_ == nullptr ? nullptr : stage_->miner();
  }
  /// The miner's sliding window over a clone of graph() at the latest
  /// mined version, null with mining off. Waits like miner().
  const TemporalWindow* miner_window() const REQUIRES_SHARED(kg_mutex_) {
    return stage_ == nullptr ? nullptr : stage_->window();
  }
  EntityLinker& linker() REQUIRES(kg_mutex_) { return linker_; }
  PredicateMapper& mapper() REQUIRES(kg_mutex_) { return mapper_; }
  BprModel& bpr() REQUIRES(kg_mutex_) { return bpr_; }
  const SourceTrustTracker& source_trust() const
      REQUIRES_SHARED(kg_mutex_) {
    return trust_;
  }
  const LdaModel* lda() const REQUIRES_SHARED(kg_mutex_) {
    return lda_.get();
  }
  /// The counters, with the mining stage's time for the jobs it has
  /// finished (mine_seconds); does not wait for the stage.
  PipelineStats stats() const REQUIRES_SHARED(kg_mutex_);
  const PipelineConfig& config() const { return config_; }
  const Lexicon& lexicon() const { return lexicon_; }
  const Ner& ner() const { return ner_; }

  /// KG version: starts at 1 after the curated bootstrap and
  /// increments on every mutating operation (each IngestBatch call
  /// and Finalize). Restored exactly by LoadState (so a load may step
  /// it back; snapshots order loads first, KgSnapshot::load_generation),
  /// and WAL replay re-applies the same operations, so a recovered
  /// pipeline reports the same version as the uncrashed run. Keys the
  /// query cache with the load generation.
  uint64_t kg_version() const REQUIRES_SHARED(kg_mutex_) {
    return kg_version_;
  }

  /// The snapshot store itself, for publish-count telemetry
  /// (/api/stats, ResourceSampler probes).
  const SnapshotStore& snapshot_store() const { return snapshots_; }

  /// Latest published snapshot (DESIGN.md §5.11); the constructor
  /// publishes the curated bootstrap, so it is never null. Immutable
  /// and safe to read with no lock.
  std::shared_ptr<const KgSnapshot> snapshot() const {
    return snapshots_.Current();
  }

  /// Clones the KG under the shared lock and installs the result as
  /// the current snapshot, carrying the pattern set of the latest
  /// mining job. Called automatically after every mutating operation
  /// (ingest call, batch, finalize, state load).
  void PublishSnapshot() EXCLUDES(kg_mutex_);

  /// Mining jobs submitted and not yet finished (0 with mining off).
  size_t mining_stage_lag() const {
    return stage_ == nullptr ? 0 : stage_->lag();
  }

 private:
  /// Result of the pure, thread-safe extraction stage for one article.
  struct ExtractedDoc {
    std::vector<SrlFrame> frames;
    size_t num_sentences = 0;
    /// Document content-word bag (built only when frames is
    /// non-empty; linking is skipped otherwise).
    TermBag doc_bag;
    double extract_seconds = 0;
  };

  void LoadCuratedKb() REQUIRES(kg_mutex_);
  /// Submits a mining job for the current KG version: KG edges
  /// [begin, E), or with `reset` a fresh miner and window pinning the
  /// curated facts (the KG's first kb_->facts().size() edges) that
  /// streams [begin, E). Keeps the previous pattern set when a
  /// non-reset job would push nothing.
  void SubmitMiningLocked(EdgeId begin, bool reset) REQUIRES(kg_mutex_);
  /// Finalize body (BPR refresh beside the LDA fit, then rescore and
  /// topic apply), under the writer lock held by Finalize().
  void FinalizeLocked() REQUIRES(kg_mutex_);
  std::string VertexTypeName(VertexId v) const REQUIRES_SHARED(kg_mutex_);
  /// Trains BPR for `epochs` over every KG edge, in edge-id order.
  void RefreshBpr(size_t epochs) REQUIRES(kg_mutex_);
  /// IngestBatch's shared extraction state (defined in pipeline.cc).
  struct ExtractionBatch;

  /// Stage 1 (extraction + document bag): reads only immutable models
  /// (lexicon, NER, SRL), safe to run from pool threads with no lock.
  ExtractedDoc ExtractDocument(const Article& article) const;
  /// Stages 2-7 (link -> map -> score -> KG update -> periodic BPR
  /// refresh); caller must hold kg_mutex_ exclusively.
  void CommitDocument(const Article& article, ExtractedDoc&& doc)
      REQUIRES(kg_mutex_);
  /// LoadState body, under the writer lock held by LoadState().
  Status LoadStateLocked(std::string_view payload) REQUIRES(kg_mutex_);

  /// Immutable after construction.
  PipelineConfig config_;
  const CuratedKb* kb_;  // not owned; immutable after construction

  mutable AnnotatedSharedMutex kg_mutex_;
  /// Internally synchronized; the pointer never changes after
  /// construction.
  std::unique_ptr<ThreadPool> pool_;  // lint: unguarded(see above)

  PropertyGraph graph_ GUARDED_BY(kg_mutex_);  // the fused KG
  /// The streaming miner's stage, null with mining off. Internally
  /// synchronized; declared after pool_ so that its destructor, which
  /// waits for the queued jobs, runs while the pool is up. The pointer
  /// never changes after construction.
  std::unique_ptr<MiningStage> stage_;  // lint: unguarded(see above)
  /// The pattern set of the latest submitted mining job, which every
  /// snapshot published since carries.
  KgSnapshot::PatternFuture patterns_ GUARDED_BY(kg_mutex_);

  /// Read-only extraction models: initialized in the constructor, then
  /// only read (including from pool threads during batch extraction).
  Lexicon lexicon_;             // lint: unguarded(immutable after ctor)
  Ner ner_;                     // lint: unguarded(immutable after ctor)
  SrlExtractor srl_;            // lint: unguarded(immutable after ctor)

  EntityLinker linker_ GUARDED_BY(kg_mutex_);
  PredicateMapper mapper_ GUARDED_BY(kg_mutex_);
  DistantSupervisionTrainer ds_trainer_ GUARDED_BY(kg_mutex_);
  BprModel bpr_ GUARDED_BY(kg_mutex_);
  std::unique_ptr<LdaModel> lda_ GUARDED_BY(kg_mutex_);
  SourceTrustTracker trust_ GUARDED_BY(kg_mutex_);

  /// (subject, object) -> curated predicates, for distant supervision.
  std::unordered_map<std::pair<VertexId, VertexId>,
                     std::vector<std::string>, PairHash>
      curated_pairs_ GUARDED_BY(kg_mutex_);
  size_t docs_since_refresh_ GUARDED_BY(kg_mutex_) = 0;
  /// See kg_version(); set to 1 by the constructor's curated bootstrap.
  uint64_t kg_version_ GUARDED_BY(kg_mutex_) = 0;
  /// Successful LoadState calls; orders snapshots before kg_version_
  /// (KgSnapshot::load_generation), since a load may restore a lower
  /// version than the one it replaces.
  uint64_t load_generation_ GUARDED_BY(kg_mutex_) = 0;
  /// Internally synchronized store of the latest snapshot.
  SnapshotStore snapshots_;
  /// Ids for ad-hoc IngestText articles; atomic so concurrent HTTP
  /// ingest callers get distinct ids without taking the write lock
  /// early. IngestBatch raises it past every "adhoc_N" it commits.
  std::atomic<size_t> adhoc_counter_{0};
  PipelineStats stats_ GUARDED_BY(kg_mutex_);
};

}  // namespace nous

#endif  // NOUS_CORE_PIPELINE_H_
