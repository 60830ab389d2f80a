#include "core/pipeline.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <thread>

#include "common/binary_io.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "linker/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nous {

namespace {

/// Registry counters for every Figure-1 stage, resolved once and
/// cached (see DESIGN.md "Observability" for the naming convention).
/// Stage latencies are not here: each stage is one NOUS_SPAN_VAR, whose
/// End() feeds both its histogram and the PipelineStats field.
struct PipelineMetrics {
  Counter* documents;
  Counter* sentences;
  Counter* raw_triples;
  Counter* linked;
  Counter* new_entities;
  Counter* mapped;
  Counter* unmapped_kept;
  Counter* unmapped_dropped;
  Counter* rejected;
  Counter* accepted;
  Counter* deduped;
  Counter* retractions;
  Counter* inline_extractions;
  Gauge* refresh_edges;
};

/// IngestBatch waits for the mining stage only while this many jobs
/// wait to start: the stage may fall that far (plus the running job)
/// behind, so the clones it holds stay few.
constexpr size_t kMaxQueuedMiningJobs = 2;

/// One past N for an "adhoc_N" article id (what
/// KgPipeline::ReserveAdhocId hands out), 0 for any other id.
size_t AdhocFloor(const std::string& id) {
  constexpr std::string_view kPrefix = "adhoc_";
  if (id.size() <= kPrefix.size() ||
      std::string_view(id).substr(0, kPrefix.size()) != kPrefix) {
    return 0;
  }
  const char* digits = id.c_str() + kPrefix.size();
  char* end = nullptr;
  unsigned long long n = std::strtoull(digits, &end, 10);
  if (end == digits || *end != '\0') return 0;
  return static_cast<size_t>(n) + 1;
}

const PipelineMetrics& Metrics() {
  static PipelineMetrics metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    PipelineMetrics m;
    m.documents = r.GetCounter("nous_pipeline_documents_total",
                               "Documents ingested");
    m.sentences = r.GetCounter("nous_pipeline_sentences_total",
                               "Sentences seen by extraction");
    m.raw_triples = r.GetCounter("nous_extraction_triples_total",
                                 "Raw triples extracted (OpenIE+SRL)");
    m.linked = r.GetCounter("nous_linking_linked_total",
                            "Mentions linked to existing entities");
    m.new_entities = r.GetCounter("nous_linking_new_entities_total",
                                  "Mentions minted as new entities");
    m.mapped = r.GetCounter("nous_mapping_mapped_total",
                            "Triples mapped to an ontology predicate");
    m.unmapped_kept = r.GetCounter(
        "nous_mapping_unmapped_total",
        "Triples kept under a raw:<phrase> predicate");
    m.unmapped_dropped = r.GetCounter(
        "nous_mapping_dropped_total",
        "Unmapped triples dropped (keep_unmapped off)");
    m.rejected = r.GetCounter(
        "nous_confidence_rejected_total",
        "Triples rejected below min_accept_confidence");
    m.accepted = r.GetCounter("nous_pipeline_accepted_triples_total",
                              "New triples added to the fused KG");
    m.deduped = r.GetCounter("nous_pipeline_deduped_triples_total",
                             "Repeated reports merged into existing edges");
    m.retractions = r.GetCounter("nous_pipeline_retractions_total",
                                 "Edges weakened by negated reports");
    m.inline_extractions = r.GetCounter(
        "nous_ingest_inline_extractions_total",
        "Documents the committing thread extracted itself (no pool "
        "helper had claimed them)");
    m.refresh_edges = r.GetGauge(
        "nous_embed_refresh_edges",
        "Triples trained by the last BPR refresh (every KG edge)");
    return m;
  }();
  return metrics;
}

}  // namespace

std::string PipelineStats::ToString() const {
  return StrFormat(
      "docs=%zu extractions=%zu accepted=%zu deduped=%zu "
      "dropped(conf)=%zu dropped(unmapped)=%zu mapped=%zu raw_kept=%zu "
      "linked=%zu new_entities=%zu ds_alignments=%zu retractions=%zu\n"
      "stage seconds: extract=%.3f link=%.3f map=%.3f score=%.3f "
      "refresh=%.3f mine=%.3f",
      documents, extractions, accepted_triples, deduped_triples,
      dropped_low_confidence, dropped_unmapped, mapped_triples,
      unmapped_kept, linked_to_existing, new_entities, ds_alignments,
      retractions, extract_seconds, link_seconds, map_seconds,
      score_seconds, refresh_seconds, mine_seconds);
}

KgPipeline::KgPipeline(const CuratedKb* kb, PipelineConfig config)
    : config_(config),
      kb_(kb),
      lexicon_(Lexicon::Default()),
      ner_(&lexicon_),
      srl_(&lexicon_, &ner_, [&config] {
        OpenIeConfig ex = config.extraction;
        // Retraction handling needs the negated tuples delivered.
        if (config.negation_retracts) ex.drop_negated = false;
        return ex;
      }()),
      linker_(&graph_, config.linker),
      mapper_(&kb->ontology(), config.mapper),
      ds_trainer_(),
      bpr_(config.bpr) {
  // No lock here: the object is not yet shared, and the thread-safety
  // analysis treats constructors as NO_THREAD_SAFETY_ANALYSIS.
  size_t threads = config_.num_threads != 0
                       ? config_.num_threads
                       : static_cast<size_t>(
                             std::thread::hardware_concurrency());
  if (threads > 1) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  if (config_.enable_mining) {
    stage_ = std::make_unique<MiningStage>(
        config_.miner, config_.miner_window_edges,
        static_cast<EdgeId>(kb_->facts().size()), pool_.get());
  }
  mapper_.LoadDefaultSeeds();
  kg_version_ = 1;  // the curated bootstrap is the first KG version
  LoadCuratedKb();
  PublishSnapshot();
}

void KgPipeline::LoadCuratedKb() {
  // Entities: vertices with types, bags, alias registration, NER
  // gazetteer entries.
  std::vector<VertexId> kb_vertex(kb_->entities().size());
  for (size_t i = 0; i < kb_->entities().size(); ++i) {
    const KbEntity& e = kb_->entities()[i];
    VertexId v = graph_.GetOrAddVertex(e.name);
    kb_vertex[i] = v;
    graph_.SetVertexType(v, graph_.types().Intern(e.type_name));
    for (const std::string& term : e.context_terms) {
      graph_.AddVertexTerm(v, graph_.terms().Intern(ToLower(term)));
    }
    std::vector<std::string> surfaces = e.aliases;
    surfaces.push_back(e.name);
    linker_.RegisterEntity(v, surfaces, e.prior);
    for (const std::string& surface : surfaces) {
      ner_.AddGazetteerEntry(surface, e.ner_type);
    }
    // Person first names improve NER typing of unseen people.
    if (e.ner_type == EntityType::kPerson) {
      auto words = SplitWhitespace(e.name);
      if (words.size() >= 2) ner_.AddFirstName(words[0]);
    }
  }
  // Facts: curated edges, the KG's first edges and the miner window's
  // pinned prefix (never expired).
  SourceId kb_source = graph_.sources().Intern("curated_kb");
  for (const KbFact& f : kb_->facts()) {
    VertexId s = kb_vertex[f.subject];
    VertexId o = kb_vertex[f.object];
    PredicateId p = graph_.predicates().Intern(f.predicate);
    EdgeMeta meta;
    meta.confidence = 1.0;
    meta.timestamp = f.timestamp;
    meta.source = kb_source;
    meta.curated = true;
    graph_.AddEdge(s, p, o, meta);
    curated_pairs_[{s, o}].push_back(f.predicate);
  }
  SubmitMiningLocked(static_cast<EdgeId>(graph_.NumEdges()), /*reset=*/true);
  if (config_.enable_link_prediction && !kb_->facts().empty()) {
    RefreshBpr(config_.bpr.epochs);
  }
}

void KgPipeline::SubmitMiningLocked(EdgeId begin, bool reset) {
  if (stage_ == nullptr) return;
  if (!reset && begin == graph_.NumEdges()) return;  // the set is unchanged
  // Under the writer lock, so no job starts while a reader holding the
  // shared side looks at miner(). Without a pool the job runs here.
  patterns_ = stage_->Submit(kg_version_, graph_.Clone(), begin, reset);
}

PipelineStats KgPipeline::stats() const {
  PipelineStats stats = stats_;
  if (stage_ != nullptr) stats.mine_seconds = stage_->mine_seconds();
  return stats;
}

std::string KgPipeline::VertexTypeName(VertexId v) const {
  TypeId t = graph_.VertexType(v);
  if (t == kInvalidType) return "";
  return graph_.types().GetString(t);
}

/// One batch's extraction hand-off: pool helpers and the committing
/// thread claim documents in arrival order from `cursor`, and each
/// extractor publishes docs[i] with a release store to published[i]
/// that the committer acquires. Held by shared_ptr, as ParallelFor
/// holds its state: a helper dequeued after IngestBatch returned still
/// owns it, finds the cursor past the end, and reads nothing else.
struct KgPipeline::ExtractionBatch {
  ExtractionBatch(const Article* batch_articles, size_t count)
      : articles(batch_articles), docs(count), published(count) {}

  /// Claims the next unextracted document; false once none remain.
  bool Claim(size_t* index) {
    *index = cursor.fetch_add(1, std::memory_order_relaxed);
    return *index < docs.size();
  }
  void Publish(size_t index, ExtractedDoc&& doc) {
    docs[index] = std::move(doc);
    published[index].store(1, std::memory_order_release);
    published[index].notify_one();
  }

  const Article* const articles;
  std::vector<ExtractedDoc> docs;
  std::vector<std::atomic<uint32_t>> published;  // 1 once docs[i] is set
  std::atomic<size_t> cursor{0};
};

void KgPipeline::IngestBatch(const Article* articles, size_t count) {
  if (count == 0) return;
  NOUS_SPAN_VAR(span, "ingest_batch");
  span.Attr("batch_size", count);
  // Extraction runs ahead of the commit loop: pool helpers extract
  // documents in arrival order while this thread commits them in that
  // order, waiting for a document only when a helper still holds it
  // and no unclaimed one remains for this thread to extract itself. A
  // late or absent pool therefore costs no more than serial ingest,
  // and since extraction is pure and commit order fixed, the KG is
  // bit-identical for any thread count. Helpers touch `this` (the
  // immutable extraction models) only after claiming a document, which
  // the loop below commits before returning.
  auto batch = std::make_shared<ExtractionBatch>(articles, count);
  const size_t helpers =
      pool_ == nullptr ? 0 : std::min(pool_->num_threads(), count - 1);
  for (size_t h = 0; h < helpers; ++h) {
    pool_->Submit([this, batch] {
      for (size_t i = 0; batch->Claim(&i);) {
        batch->Publish(i, ExtractDocument(batch->articles[i]));
      }
    });
  }
  // Backpressure on the mining stage, with no lock held (the stage takes
  // none): the helpers keep extracting meanwhile.
  if (stage_ != nullptr) stage_->WaitForBacklogBelow(kMaxQueuedMiningJobs);
  {
    // This thread's own extractions run inside the writer section, and
    // that blocks no reader that could otherwise run: every other
    // kg_mutex_ reader is on this ingest thread (PublishSnapshot, and
    // SaveState through Checkpoint) or serialized with it by
    // Nous::ingest_mutex_ (Recover, CaptureReplicationImage). Queries
    // read published snapshots and take no lock.
    WriterMutexLock lock(kg_mutex_);
    const PipelineMetrics& metrics = Metrics();
    const EdgeId first_edge = static_cast<EdgeId>(graph_.NumEdges());
    for (size_t i = 0; i < count; ++i) {
      while (batch->published[i].load(std::memory_order_acquire) == 0) {
        size_t claimed = 0;
        if (batch->Claim(&claimed)) {
          batch->Publish(claimed, ExtractDocument(articles[claimed]));
          ++stats_.inline_extractions;
          metrics.inline_extractions->Increment();
        } else {
          // A helper holds document i and nothing is left to extract.
          NOUS_SPAN_VAR(wait_span, "extract_wait");
          batch->published[i].wait(0, std::memory_order_acquire);
          stats_.extract_wait_seconds += wait_span.End();
        }
      }
      CommitDocument(articles[i], std::move(batch->docs[i]));
      // An ingested "adhoc_N" raises the ad-hoc counter past N, whether
      // it came from ReserveAdhocId, a caller, WAL replay or a leader,
      // so live, recovered and follower images agree and no later
      // ReserveAdhocId hands N out again.
      const size_t floor = AdhocFloor(articles[i].id);
      size_t current = adhoc_counter_.load(std::memory_order_relaxed);
      while (current < floor &&
             !adhoc_counter_.compare_exchange_weak(
                 current, floor, std::memory_order_relaxed)) {
      }
    }
    // One bump per batch (the WAL commit unit), so recovery replay
    // reproduces the exact version of the uncrashed run.
    ++kg_version_;
    // Every new KG edge enters the miner's window, in id order. A
    // retraction only lowers a KG edge's confidence, which mining does
    // not read, so it adds nothing to mine.
    SubmitMiningLocked(first_edge, /*reset=*/false);
  }
  PublishSnapshot();
}

KgPipeline::ExtractedDoc KgPipeline::ExtractDocument(
    const Article& article) const {
  // ---- 1. Extraction (OpenIE + SRL dating). ----
  // Reads only the immutable lexicon/NER/SRL models plus thread-safe
  // metrics, so batch ingest runs it from pool threads; there the span
  // parents under the submitting ingest_batch span via the ThreadPool's
  // TraceContext propagation. The "ingest_extract" fault point (delay
  // only) stretches one document's extraction for scheduling tests.
  NOUS_SPAN_VAR(span, "extraction");
  if (std::optional<Fault> fault =
          FaultInjector::Global().Hit("ingest_extract");
      fault.has_value() && fault->kind == FaultKind::kDelay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fault->arg));
  }
  const PipelineMetrics& metrics = Metrics();
  ExtractedDoc doc;
  doc.frames =
      srl_.Extract(article.text, article.date, &doc.num_sentences);
  if (!doc.frames.empty()) {
    doc.doc_bag = BuildDocumentBag(article.text, lexicon_);
  }
  doc.extract_seconds = span.End();
  metrics.sentences->Increment(doc.num_sentences);
  metrics.raw_triples->Increment(doc.frames.size());
  return doc;
}

void KgPipeline::CommitDocument(const Article& article,
                                ExtractedDoc&& doc) {
  NOUS_SPAN("pipeline_ingest");
  const PipelineMetrics& metrics = Metrics();
  ++stats_.documents;
  metrics.documents->Increment();
  stats_.extractions += doc.frames.size();
  stats_.extract_seconds += doc.extract_seconds;
  if (doc.frames.empty()) return;
  const std::vector<SrlFrame>& frames = doc.frames;
  const TermBag& doc_bag = doc.doc_bag;

  // ---- 2. Joint entity linking over the document's mentions. ----
  NOUS_SPAN_VAR(link_span, "linking");
  std::vector<std::string> surfaces;
  std::vector<EntityType> types;
  std::unordered_map<std::string, size_t> surface_index;
  auto add_surface = [&](const std::string& text, EntityType type) {
    if (surface_index.count(text) > 0) return;
    surface_index[text] = surfaces.size();
    surfaces.push_back(text);
    types.push_back(type);
  };
  for (const SrlFrame& frame : frames) {
    add_surface(frame.extraction.triple.subject,
                frame.extraction.subject_type);
    add_surface(frame.extraction.triple.object,
                frame.extraction.object_type);
  }
  std::vector<LinkDecision> decisions =
      linker_.LinkMentions(surfaces, types, doc_bag);
  for (const LinkDecision& d : decisions) {
    if (d.created_new) {
      ++stats_.new_entities;
      metrics.new_entities->Increment();
      // Seed the new vertex's bag with document context so LDA and
      // later linking have signal (the dynamic-KG AIDA adaptation).
      for (const auto& [term, weight] : doc_bag) {
        graph_.AddVertexTerm(d.vertex, graph_.terms().Intern(term),
                             std::min(weight, 3.0) * 0.5);
      }
    } else {
      ++stats_.linked_to_existing;
      metrics.linked->Increment();
    }
  }
  stats_.link_seconds += link_span.End();

  SourceId source_id = graph_.sources().Intern(article.source);
  for (const SrlFrame& frame : frames) {
    const RawExtraction& ex = frame.extraction;
    VertexId s = decisions[surface_index[ex.triple.subject]].vertex;
    VertexId o = decisions[surface_index[ex.triple.object]].vertex;
    if (s == o) continue;

    // Negated reports retract rather than assert (§3.4-adjacent
    // quality control): weaken any matching edge, add nothing.
    if (ex.negated && config_.negation_retracts) {
      MappingDecision neg_mapping = mapper_.Map(
          ex.relation, VertexTypeName(s), VertexTypeName(o));
      if (neg_mapping.mapped) {
        if (auto pred = graph_.predicates().Lookup(
                neg_mapping.predicate)) {
          if (auto existing = graph_.FindEdge(s, *pred, o)) {
            const EdgeRecord& rec = graph_.Edge(*existing);
            if (!rec.meta.curated) {
              graph_.SetEdgeConfidence(
                  *existing,
                  rec.meta.confidence * config_.retraction_factor);
              ++stats_.retractions;
              metrics.retractions->Increment();
            }
          }
        }
      }
      continue;
    }

    // ---- 3. Predicate mapping + distant supervision. ----
    // Map with the current model first; this document's own KB
    // alignment only informs *future* mappings, and a lone
    // co-occurrence stays below the mapper's evidence threshold.
    NOUS_SPAN_VAR(map_span, "mapping");
    MappingDecision mapping =
        mapper_.Map(ex.relation, VertexTypeName(s), VertexTypeName(o));
    auto pair_it = curated_pairs_.find({s, o});
    if (config_.enable_distant_supervision &&
        pair_it != curated_pairs_.end()) {
      for (const std::string& kb_pred : pair_it->second) {
        mapper_.AddEvidence(kb_pred, ex.relation,
                            config_.ds_alignment_weight);
        ++stats_.ds_alignments;
      }
    }
    std::string predicate_name;
    if (mapping.mapped) {
      predicate_name = mapping.predicate;
      ++stats_.mapped_triples;
      metrics.mapped->Increment();
    } else if (config_.keep_unmapped) {
      predicate_name = "raw:" + ex.relation;
      ++stats_.unmapped_kept;
      metrics.unmapped_kept->Increment();
    } else {
      ++stats_.dropped_unmapped;
      metrics.unmapped_dropped->Increment();
      stats_.map_seconds += map_span.End();
      continue;
    }
    PredicateId p = graph_.predicates().Intern(predicate_name);
    stats_.map_seconds += map_span.End();

    // ---- 4. Confidence via link prediction (§3.4). ----
    NOUS_SPAN_VAR(score_span, "confidence");
    double confidence = ex.confidence;
    if (mapping.mapped) confidence *= (0.7 + 0.3 * mapping.score);
    if (config_.enable_link_prediction && p < graph_.predicates().size()) {
      double prior = bpr_.Score(s, p, o);
      confidence *= (0.7 + 0.3 * prior);
    }
    if (config_.enable_source_trust) {
      // Relative trust: only below-average sources are penalized, so a
      // corpus where most facts are single-reported is not damped
      // across the board.
      confidence *= (0.6 + 0.4 * trust_.RelativeTrust(source_id));
    }
    confidence = std::clamp(confidence, 0.0, 1.0);
    stats_.score_seconds += score_span.End();
    if (confidence < config_.min_accept_confidence) {
      ++stats_.dropped_low_confidence;
      metrics.rejected->Increment();
      continue;
    }

    // ---- 5. KG update (dedup: repeated reports strengthen, and
    // cross-source agreement feeds the trust tracker). ----
    Timestamp ts = frame.date.ToDayNumber();
    if (auto existing = graph_.FindEdge(s, p, o)) {
      const EdgeRecord& rec = graph_.Edge(*existing);
      double boosted =
          std::max(rec.meta.confidence,
                   1.0 - (1.0 - rec.meta.confidence) * (1.0 - confidence));
      graph_.SetEdgeConfidence(*existing, boosted);
      ++stats_.deduped_triples;
      metrics.deduped->Increment();
      if (config_.enable_source_trust &&
          rec.meta.source != source_id) {
        trust_.RecordCorroborated(source_id);
        if (rec.meta.source != kInvalidSource) {
          trust_.RecordCorroborated(rec.meta.source);
        }
      }
      continue;
    }
    if (config_.enable_source_trust) {
      // Curated agreement on the entity pair also corroborates.
      if (pair_it != curated_pairs_.end()) {
        trust_.RecordCorroborated(source_id);
      } else {
        trust_.RecordUncorroborated(source_id);
      }
    }
    EdgeMeta meta;
    meta.confidence = confidence;
    meta.timestamp = ts;
    meta.source = source_id;
    meta.curated = false;
    graph_.AddEdge(s, p, o, meta);
    ++stats_.accepted_triples;
    metrics.accepted->Increment();
    // ---- 6. Mining: IngestBatch hands the batch's new edges to the
    // mining stage once the batch is committed. ----
  }

  // ---- 7. Periodic model refresh. ----
  if (config_.enable_link_prediction &&
      config_.bpr_refresh_interval != 0 &&
      ++docs_since_refresh_ >= config_.bpr_refresh_interval) {
    docs_since_refresh_ = 0;
    RefreshBpr(config_.bpr_refresh_epochs);
  }
}

std::string KgPipeline::ReserveAdhocId() {
  return StrFormat(
      "adhoc_%zu", adhoc_counter_.fetch_add(1, std::memory_order_relaxed));
}

namespace {
/// SaveState payload version; bump on any layout change. Only the
/// current version loads (DESIGN.md §5.10).
/// v5: drops the accepted-triple and miner-window blocks; both are
/// derived from the KG's edge list.
/// v6: the graph block holds edge records only; adjacency is rebuilt
/// from them on load.
constexpr uint32_t kStateVersion = 6;

/// The stats counters an image carries, in image order.
template <typename Stats>
auto ImageCounters(Stats& s) {
  return std::array{&s.documents, &s.extractions, &s.accepted_triples,
                    &s.deduped_triples, &s.dropped_low_confidence,
                    &s.dropped_unmapped, &s.mapped_triples,
                    &s.unmapped_kept, &s.linked_to_existing,
                    &s.new_entities, &s.ds_alignments, &s.retractions};
}
}  // namespace

std::string KgPipeline::SaveState() const {
  ReaderMutexLock lock(kg_mutex_);
  BinaryWriter writer;
  writer.U32(kStateVersion);
  // Cheap compatibility fingerprint: a checkpoint only makes sense
  // against the curated KB that shaped the graph's id space.
  writer.U64(kb_->entities().size());
  writer.U64(kb_->facts().size());
  writer.U64(kg_version_);

  graph_.SaveBinary(&writer);
  linker_.SaveBinary(&writer);
  mapper_.SaveBinary(&writer);
  bpr_.SaveBinary(&writer);
  trust_.SaveBinary(&writer);

  writer.U64(docs_since_refresh_);
  writer.U64(adhoc_counter_.load(std::memory_order_relaxed));

  for (const size_t* counter : ImageCounters(stats_)) writer.U64(*counter);
  return writer.Take();
}

Status KgPipeline::LoadState(std::string_view payload) {
  {
    WriterMutexLock lock(kg_mutex_);
    Status status = LoadStateLocked(payload);
    // A payload that ends early is a damaged image like any other, so
    // the code does not depend on which block the cut falls in.
    if (status.code() == StatusCode::kOutOfRange) {
      return Status::DataLoss(status.message());
    }
    NOUS_RETURN_IF_ERROR(status);
  }
  PublishSnapshot();
  return Status::Ok();
}

Status KgPipeline::LoadStateLocked(std::string_view payload) {
  // Parse into locals and swap in only once the whole image has parsed,
  // so a malformed image leaves the pipeline as it was.
  BinaryReader reader(payload);
  uint32_t version = 0;
  NOUS_RETURN_IF_ERROR(reader.U32(&version));
  if (version != kStateVersion) {
    return Status::DataLoss("pipeline state version " +
                            std::to_string(version) + " unsupported");
  }
  uint64_t kb_entities = 0, kb_facts = 0, kg_version = 0;
  NOUS_RETURN_IF_ERROR(reader.U64(&kb_entities));
  NOUS_RETURN_IF_ERROR(reader.U64(&kb_facts));
  if (kb_entities != kb_->entities().size() ||
      kb_facts != kb_->facts().size()) {
    return Status::FailedPrecondition(
        "pipeline state was checkpointed against a different curated KB");
  }
  NOUS_RETURN_IF_ERROR(reader.U64(&kg_version));

  PropertyGraph graph;
  NOUS_RETURN_IF_ERROR(graph.LoadBinary(&reader));
  if (graph.NumEdges() < kb_facts) {
    return Status::DataLoss("pipeline state lacks the curated edges");
  }
  // The linker is bound to graph_, which `graph` replaces below.
  EntityLinker linker(&graph_, config_.linker);
  NOUS_RETURN_IF_ERROR(linker.LoadBinary(&reader));
  PredicateMapper mapper = mapper_;  // keeps the seeds; evidence reloads
  NOUS_RETURN_IF_ERROR(mapper.LoadBinary(&reader));
  BprModel bpr(config_.bpr);
  NOUS_RETURN_IF_ERROR(bpr.LoadBinary(&reader));
  SourceTrustTracker trust = trust_;  // keeps the priors; counts reload
  NOUS_RETURN_IF_ERROR(trust.LoadBinary(&reader));

  uint64_t docs_since = 0, adhoc = 0;
  NOUS_RETURN_IF_ERROR(reader.U64(&docs_since));
  NOUS_RETURN_IF_ERROR(reader.U64(&adhoc));
  PipelineStats stats = stats_;  // keeps this process's stage timings
  for (size_t* counter : ImageCounters(stats)) {
    uint64_t count = 0;
    NOUS_RETURN_IF_ERROR(reader.U64(&count));
    *counter = count;
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("pipeline state has trailing bytes");
  }

  kg_version_ = kg_version;
  ++load_generation_;
  graph_ = std::move(graph);
  linker_ = std::move(linker);
  mapper_ = std::move(mapper);
  bpr_ = std::move(bpr);
  trust_ = std::move(trust);
  docs_since_refresh_ = docs_since;
  adhoc_counter_.store(adhoc, std::memory_order_relaxed);
  stats_ = stats;

  // The image holds no miner: every streamed KG edge entered the
  // window, which expires only by count, so the live window is the
  // KG's last miner_window_edges streamed edges. The stage replays them
  // after the jobs queued before this load, so a bring-up's WAL replay
  // overlaps the replay.
  const size_t edges = graph_.NumEdges();
  const size_t w = config_.miner_window_edges;
  const size_t first =
      (w == 0 || edges - kb_facts <= w) ? kb_facts : edges - w;
  SubmitMiningLocked(static_cast<EdgeId>(first), /*reset=*/true);
  return Status::Ok();
}

void KgPipeline::RefreshBpr(size_t epochs) {
  NOUS_SPAN_VAR(span, "embed_refresh");
  std::vector<IdTriple> triples(graph_.NumEdges());
  for (EdgeId e = 0; e < triples.size(); ++e) {
    const EdgeRecord& rec = graph_.Edge(e);
    triples[e] = IdTriple{rec.subject, rec.predicate, rec.object};
  }
  bpr_.Train(triples, graph_.NumVertices(), graph_.predicates().size(),
             epochs);
  Metrics().refresh_edges->Set(static_cast<double>(triples.size()));
  stats_.refresh_seconds += span.End();
}

void KgPipeline::Finalize() {
  {
    WriterMutexLock lock(kg_mutex_);
    FinalizeLocked();
    ++kg_version_;
  }
  PublishSnapshot();
}

void KgPipeline::FinalizeLocked() {
  NOUS_SPAN("finalize");
  // The BPR retrain and the LDA fit only read graph_ until the join,
  // and neither reads what the other writes, so they run side by side.
  // ParallelFor's caller drains items itself, so this progresses even
  // when every worker is busy with another caller's extraction. The
  // items run under the WriterMutexLock held by Finalize(), which the
  // thread-safety analysis cannot see inside a lambda body.
  const bool train = config_.enable_link_prediction;
  VertexTopicAssignments fitted;
  auto fit = [this, train, &fitted](size_t item) NO_THREAD_SAFETY_ANALYSIS {
    if (item == 0) {
      if (train) RefreshBpr(config_.bpr.epochs);
      return;
    }
    // Fit in src/topic (pure), apply below: SetVertexTopics is a KG
    // write and stays inside the pipeline funnel (nous-layering).
    NOUS_SPAN("topic_fit");
    fitted = FitVertexTopics(graph_, config_.lda);
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(2, fit);
  } else {
    fit(0);
    fit(1);
  }
  if (train) {
    // Rescore extracted edges with the final model (dynamic-KG
    // confidence maintenance).
    const double w = config_.bpr_rescore_weight;
    graph_.ForEachEdge(
        [this, w](EdgeId e, const EdgeRecord& rec) NO_THREAD_SAFETY_ANALYSIS {
          if (rec.meta.curated) return;
          double prior =
              bpr_.Score(rec.subject, rec.predicate, rec.object);
          double rescored = rec.meta.confidence * (1.0 - w) + prior * w;
          graph_.SetEdgeConfidence(e, std::clamp(rescored, 0.0, 1.0));
        });
  }
  for (size_t i = 0; i < fitted.vertices.size(); ++i) {
    graph_.SetVertexTopics(fitted.vertices[i], std::move(fitted.topics[i]));
  }
  lda_ = std::make_unique<LdaModel>(std::move(fitted.model));
}

void KgPipeline::PublishSnapshot() {
  NOUS_SPAN_VAR(span, "snapshot_publish");
  uint64_t load_generation = 0;
  uint64_t version = 0;
  PropertyGraph graph;
  PipelineStats pipeline_stats;
  KgSnapshot::PatternFuture patterns;
  {
    // Shared lock: concurrent publishers (rare — one per committed
    // ingest) clone independently; SnapshotStore keeps the newest.
    ReaderMutexLock lock(kg_mutex_);
    load_generation = load_generation_;
    version = kg_version_;
    // O(1): shares every chunk with the live graph; later ingest
    // unshares only the chunks it touches (DESIGN.md §5.13).
    graph = graph_.Clone();
    pipeline_stats = stats();
    patterns = patterns_;
  }
  // The constructor runs the footprint estimate off the lock (chunk
  // byte caches make it O(chunks touched since the last pass)).
  auto snap = std::make_shared<const KgSnapshot>(
      load_generation, version, std::move(graph), std::move(patterns),
      std::move(pipeline_stats));
  CowFootprint footprint = snap->graph().Footprint();
  span.Attr("version", snap->version());
  span.Attr("graph_bytes", snap->approx_graph_bytes());
  span.Attr("graph_private_bytes", footprint.private_bytes);
  snapshots_.Publish(std::move(snap));
}

}  // namespace nous
