#ifndef NOUS_CORE_PIPELINE_STATS_H_
#define NOUS_CORE_PIPELINE_STATS_H_

#include <cstddef>
#include <string>

namespace nous {

/// Counters for every stage, reported by bench_pipeline (E8). Lives in
/// its own header (not pipeline.h) because published KG snapshots
/// carry a copy (core/snapshot.h) and the pipeline owns the store —
/// including pipeline.h from snapshot.h would be circular.
struct PipelineStats {
  size_t documents = 0;
  size_t extractions = 0;
  size_t accepted_triples = 0;
  size_t deduped_triples = 0;
  size_t dropped_low_confidence = 0;
  size_t dropped_unmapped = 0;
  size_t mapped_triples = 0;
  size_t unmapped_kept = 0;
  size_t linked_to_existing = 0;
  size_t new_entities = 0;
  size_t ds_alignments = 0;
  size_t retractions = 0;
  /// Wall-clock stage timings of this process; never persisted
  /// (KgPipeline::SaveState), so they restart at zero after a load.
  /// Each is the sum of its stage span's End() readings, the same
  /// readings its nous_<stage>_latency_seconds histogram observes
  /// (DESIGN.md §5.7 "One clock for ingest").
  double extract_seconds = 0;  // span "extraction"
  double link_seconds = 0;     // span "linking"
  double map_seconds = 0;      // span "mapping"
  /// Per-triple confidence scoring only (span "confidence"); BPR
  /// training is refresh_seconds.
  double score_seconds = 0;
  /// Span "embed_refresh": the curated bootstrap's Train plus every
  /// periodic and Finalize refresh.
  double refresh_seconds = 0;
  /// Span "mining": window insert plus notify and expiry per accepted
  /// triple, on the mining stage (core/mining_stage.h); counts the jobs
  /// the stage has finished, so it can trail the other fields. Window
  /// resets (the curated bootstrap, LoadState's replay) are not timed.
  double mine_seconds = 0;
  /// Span "extract_wait": the committing thread waiting for a pool
  /// helper to finish the next document in arrival order.
  double extract_wait_seconds = 0;
  /// Documents the committing thread extracted itself because no pool
  /// helper had claimed them (all of them without a pool). Like the
  /// timings it describes this process's scheduling and is never
  /// persisted.
  size_t inline_extractions = 0;

  std::string ToString() const;
};

}  // namespace nous

#endif  // NOUS_CORE_PIPELINE_STATS_H_
