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
  double extract_seconds = 0;
  double link_seconds = 0;
  double map_seconds = 0;
  /// Per-triple confidence scoring only; periodic BPR retraining is
  /// refresh_seconds.
  double score_seconds = 0;
  double refresh_seconds = 0;
  double mine_seconds = 0;

  std::string ToString() const;
};

}  // namespace nous

#endif  // NOUS_CORE_PIPELINE_STATS_H_
