#ifndef NOUS_PERFBENCH_FIXTURE_H_
#define NOUS_PERFBENCH_FIXTURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/nous.h"
#include "corpus/article_generator.h"
#include "corpus/world_model.h"
#include "kb/curated_kb.h"

namespace nous {
namespace perfbench {

enum class Workload { kStreamBuild, kQueryMix };

const char* WorkloadName(Workload workload);
/// Parses "stream_build" / "query_mix".
bool ParseWorkload(const std::string& text, Workload* out);

/// Everything NOUS receives in one run, derived from the run seed
/// alone: a seeded drone world, the curated KB built over it, and the
/// date-ordered article stream rendered from its events. `base` builds
/// the prepared durable state; `timed` feeds the measured phase.
struct Fixture {
  WorldModel world;
  CuratedKb kb;
  std::vector<Article> base;
  std::vector<Article> timed;
};

/// Articles per IngestBatch when building base states (the
/// IngestStream unit).
constexpr size_t kBaseBatch = 64;

/// Closed-loop reader threads of query_mix; stream_build's probe asks
/// all their lists from one thread.
constexpr size_t kReaders = 2;

/// Sizes and knobs of one workload; fixed per workload, never per run.
struct WorkloadSpec {
  Workload workload = Workload::kStreamBuild;
  size_t world_events = 0;
  /// Articles checkpointed into the base state, then articles left
  /// behind it as a WAL tail of kBaseBatch-article batches.
  size_t base_checkpointed = 0;
  size_t base_tail = 0;
  /// Finalize() the base state before its WAL tail (query_mix).
  bool finalize_base = false;
  /// stream_build: articles per pass over the timed stream.
  size_t pass_docs = 0;
  /// Articles per IngestBatch in the timed phase.
  size_t commit_batch = 64;
  size_t pipeline_threads = 1;
  /// Bring-ups per run; setup_s is their median.
  size_t bringups = 3;
  /// stream_build: Checkpoint() after every this many batches.
  size_t checkpoint_every = 0;
  /// query_mix's open-loop writer: commits/s and articles per commit.
  double writer_hz = 0;
  size_t writer_batch = 0;
  /// Seconds the served queries and the writer run before the timed
  /// phase, unsampled.
  double warmup_seconds = 0;
  /// stream_build: rounds of the query probe after each bring-up.
  size_t probe_rounds = 0;
};

/// The spec for `workload` on a host with `nproc` cores.
WorkloadSpec SpecFor(Workload workload, size_t nproc);

/// Builds the run's inputs. Deterministic in (spec, seed).
Fixture MakeFixture(const WorkloadSpec& spec, uint64_t seed);

/// Nous options for the spec, durable in `dir` with interval fsync,
/// unsharded.
Nous::Options OptionsFor(const WorkloadSpec& spec, const std::string& dir);

/// Removes every file a durable NOUS directory may hold, so Recover()
/// never replays leftovers from an earlier run, and creates `dir`.
void WipeDurableDir(const std::string& dir);

/// Copies the WAL and checkpoint files of `from` into a wiped `to`.
void CopyDurableDir(const std::string& from, const std::string& to);

/// Bytes of the fused KG (PropertyGraph::SaveBinary): ids, slots,
/// adjacency order. Unlike SaveState it holds no wall-clock values.
std::string GraphBytes(const PropertyGraph& graph);

}  // namespace perfbench
}  // namespace nous

#endif  // NOUS_PERFBENCH_FIXTURE_H_
