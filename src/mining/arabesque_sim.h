#ifndef NOUS_MINING_ARABESQUE_SIM_H_
#define NOUS_MINING_ARABESQUE_SIM_H_

#include <vector>

#include "common/thread_pool.h"
#include "graph/temporal_window.h"
#include "mining/miner_config.h"

namespace nous {

/// Arabesque-style baseline (§3.5's comparison system): an
/// embedding-centric miner that enumerates EVERY connected embedding
/// up to max_edges in the current window and aggregates pattern
/// counts afterwards — no frequency pruning during enumeration and no
/// state carried between windows. Each window slide pays the full
/// re-enumeration cost; the NOUS streaming miner's speedup claim is
/// measured against this.
///
/// Returns patterns with support >= config.min_support, in
/// SortBySupport order. `total_embeddings`, when non-null, receives
/// the number of embeddings enumerated (the work measure).
std::vector<PatternStats> MineArabesqueSim(const TemporalWindow& window,
                                           const MinerConfig& config,
                                           size_t* total_embeddings = nullptr);

/// Parallel variant: shards the anchor edges across `pool`'s workers
/// (each with a private SupportCounter, merged at the end) — the
/// single-node analogue of Arabesque's distributed embedding
/// exploration. Results are identical to the serial variant.
std::vector<PatternStats> MineArabesqueSimParallel(
    const TemporalWindow& window, const MinerConfig& config,
    ThreadPool* pool, size_t* total_embeddings = nullptr);

}  // namespace nous

#endif  // NOUS_MINING_ARABESQUE_SIM_H_
