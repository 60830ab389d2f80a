#ifndef NOUS_MINING_GSPAN_H_
#define NOUS_MINING_GSPAN_H_

#include <vector>

#include "graph/temporal_window.h"
#include "mining/miner_config.h"

namespace nous {

/// gSpan-style pattern-growth baseline (§3.5's transactional
/// contrast): mines the window level by level, extending only
/// the embeddings of currently frequent patterns (anti-monotone MNI
/// pruning), recomputed from scratch per window. Faster than the
/// Arabesque-style full enumeration when labels are selective, but
/// still pays the full window cost every slide.
///
/// Returns patterns with support >= config.min_support, in
/// SortBySupport order. `total_embeddings`, when non-null, receives
/// the number of embeddings materialized across all levels.
std::vector<PatternStats> MineGspan(const TemporalWindow& window,
                                    const MinerConfig& config,
                                    size_t* total_embeddings = nullptr);

}  // namespace nous

#endif  // NOUS_MINING_GSPAN_H_
