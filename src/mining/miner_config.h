#ifndef NOUS_MINING_MINER_CONFIG_H_
#define NOUS_MINING_MINER_CONFIG_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "mining/pattern.h"

namespace nous {

/// Shared knobs for the streaming miner and both baselines, so
/// result-equivalence comparisons are apples-to-apples.
struct MinerConfig {
  /// Maximum pattern size in edges (tiny by design; canonicalization
  /// is factorial in this).
  size_t max_edges = 2;
  /// MNI support threshold for "frequent".
  size_t min_support = 5;
  /// Label pattern vertices with their KG types (typed patterns, as in
  /// the paper's Figure 7) instead of structure-only mining.
  bool use_vertex_types = false;
};

/// A reported pattern with its counts.
struct PatternStats {
  Pattern pattern;
  size_t embeddings = 0;
  /// MNI support: min over pattern positions of distinct graph
  /// vertices observed in that position.
  size_t support = 0;
};

/// The one result order shared by the streaming miner and both
/// baselines: support descending, ties by canonical pattern. It
/// depends only on the reported set, never on enumeration or window
/// history, so a restored miner lists its patterns as the live one
/// does.
inline void SortBySupport(std::vector<PatternStats>* stats) {
  std::sort(stats->begin(), stats->end(),
            [](const PatternStats& a, const PatternStats& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.pattern < b.pattern;
            });
}

}  // namespace nous

#endif  // NOUS_MINING_MINER_CONFIG_H_
