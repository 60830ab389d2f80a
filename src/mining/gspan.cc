#include "mining/gspan.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "mining/subgraph_enum.h"

namespace nous {

namespace {

struct LevelEntry {
  Pattern pattern;
  std::vector<std::unordered_map<VertexId, uint32_t>> position_counts;
  std::vector<std::vector<EdgeId>> embeddings;

  size_t Support() const {
    if (position_counts.empty() || embeddings.empty()) return 0;
    size_t support = position_counts[0].size();
    for (const auto& counts : position_counts) {
      support = std::min(support, counts.size());
    }
    return support;
  }
};

/// One level's patterns, with a lookup index.
struct Level {
  std::vector<LevelEntry> entries;
  std::unordered_map<Pattern, size_t, PatternHash> index;
};

void Accumulate(const PropertyGraph& graph, const MinerConfig& config,
                const std::vector<EdgeId>& subset,
                Pattern::Canonicalizer* canonicalizer, Level* level,
                size_t* total) {
  CanonicalizeEdgeSet(graph, subset, config.use_vertex_types,
                      canonicalizer);
  const Pattern& p = canonicalizer->pattern();
  auto [it, inserted] = level->index.try_emplace(p, level->entries.size());
  if (inserted) {
    LevelEntry fresh;
    fresh.pattern = p;
    fresh.position_counts.resize(p.num_vertices());
    level->entries.push_back(std::move(fresh));
  }
  LevelEntry& entry = level->entries[it->second];
  const std::vector<uint64_t>& assignment =
      canonicalizer->position_to_vertex();
  for (size_t pos = 0; pos < assignment.size(); ++pos) {
    entry.position_counts[pos][static_cast<VertexId>(assignment[pos])]++;
  }
  entry.embeddings.push_back(subset);
  ++(*total);
}

}  // namespace

std::vector<PatternStats> MineGspan(const TemporalWindow& window,
                                    const MinerConfig& config,
                                    size_t* total_embeddings) {
  const PropertyGraph& graph = window.graph();
  size_t total = 0;
  Pattern::Canonicalizer canonicalizer;
  // Level 1: every in-window edge.
  Level level;
  window.ForEachEdge([&](EdgeId e, const EdgeRecord&) {
    Accumulate(graph, config, {e}, &canonicalizer, &level, &total);
  });

  std::vector<PatternStats> results;
  auto harvest = [&results, &config](const Level& lv) {
    for (const LevelEntry& entry : lv.entries) {
      size_t support = entry.Support();
      if (support < config.min_support) continue;
      PatternStats stats;
      stats.pattern = entry.pattern;
      stats.embeddings = entry.embeddings.size();
      stats.support = support;
      results.push_back(std::move(stats));
    }
  };
  harvest(level);

  for (size_t size = 2; size <= config.max_edges; ++size) {
    Level next;
    std::set<std::vector<EdgeId>> seen;
    for (const LevelEntry& entry : level.entries) {
      if (entry.Support() < config.min_support) continue;  // prune
      for (const std::vector<EdgeId>& emb : entry.embeddings) {
        // Extend by any adjacent in-window edge.
        for (EdgeId in_set : emb) {
          const EdgeRecord& rec = graph.Edge(in_set);
          for (VertexId v : {rec.subject, rec.object}) {
            auto try_extend = [&](EdgeId ext) {
              if (std::find(emb.begin(), emb.end(), ext) != emb.end()) {
                return;
              }
              std::vector<EdgeId> grown = emb;
              grown.push_back(ext);
              std::sort(grown.begin(), grown.end());
              if (!seen.insert(grown).second) return;
              Accumulate(graph, config, grown, &canonicalizer, &next,
                         &total);
            };
            auto extend = [&](const AdjEntry& a) { try_extend(a.edge); };
            window.ForEachInWindow(graph.OutEdges(v), extend);
            window.ForEachInWindow(graph.InEdges(v), extend);
          }
        }
      }
    }
    harvest(next);
    level = std::move(next);
  }

  SortBySupport(&results);
  if (total_embeddings != nullptr) *total_embeddings = total;
  return results;
}

}  // namespace nous
