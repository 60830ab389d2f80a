#include "mining/arabesque_sim.h"

#include <memory>

#include "mining/subgraph_enum.h"

namespace nous {

std::vector<PatternStats> MineArabesqueSim(const TemporalWindow& window,
                                           const MinerConfig& config,
                                           size_t* total_embeddings) {
  SupportCounter counter(&window.graph(), config.use_vertex_types);
  window.ForEachEdge([&](EdgeId anchor, const EdgeRecord&) {
    EnumerateConnectedSubsets(
        window, anchor, config, /*older_only=*/true,
        [&counter](const std::vector<EdgeId>& subset) {
          counter.AddEmbedding(subset);
        });
  });
  if (total_embeddings != nullptr) {
    *total_embeddings = counter.total_embeddings();
  }
  return counter.Results(config.min_support);
}

std::vector<PatternStats> MineArabesqueSimParallel(
    const TemporalWindow& window, const MinerConfig& config,
    ThreadPool* pool, size_t* total_embeddings) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    return MineArabesqueSim(window, config, total_embeddings);
  }
  const PropertyGraph& graph = window.graph();
  std::vector<EdgeId> anchors;
  window.ForEachEdge(
      [&anchors](EdgeId e, const EdgeRecord&) { anchors.push_back(e); });
  const size_t shards = pool->num_threads();
  std::vector<std::unique_ptr<SupportCounter>> counters;
  counters.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    counters.push_back(std::make_unique<SupportCounter>(
        &graph, config.use_vertex_types));
  }
  for (size_t s = 0; s < shards; ++s) {
    pool->Submit([s, shards, &anchors, &window, &config, &counters] {
      SupportCounter* counter = counters[s].get();
      for (size_t i = s; i < anchors.size(); i += shards) {
        EnumerateConnectedSubsets(
            window, anchors[i], config, /*older_only=*/true,
            [counter](const std::vector<EdgeId>& subset) {
              counter->AddEmbedding(subset);
            });
      }
    });
  }
  pool->Wait();
  SupportCounter merged(&graph, config.use_vertex_types);
  for (const auto& counter : counters) merged.Merge(*counter);
  if (total_embeddings != nullptr) {
    *total_embeddings = merged.total_embeddings();
  }
  return merged.Results(config.min_support);
}

}  // namespace nous
