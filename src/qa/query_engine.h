#ifndef NOUS_QA_QUERY_ENGINE_H_
#define NOUS_QA_QUERY_ENGINE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/property_graph.h"
#include "mining/streaming_miner.h"
#include "qa/path_search.h"
#include "qa/query.h"

namespace nous {

/// One rendered fact in an entity summary, with provenance — the rows
/// behind Figure 6's "Tell me about DJI" view.
struct FactLine {
  std::string subject;
  std::string predicate;
  std::string object;
  double confidence = 1.0;
  bool curated = false;
  std::string source;
  Timestamp timestamp = 0;
};

/// A discovered pattern rendered against the KG's dictionaries (the
/// miner's window shares the KG's id space).
struct RenderedPattern {
  std::string description;
  size_t support = 0;
  size_t embeddings = 0;
};

/// The miner's closed frequent patterns, in order, rendered with
/// `graph`'s dictionaries — what snapshots serve and what the locked
/// engine renders.
std::vector<RenderedPattern> RenderClosedPatterns(
    const StreamingMiner& miner, const PropertyGraph& graph);

/// Structured answer; which fields are filled depends on `kind`.
struct Answer {
  QueryKind kind = QueryKind::kEntity;
  /// kEntity: facts about the entity; kTrending: recent facts of hot
  /// entities.
  std::vector<FactLine> facts;
  /// kTrending / kPattern: discovered frequent patterns.
  std::vector<RenderedPattern> patterns;
  /// kTrending: entities ranked by recent-window activity.
  std::vector<std::pair<std::string, size_t>> hot_entities;
  /// kRelationship / kSearch: explanation paths.
  std::vector<PathResult> paths;
  /// Number of distinct sources backing the paths (multi-source
  /// answers, §1 contribution 3).
  size_t distinct_sources = 0;

  /// Human-readable rendering for the CLI demos.
  std::string Render(const PropertyGraph& graph) const;
};

struct QueryEngineConfig {
  PathSearchConfig path_search;
  /// Number of hot entities / facts listed for trending queries.
  size_t trending_limit = 10;
  /// Only edges with timestamp >= newest - horizon count as "recent"
  /// for trending. 0 = all time.
  Timestamp trending_horizon = 90;
  /// Rank trending entities by *rising* activity (recent window minus
  /// the preceding window) instead of raw recent counts — surfaces
  /// newly emerging entities rather than perennially popular ones.
  bool trending_rising = true;
};

/// Executes the five query classes against the dynamic KG and the
/// streaming miner's pattern state. The miner is optional (pattern and
/// trending-pattern sections are empty without it); its pattern ids
/// are KG predicate and type ids, rendered with `graph`'s dictionaries.
class QueryEngine {
 public:
  QueryEngine(const PropertyGraph* graph, const StreamingMiner* miner,
              QueryEngineConfig config = {});

  /// Snapshot-serving variant: patterns were already rendered at
  /// snapshot publish time (core/snapshot.h), so no miner or window
  /// graph is needed — everything the engine reads is immutable.
  /// Taken by reference (not pointer) so the overload never competes
  /// with the miner variant at nullptr call sites; `patterns` must
  /// outlive the engine.
  QueryEngine(const PropertyGraph* graph,
              const std::vector<RenderedPattern>& patterns,
              QueryEngineConfig config = {});

  Result<Answer> Execute(const Query& query) const;

  /// Parse + execute.
  Result<Answer> ExecuteText(const std::string& text) const;

 private:
  Answer ExecuteTrending() const;
  Result<Answer> ExecuteEntity(const Query& query) const;
  Result<Answer> ExecuteRelationship(const Query& query,
                                     QueryKind kind) const;
  Answer ExecutePattern() const;

  Result<VertexId> ResolveEntity(const std::string& name) const;
  FactLine MakeFactLine(EdgeId edge) const;
  std::vector<RenderedPattern> RenderMinerPatterns() const;

  const PropertyGraph* graph_;
  const StreamingMiner* miner_;  // may be null
  /// Pre-rendered patterns (snapshot mode); exclusive with miner_.
  const std::vector<RenderedPattern>* prerendered_patterns_ = nullptr;
  QueryEngineConfig config_;
};

}  // namespace nous

#endif  // NOUS_QA_QUERY_ENGINE_H_
