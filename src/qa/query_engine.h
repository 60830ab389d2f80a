#ifndef NOUS_QA_QUERY_ENGINE_H_
#define NOUS_QA_QUERY_ENGINE_H_

#include <memory>
#include <span>
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
/// `graph`'s dictionaries — what snapshots serve. Call under the
/// pipeline's reader lock when `miner` and `graph` are live.
std::vector<RenderedPattern> RenderClosedPatterns(
    const StreamingMiner& miner, const PropertyGraph& graph);

/// A KG version's closed frequent patterns, rendered by the mining
/// stage (core/mining_stage.h) once it has mined that version. Versions
/// that add no edge share their predecessor's set; engines and the
/// answers they return share it too, so no answer copies it.
struct RenderedPatternSet {
  std::vector<RenderedPattern> patterns;
};

/// Structured answer; which fields are filled depends on `kind`.
struct Answer {
  QueryKind kind = QueryKind::kEntity;
  /// kEntity: facts about the entity; kTrending: recent facts of hot
  /// entities.
  std::vector<FactLine> facts;
  /// kTrending / kPattern: the discovered frequent patterns, shared
  /// with the engine that answered (null: none). Read via patterns().
  std::shared_ptr<const RenderedPatternSet> pattern_set;
  /// kTrending: entities ranked by recent-window activity.
  std::vector<std::pair<std::string, size_t>> hot_entities;
  /// kRelationship / kSearch: explanation paths.
  std::vector<PathResult> paths;
  /// Number of distinct sources backing the paths (multi-source
  /// answers, §1 contribution 3).
  size_t distinct_sources = 0;

  /// The patterns of pattern_set; empty when it is null.
  std::span<const RenderedPattern> patterns() const {
    if (pattern_set == nullptr) return {};
    return pattern_set->patterns;
  }

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

/// Whether answers of `kind` read the miner's patterns (pattern and
/// trending queries); the engine reads them for no other class.
inline bool ReadsPatterns(QueryKind kind) {
  return kind == QueryKind::kPattern || kind == QueryKind::kTrending;
}

/// Executes the five query classes against the dynamic KG and the
/// miner's closed patterns, rendered beforehand (at snapshot publish,
/// core/snapshot.h, or by RenderClosedPatterns), so everything the
/// engine reads is immutable. Pattern and trending answers share the
/// engine's pattern set; a null set means no patterns (pattern and
/// trending-pattern sections are then empty).
class QueryEngine {
 public:
  QueryEngine(const PropertyGraph* graph,
              std::shared_ptr<const RenderedPatternSet> patterns,
              QueryEngineConfig config = {});

  /// Copies `patterns` once into a set the engine's answers share.
  QueryEngine(const PropertyGraph* graph,
              std::span<const RenderedPattern> patterns,
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

  const PropertyGraph* graph_;
  std::shared_ptr<const RenderedPatternSet> patterns_;
  QueryEngineConfig config_;
};

}  // namespace nous

#endif  // NOUS_QA_QUERY_ENGINE_H_
