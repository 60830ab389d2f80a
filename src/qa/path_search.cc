#include "qa/path_search.h"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topic/divergence.h"

namespace nous {

double ComputePathCoherence(const PropertyGraph& graph,
                            const std::vector<VertexId>& vertices) {
  if (vertices.size() < 2) return 0.0;
  double total = 0;
  for (size_t i = 0; i + 1 < vertices.size(); ++i) {
    total += JsDivergence(graph.VertexTopics(vertices[i]),
                          graph.VertexTopics(vertices[i + 1]));
  }
  return total / static_cast<double>(vertices.size() - 1);
}

std::vector<PathResult> PathSearch::FindPaths(
    VertexId source, VertexId target, PredicateId relationship) const {
  NOUS_SPAN("path_search");
  constexpr double kLn2 = 0.6931471805599453;
  std::vector<PathResult> complete;
  if (source >= graph_->NumVertices() || target >= graph_->NumVertices() ||
      source == target) {
    return complete;
  }
  size_t total_expanded = 0;
  const std::vector<double>& target_topics = graph_->VertexTopics(target);

  auto divergence_to_target = [&](VertexId v) {
    if (!config_.use_topic_guidance) return 0.0;
    return JsDivergence(graph_->VertexTopics(v), target_topics);
  };
  // One-step look-ahead: best divergence among v's neighbors. Only
  // edges the expansion step would actually traverse count: an edge
  // below min_edge_confidence must not steer the beam toward a
  // neighbor the search then refuses to enter, and it does not use up
  // the `seen` budget either.
  auto lookahead = [&](VertexId v) {
    if (!config_.use_topic_guidance) return 0.0;
    double best = kLn2;
    size_t seen = 0;
    auto scan = [&](const std::vector<AdjEntry>& adj) {
      for (const AdjEntry& a : adj) {
        if (seen >= config_.max_expansion) return;
        if (graph_->Edge(a.edge).meta.confidence <
            config_.min_edge_confidence) {
          continue;  // not viable — invisible to guidance
        }
        ++seen;
        if (a.neighbor == target) {
          best = 0.0;
          return;
        }
        best = std::min(best, divergence_to_target(a.neighbor));
      }
    };
    scan(graph_->OutEdges(v));
    if (best > 0) scan(graph_->InEdges(v));
    return best;
  };

  std::vector<PartialPath> beam;
  beam.push_back(PartialPath{{source}, {}, 0.0});
  std::set<std::pair<std::vector<VertexId>, std::vector<EdgeId>>> emitted;

  // With a final-edge constraint (the default constraint mode), only
  // edges carrying the constrained predicate can close a path — so
  // completions are found by a closing scan of the tail's adjacency
  // for such edges into the target, and the general expansion below
  // skips the target.
  const bool final_edge_constraint =
      relationship != kInvalidPredicate && !config_.constraint_anywhere;

  for (size_t hop = 0; hop < config_.max_hops && !beam.empty(); ++hop) {
    std::vector<PartialPath> successors;
    for (const PartialPath& path : beam) {
      VertexId tail = path.vertices.back();

      // Emits path + closing edge `a` (to the target) if new.
      auto emit_complete = [&](const AdjEntry& a) {
        PathResult result;
        result.vertices = path.vertices;
        result.vertices.push_back(target);
        result.edges = path.edges;
        result.edges.push_back(a.edge);
        result.coherence = ComputePathCoherence(*graph_, result.vertices);
        std::set<SourceId> sources;
        for (EdgeId e : result.edges) {
          sources.insert(graph_->Edge(e).meta.source);
        }
        result.sources.assign(sources.begin(), sources.end());
        auto key = std::make_pair(result.vertices, result.edges);
        if (emitted.insert(key).second) {
          complete.push_back(std::move(result));
        }
      };

      if (final_edge_constraint) {
        auto close_with = [&](const std::vector<AdjEntry>& adj) {
          for (const AdjEntry& a : adj) {
            if (a.neighbor != target || a.predicate != relationship) {
              continue;
            }
            if (graph_->Edge(a.edge).meta.confidence <
                config_.min_edge_confidence) {
              continue;  // untrusted fact
            }
            emit_complete(a);
          }
        };
        close_with(graph_->OutEdges(tail));
        close_with(graph_->InEdges(tail));
      }

      size_t expanded = 0;
      auto expand = [&](const std::vector<AdjEntry>& adj) {
        for (const AdjEntry& a : adj) {
          if (expanded >= config_.max_expansion) return;
          VertexId next = a.neighbor;
          if (final_edge_constraint && next == target) {
            continue;  // completions handled by the closing scan above
          }
          if (std::find(path.vertices.begin(), path.vertices.end(),
                        next) != path.vertices.end()) {
            continue;  // simple paths only
          }
          if (graph_->Edge(a.edge).meta.confidence <
              config_.min_edge_confidence) {
            continue;  // untrusted fact
          }
          ++expanded;
          if (next == target) {
            // Relationship constraint: satisfied by any edge when
            // constraint_anywhere is set (unconstrained otherwise).
            bool constraint_ok = relationship == kInvalidPredicate;
            if (!constraint_ok) {
              std::vector<EdgeId> full_edges = path.edges;
              full_edges.push_back(a.edge);
              for (EdgeId e : full_edges) {
                if (graph_->Edge(e).predicate == relationship) {
                  constraint_ok = true;
                  break;
                }
              }
            }
            if (!constraint_ok) continue;
            emit_complete(a);
            continue;
          }
          PartialPath grown = path;
          grown.vertices.push_back(next);
          grown.edges.push_back(a.edge);
          grown.guide_score = divergence_to_target(next) +
                              config_.lookahead_weight * lookahead(next);
          successors.push_back(std::move(grown));
        }
      };
      expand(graph_->OutEdges(tail));
      expand(graph_->InEdges(tail));
      total_expanded += expanded;
    }
    // Stable: successors with equal guide scores keep their discovery
    // order, which the graph's adjacency order defines.
    std::stable_sort(successors.begin(), successors.end(),
                     [](const PartialPath& a, const PartialPath& b) {
                       return a.guide_score < b.guide_score;
                     });
    if (successors.size() > config_.beam_width) {
      successors.resize(config_.beam_width);
    }
    beam = std::move(successors);
  }

  // Coherence, then shortest, then lexicographic (vertices, edges):
  // equal-coherence paths would otherwise land in std::sort's
  // unspecified order, so top-k truncation could differ across
  // platforms.
  std::sort(complete.begin(), complete.end(),
            [](const PathResult& a, const PathResult& b) {
              if (a.coherence != b.coherence) {
                return a.coherence < b.coherence;
              }
              if (a.vertices.size() != b.vertices.size()) {
                return a.vertices.size() < b.vertices.size();
              }
              if (a.vertices != b.vertices) return a.vertices < b.vertices;
              return a.edges < b.edges;
            });
  if (complete.size() > config_.top_k) complete.resize(config_.top_k);
  static Counter* expanded_total = MetricsRegistry::Global().GetCounter(
      "nous_path_search_expanded_total",
      "Successor edges expanded during beam search");
  static Counter* paths_total = MetricsRegistry::Global().GetCounter(
      "nous_path_search_paths_total", "Complete paths returned");
  expanded_total->Increment(total_expanded);
  paths_total->Increment(complete.size());
  return complete;
}

}  // namespace nous
