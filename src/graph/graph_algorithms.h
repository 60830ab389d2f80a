#ifndef NOUS_GRAPH_GRAPH_ALGORITHMS_H_
#define NOUS_GRAPH_GRAPH_ALGORITHMS_H_

#include <cstddef>
#include <vector>

#include "graph/property_graph.h"

namespace nous {

/// Weakly connected components over all edges. Returns the component
/// id per vertex (dense ids, 0-based); isolated vertices get their own
/// component. `num_components` (optional) receives the count.
std::vector<uint32_t> WeaklyConnectedComponents(
    const PropertyGraph& graph, size_t* num_components = nullptr);

struct PageRankConfig {
  double damping = 0.85;
  size_t max_iterations = 50;
  /// L1 convergence threshold.
  double tolerance = 1e-8;
};

/// PageRank by power iteration over all edges (dangling mass
/// redistributed uniformly). An entity-importance signal for ranking
/// and for the demo's quality dashboards.
std::vector<double> PageRank(const PropertyGraph& graph,
                             const PageRankConfig& config = {});

/// The `radius`-hop ego network around `center` (undirected
/// reachability): returns the contained vertices, center first,
/// breadth-first order.
std::vector<VertexId> EgoNetwork(const PropertyGraph& graph,
                                 VertexId center, size_t radius);

}  // namespace nous

#endif  // NOUS_GRAPH_GRAPH_ALGORITHMS_H_
