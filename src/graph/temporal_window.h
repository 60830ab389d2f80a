#ifndef NOUS_GRAPH_TEMPORAL_WINDOW_H_
#define NOUS_GRAPH_TEMPORAL_WINDOW_H_

#include <deque>
#include <vector>

#include "graph/property_graph.h"
#include "graph/types.h"

namespace nous {

/// Observer of window mutations. The streaming miner (§3.5) subscribes
/// to maintain pattern counts incrementally instead of re-enumerating.
class WindowListener {
 public:
  virtual ~WindowListener() = default;
  /// Called after the edge is live in the graph.
  virtual void OnEdgeAdded(const PropertyGraph& graph, EdgeId edge) = 0;
  /// Called before the edge is removed from the graph; the record and
  /// adjacency are still intact at call time.
  virtual void OnEdgeExpiring(const PropertyGraph& graph, EdgeId edge) = 0;
};

/// Sliding window over the triple stream (§3.5): retains the most
/// recent edges in insertion order, expiring the oldest either by count
/// (`max_edges`) or by timestamp horizon. The wrapped graph holds the
/// union of the curated KB (never expired; inserted directly into the
/// graph) and the windowed extracted stream. Expiry reads only the
/// edges' timestamps.
///
/// Concurrency: externally synchronized, like the listeners it
/// notifies. KgPipeline mutates it (and the wrapped window graph)
/// only under the exclusive side of `kg_mutex()` (`window_` is
/// GUARDED_BY in pipeline.h).
class TemporalWindow {
 public:
  /// `max_edges` == 0 disables count-based expiry.
  TemporalWindow(PropertyGraph* graph, size_t max_edges);

  /// Makes `edge`, already live in graph(), the newest windowed edge:
  /// notifies the listeners, then expires by count if needed. Returns
  /// `edge`.
  EdgeId Push(EdgeId edge);

  /// Inserts `triple` into graph() by label and pushes it (for tests
  /// and benches that stream string triples).
  EdgeId Add(const TimedTriple& triple) {
    return Push(graph_->AddTriple(triple));
  }

  /// Expires every windowed edge with timestamp < `horizon`.
  size_t ExpireOlderThan(Timestamp horizon);

  void AddListener(WindowListener* listener);
  void RemoveListener(WindowListener* listener);

  size_t size() const { return window_.size(); }
  size_t max_edges() const { return max_edges_; }

  /// Oldest retained timestamp; 0 when empty.
  Timestamp OldestTimestamp() const;
  Timestamp NewestTimestamp() const;

  PropertyGraph& graph() { return *graph_; }
  const PropertyGraph& graph() const { return *graph_; }

  /// Edge ids currently in the window, oldest first.
  const std::deque<EdgeId>& edges() const { return window_; }

 private:
  void ExpireOldest();

  PropertyGraph* graph_;  // not owned
  size_t max_edges_;
  std::deque<EdgeId> window_;
  std::vector<WindowListener*> listeners_;
};

}  // namespace nous

#endif  // NOUS_GRAPH_TEMPORAL_WINDOW_H_
