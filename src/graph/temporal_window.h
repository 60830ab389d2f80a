#ifndef NOUS_GRAPH_TEMPORAL_WINDOW_H_
#define NOUS_GRAPH_TEMPORAL_WINDOW_H_

#include <algorithm>
#include <vector>

#include "graph/property_graph.h"
#include "graph/types.h"

namespace nous {

class TemporalWindow;

/// Observer of window mutations. The streaming miner (§3.5) subscribes
/// to maintain pattern counts incrementally instead of re-enumerating.
class WindowListener {
 public:
  virtual ~WindowListener() = default;
  /// Called after the edge has entered the window.
  virtual void OnEdgeAdded(const TemporalWindow& window, EdgeId edge) = 0;
  /// Called before the edge leaves the window; it is still in the
  /// window at call time.
  virtual void OnEdgeExpiring(const TemporalWindow& window, EdgeId edge) = 0;
};

/// Sliding window over the triple stream (§3.5): a view of an
/// append-only PropertyGraph holding the pinned prefix [0,
/// num_pinned()) — in NOUS the curated facts, never expired — plus the
/// stream range [stream_begin(), stream_end()). Push admits the graph's
/// next edge; expiry, by count (`max_edges`) or by timestamp horizon,
/// advances stream_begin(). Adjacency lists are in ascending edge-id
/// order, so reading a vertex's in-window adjacency costs O(log degree
/// + window degree) and the window keeps no per-edge state.
///
/// Concurrency: externally synchronized, like the listeners it
/// notifies. In KgPipeline it belongs to the mining stage
/// (core/mining_stage.h), over a copy-on-write clone of the KG.
class TemporalWindow {
 public:
  /// Pins every edge `graph` holds now; the stream starts at the next
  /// edge it adds. `max_edges` == 0 disables count-based expiry.
  TemporalWindow(PropertyGraph* graph, size_t max_edges)
      : TemporalWindow(graph, max_edges,
                       static_cast<EdgeId>(graph->NumEdges()),
                       static_cast<EdgeId>(graph->NumEdges())) {}

  /// Pins the graph's first `num_pinned` edges; the next Push must be
  /// edge `stream_begin` (>= num_pinned).
  TemporalWindow(PropertyGraph* graph, size_t max_edges, EdgeId num_pinned,
                 EdgeId stream_begin);

  /// Makes `edge` — graph edge stream_end(), already added — the newest
  /// windowed edge: notifies the listeners, then expires by count if
  /// needed. Returns `edge`.
  EdgeId Push(EdgeId edge);

  /// Inserts `triple` into graph() by label and pushes it (for tests
  /// and benches that stream string triples).
  EdgeId Add(const TimedTriple& triple) {
    return Push(graph_->AddTriple(triple));
  }

  /// Expires every streamed edge with timestamp < `horizon`.
  size_t ExpireOlderThan(Timestamp horizon);

  void AddListener(WindowListener* listener);
  void RemoveListener(WindowListener* listener);

  /// Streamed edges in the window (the pinned prefix not counted).
  size_t size() const { return stream_end_ - stream_begin_; }
  /// Every edge in the window, pinned and streamed.
  size_t NumEdges() const { return num_pinned_ + size(); }
  EdgeId num_pinned() const { return num_pinned_; }
  EdgeId stream_begin() const { return stream_begin_; }
  EdgeId stream_end() const { return stream_end_; }

  bool Contains(EdgeId e) const {
    return e < num_pinned_ || (e >= stream_begin_ && e < stream_end_);
  }
  /// Dense index in [0, NumEdges()) of an in-window edge, until the
  /// window next changes.
  size_t Position(EdgeId e) const {
    return e < num_pinned_ ? e : num_pinned_ + (e - stream_begin_);
  }

  PropertyGraph& graph() { return *graph_; }
  const PropertyGraph& graph() const { return *graph_; }
  const EdgeRecord& Edge(EdgeId e) const { return graph_->Edge(e); }

  /// Calls fn(entry) for each entry of `adjacency` — graph()'s out- or
  /// in-list of a vertex — whose edge is in the window: the pinned run,
  /// then the stream run, each in ascending edge-id order.
  template <typename Fn>
  void ForEachInWindow(const std::vector<AdjEntry>& adjacency,
                       Fn&& fn) const {
    auto by_edge = [](const AdjEntry& a, EdgeId id) { return a.edge < id; };
    auto it = adjacency.begin();
    for (; it != adjacency.end() && it->edge < num_pinned_; ++it) fn(*it);
    it = std::lower_bound(it, adjacency.end(), stream_begin_, by_edge);
    for (; it != adjacency.end() && it->edge < stream_end_; ++it) fn(*it);
  }

  /// Calls fn(edge_id, record) for every in-window edge, in id order.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (EdgeId e = 0; e < num_pinned_; ++e) fn(e, graph_->Edge(e));
    for (EdgeId e = stream_begin_; e < stream_end_; ++e) {
      fn(e, graph_->Edge(e));
    }
  }

 private:
  void ExpireOldest();

  PropertyGraph* graph_;  // not owned
  size_t max_edges_;
  EdgeId num_pinned_;
  EdgeId stream_begin_;
  EdgeId stream_end_;
  std::vector<WindowListener*> listeners_;
};

}  // namespace nous

#endif  // NOUS_GRAPH_TEMPORAL_WINDOW_H_
