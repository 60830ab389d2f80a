#include "graph/temporal_window.h"

#include <algorithm>

#include "common/logging.h"

namespace nous {

TemporalWindow::TemporalWindow(PropertyGraph* graph, size_t max_edges,
                               EdgeId num_pinned, EdgeId stream_begin)
    : graph_(graph),
      max_edges_(max_edges),
      num_pinned_(num_pinned),
      stream_begin_(stream_begin),
      stream_end_(stream_begin) {
  NOUS_CHECK(num_pinned <= stream_begin && num_pinned <= graph->NumEdges());
}

EdgeId TemporalWindow::Push(EdgeId edge) {
  NOUS_CHECK(edge == stream_end_ && edge < graph_->NumEdges())
      << "window push of edge " << edge << ", expected " << stream_end_;
  ++stream_end_;
  for (WindowListener* l : listeners_) l->OnEdgeAdded(*this, edge);
  while (max_edges_ != 0 && size() > max_edges_) ExpireOldest();
  return edge;
}

size_t TemporalWindow::ExpireOlderThan(Timestamp horizon) {
  size_t expired = 0;
  while (size() != 0 &&
         graph_->Edge(stream_begin_).meta.timestamp < horizon) {
    ExpireOldest();
    ++expired;
  }
  return expired;
}

void TemporalWindow::ExpireOldest() {
  for (WindowListener* l : listeners_) l->OnEdgeExpiring(*this, stream_begin_);
  ++stream_begin_;
}

void TemporalWindow::AddListener(WindowListener* listener) {
  listeners_.push_back(listener);
}

void TemporalWindow::RemoveListener(WindowListener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

}  // namespace nous
