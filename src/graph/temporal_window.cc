#include "graph/temporal_window.h"

#include <algorithm>

#include "common/logging.h"

namespace nous {

TemporalWindow::TemporalWindow(PropertyGraph* graph, size_t max_edges)
    : graph_(graph), max_edges_(max_edges) {}

EdgeId TemporalWindow::Push(EdgeId edge) {
  window_.push_back(edge);
  for (WindowListener* l : listeners_) l->OnEdgeAdded(*graph_, edge);
  while (max_edges_ != 0 && window_.size() > max_edges_) ExpireOldest();
  return edge;
}

size_t TemporalWindow::ExpireOlderThan(Timestamp horizon) {
  size_t expired = 0;
  while (!window_.empty() &&
         graph_->Edge(window_.front()).meta.timestamp < horizon) {
    ExpireOldest();
    ++expired;
  }
  return expired;
}

void TemporalWindow::ExpireOldest() {
  EdgeId e = window_.front();
  window_.pop_front();
  for (WindowListener* l : listeners_) l->OnEdgeExpiring(*graph_, e);
  Status s = graph_->RemoveEdge(e);
  NOUS_CHECK(s.ok()) << "window expiry: " << s.ToString();
}

void TemporalWindow::AddListener(WindowListener* listener) {
  listeners_.push_back(listener);
}

void TemporalWindow::RemoveListener(WindowListener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

Timestamp TemporalWindow::OldestTimestamp() const {
  if (window_.empty()) return 0;
  return graph_->Edge(window_.front()).meta.timestamp;
}

Timestamp TemporalWindow::NewestTimestamp() const {
  if (window_.empty()) return 0;
  return graph_->Edge(window_.back()).meta.timestamp;
}

}  // namespace nous
