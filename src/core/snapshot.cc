#include "core/snapshot.h"

#include <chrono>
#include <utility>

#include "obs/trace.h"

namespace nous {

KgSnapshot::KgSnapshot(uint64_t load_generation, uint64_t version,
                       PropertyGraph graph, PatternFuture patterns,
                       PipelineStats stats)
    : load_generation_(load_generation),
      version_(version),
      graph_(std::move(graph)),
      patterns_(std::move(patterns)),
      stats_(std::move(stats)) {
  // Chunk byte caches make this O(chunks touched since the last
  // accounting pass); the producer constructs off the pipeline locks.
  approx_graph_bytes_ = graph_.Footprint().total_bytes();
}

bool KgSnapshot::patterns_ready() const {
  return !patterns_.valid() ||
         patterns_.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
}

std::shared_ptr<const RenderedPatternSet> KgSnapshot::pattern_set() const {
  if (!patterns_.valid()) return nullptr;
  if (!patterns_ready()) {
    NOUS_SPAN("mine_wait");
    patterns_.wait();
  }
  return patterns_.get();
}

const std::vector<RenderedPattern>& KgSnapshot::patterns() const {
  static const std::vector<RenderedPattern> kEmpty;
  // The set is owned by the future's shared state, which lives as long
  // as this snapshot.
  const RenderedPatternSet* set = pattern_set().get();
  return set == nullptr ? kEmpty : set->patterns;
}

void SnapshotStore::Publish(std::shared_ptr<const KgSnapshot> snapshot) {
  if (snapshot == nullptr) return;
  {
    MutexLock lock(mutex_);
    // Keep an equal-or-newer view a racing publisher already installed.
    if (current_ != nullptr &&
        std::pair(snapshot->load_generation(), snapshot->version()) <=
            std::pair(current_->load_generation(), current_->version())) {
      return;
    }
    current_.swap(snapshot);
  }
  // `snapshot` now holds the replaced view; it is released here, off the
  // lock, in case this was its last reference.
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace nous
