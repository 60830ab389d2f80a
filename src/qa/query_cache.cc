#include "qa/query_cache.h"

#include <utility>

#include "obs/metrics.h"

namespace nous {

namespace {

/// Process-wide cache counters (all instances aggregate here; tests
/// that need per-instance numbers use QueryCache::stats()).
struct CacheMetrics {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Gauge* entries;
};

const CacheMetrics& Metrics() {
  static CacheMetrics metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    CacheMetrics m;
    m.hits = r.GetCounter("nous_query_cache_hits_total",
                          "Query-cache lookups served from cache");
    m.misses = r.GetCounter(
        "nous_query_cache_misses_total",
        "Query-cache lookups that missed (absent or stale version)");
    m.evictions = r.GetCounter("nous_query_cache_evictions_total",
                               "Query-cache entries evicted (LRU)");
    m.entries =
        r.GetGauge("nous_query_cache_entries", "Query-cache entries");
    return m;
  }();
  return metrics;
}

}  // namespace

QueryCache::QueryCache(size_t capacity) : capacity_(capacity) {}

void QueryCache::EraseLocked(LruList::iterator it) {
  index_.erase(it->key);
  lru_.erase(it);
}

bool QueryCache::Lookup(const std::string& key, uint64_t generation,
                        uint64_t version, Answer* answer) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    Metrics().misses->Increment();
    return false;
  }
  if (it->second->generation != generation ||
      it->second->version != version) {
    // Computed against another KG version or load: stale, drop it.
    EraseLocked(it->second);
    ++stats_.misses;
    Metrics().misses->Increment();
    Metrics().entries->Set(static_cast<double>(lru_.size()));
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // touch (MRU)
  *answer = it->second->answer;
  ++stats_.hits;
  Metrics().hits->Increment();
  return true;
}

void QueryCache::Insert(const std::string& key, uint64_t generation,
                        uint64_t version, const Answer& answer) {
  if (capacity_ == 0) return;
  MutexLock lock(mu_);
  if (auto it = index_.find(key); it != index_.end()) {
    EraseLocked(it->second);
  }
  lru_.push_front(Entry{key, generation, version, answer});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
    Metrics().evictions->Increment();
  }
  Metrics().entries->Set(static_cast<double>(lru_.size()));
}

void QueryCache::Clear() {
  MutexLock lock(mu_);
  index_.clear();
  lru_.clear();
  Metrics().entries->Set(0.0);
}

size_t QueryCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

QueryCache::Stats QueryCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace nous
