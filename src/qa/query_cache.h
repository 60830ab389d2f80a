#ifndef NOUS_QA_QUERY_CACHE_H_
#define NOUS_QA_QUERY_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "qa/query_engine.h"

namespace nous {

/// Serving-layer cache knobs (Nous::Options::query_cache; wired to
/// --query-cache-entries / --no-query-cache in the demo binaries).
struct QueryCacheOptions {
  /// Memory bound: max cached answers (strict LRU; 0 disables the
  /// cache).
  size_t entries = 1024;
};

/// Bounded LRU cache over executed answers, keyed by the canonical
/// query string and validated against the (load generation, KG
/// version) of the snapshot the answer was computed on (DESIGN.md
/// §5.11).
///
/// Invalidation is implicit: callers always look up with the stamp
/// of the snapshot they are about to query, so any entry computed
/// before the last ingest commit or state load mismatches and is
/// treated (and erased) as a miss. A post-ingest query can therefore
/// never observe a stale cached answer — the ingest call publishes the
/// bumped version before it returns — and neither can a query after a
/// load that restored an older version number: the load bumps the
/// generation.
///
/// Memory bound: at most `capacity` answers (strict LRU eviction).
/// Thread-safe; hit/miss/eviction counters are exported both as
/// process-wide Prometheus counters (nous_query_cache_*_total,
/// /api/metrics) and as per-instance Stats for tests.
class QueryCache {
 public:
  explicit QueryCache(size_t capacity);

  /// Returns true and fills `*answer` iff `key` is cached at exactly
  /// (`generation`, `version`). A mismatch erases the entry and counts
  /// as a miss.
  bool Lookup(const std::string& key, uint64_t generation, uint64_t version,
              Answer* answer) EXCLUDES(mu_);

  /// Caches `answer` for (`key`, `generation`, `version`), replacing
  /// any older entry for `key` and evicting the least-recently-used
  /// entry when over capacity.
  void Insert(const std::string& key, uint64_t generation, uint64_t version,
              const Answer& answer) EXCLUDES(mu_);

  /// Drops every entry (a state load made them all stale); counts no
  /// eviction.
  void Clear() EXCLUDES(mu_);

  size_t size() const EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  Stats stats() const EXCLUDES(mu_);

 private:
  struct Entry {
    std::string key;
    uint64_t generation = 0;
    uint64_t version = 0;
    Answer answer;
  };
  using LruList = std::list<Entry>;

  void EraseLocked(LruList::iterator it) REQUIRES(mu_);

  const size_t capacity_;

  mutable AnnotatedMutex mu_;
  /// Front = most recently used.
  LruList lru_ GUARDED_BY(mu_);
  std::unordered_map<std::string, LruList::iterator> index_
      GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace nous

#endif  // NOUS_QA_QUERY_CACHE_H_
