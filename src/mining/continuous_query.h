#ifndef NOUS_MINING_CONTINUOUS_QUERY_H_
#define NOUS_MINING_CONTINUOUS_QUERY_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "graph/temporal_window.h"
#include "mining/pattern.h"
#include "mining/pattern_matcher.h"

namespace nous {

/// A standing-pattern match event.
struct ContinuousMatch {
  int query_id = 0;
  PatternMatch match;
  /// Timestamp of the edge whose arrival completed the match.
  Timestamp completed_at = 0;
};

/// Continuous (standing) pattern detection over the sliding window —
/// the capability of the authors' EDBT 2015 system the paper cites as
/// [4] and folds into NOUS's querying story. Registered patterns are
/// matched incrementally: when an edge arrives, only matches whose
/// final missing edge is the new edge are searched (every other edge
/// of a completed match must already be in the window), so each match
/// fires exactly once. Expiry retracts active matches.
class ContinuousPatternDetector : public WindowListener {
 public:
  using Callback = std::function<void(const ContinuousMatch&)>;

  explicit ContinuousPatternDetector(bool use_vertex_types = false);

  /// Registers a standing pattern; returns its query id. `callback`
  /// (optional) fires on every new match.
  int RegisterPattern(Pattern pattern, Callback callback = nullptr);

  // WindowListener:
  void OnEdgeAdded(const TemporalWindow& window, EdgeId edge) override;
  void OnEdgeExpiring(const TemporalWindow& window, EdgeId edge) override;

  /// Matches currently alive in the window, per query.
  std::vector<PatternMatch> ActiveMatches(int query_id) const;
  size_t NumActiveMatches(int query_id) const;
  /// Total matches ever fired for the query (including expired ones).
  size_t TotalMatches(int query_id) const;

 private:
  struct Registered {
    Pattern pattern;
    Callback callback;
    size_t total = 0;
  };
  struct Active {
    int query_id = 0;
    PatternMatch match;
    bool alive = false;
  };

  bool use_vertex_types_;
  std::vector<Registered> queries_;
  std::vector<Active> active_;
  std::vector<size_t> free_slots_;
  std::unordered_map<EdgeId, std::vector<size_t>> edge_index_;
};

}  // namespace nous

#endif  // NOUS_MINING_CONTINUOUS_QUERY_H_
