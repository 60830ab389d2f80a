#ifndef NOUS_MINING_PATTERN_H_
#define NOUS_MINING_PATTERN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "graph/dictionary.h"
#include "graph/types.h"

namespace nous {

/// One edge of a pattern: variable ids into the pattern's vertex set.
struct PatternEdge {
  int src = 0;
  PredicateId pred = kInvalidPredicate;
  int dst = 0;

  friend bool operator==(const PatternEdge& a, const PatternEdge& b) {
    return a.src == b.src && a.pred == b.pred && a.dst == b.dst;
  }
  friend bool operator<(const PatternEdge& a, const PatternEdge& b) {
    return std::tie(a.src, a.pred, a.dst) < std::tie(b.src, b.pred, b.dst);
  }
};

/// A small connected, directed, edge-labeled (and optionally
/// vertex-typed) subgraph pattern in canonical form. Canonicalization
/// tries every edge ordering (patterns are capped at a handful of
/// edges), renumbers vertices by first appearance, and keeps the
/// lexicographically smallest code — a minimal-DFS-code construction
/// specialized to tiny patterns.
class Pattern {
 public:
  Pattern() = default;

  /// A concrete edge during canonicalization: endpoints are opaque
  /// 64-bit vertex keys (graph VertexIds in practice).
  struct ConcreteEdge {
    uint64_t src;
    PredicateId pred;
    uint64_t dst;
  };

  class Canonicalizer;

  /// Builds the canonical pattern for `edges`. `vertex_label` supplies
  /// the type label per concrete vertex (return kInvalidType for
  /// untyped mining). If `position_to_vertex` is non-null it receives
  /// the concrete vertex for each canonical variable position — the
  /// assignment MNI support counting needs. One-off convenience over
  /// Canonicalizer, which hot paths keep and reuse.
  static Pattern Canonicalize(
      const std::vector<ConcreteEdge>& edges,
      const std::function<TypeId(uint64_t)>& vertex_label,
      std::vector<uint64_t>* position_to_vertex = nullptr);

  const std::vector<PatternEdge>& edges() const { return edges_; }
  const std::vector<TypeId>& vertex_labels() const {
    return vertex_labels_;
  }
  size_t num_edges() const { return edges_.size(); }
  size_t num_vertices() const { return vertex_labels_.size(); }

  /// True when `sub` embeds into this pattern (injective on edges,
  /// consistent on variables, matching labels). Used for closedness.
  bool Contains(const Pattern& sub) const;

  /// Connected (num_edges-1)-edge sub-patterns — what the miner
  /// re-registers when a pattern is demoted (§3.5 reconstruction).
  std::vector<Pattern> SubPatterns() const;

  /// Human-readable form, e.g. "(?0)-[acquired]->(?1) ...".
  std::string ToString(const Dictionary& predicates,
                       const Dictionary* types = nullptr) const;

  friend bool operator==(const Pattern& a, const Pattern& b) {
    return a.edges_ == b.edges_ && a.vertex_labels_ == b.vertex_labels_;
  }

  /// Total order on canonical patterns: edges lexicographically by
  /// (src, pred, dst), then vertex labels. Independent of when or in
  /// which window a pattern was first seen.
  friend bool operator<(const Pattern& a, const Pattern& b) {
    if (a.edges_ != b.edges_) return a.edges_ < b.edges_;
    return a.vertex_labels_ < b.vertex_labels_;
  }

  size_t Hash() const;

 private:
  std::vector<PatternEdge> edges_;
  std::vector<TypeId> vertex_labels_;
};

/// Canonicalization with buffers kept across calls: once its buffers
/// have grown to the largest edge set seen, Run() does no heap
/// allocation, and pattern() can be looked up in a Pattern-keyed map
/// without building a fresh Pattern. Vertices are interned by a linear
/// scan (a connected k-edge set has at most k + 1), each vertex label
/// is fetched once, and an edge ordering is abandoned at the first
/// edge where its code exceeds the best so far. Not thread-safe: keep
/// one per thread (miner, support counter, gSpan run).
class Pattern::Canonicalizer {
 public:
  /// Starts a new edge set.
  void Clear();
  /// Adds one concrete edge to the set.
  void Add(uint64_t src, PredicateId pred, uint64_t dst);
  /// Canonicalizes the edges added since Clear(); `vertex_label` is
  /// called once per distinct vertex. Among orderings that give the
  /// same minimal code the first in std::next_permutation order fixes
  /// position_to_vertex(), as in Pattern::Canonicalize.
  void Run(const std::function<TypeId(uint64_t)>& vertex_label);

  /// The canonical pattern of the last Run().
  const Pattern& pattern() const { return pattern_; }
  /// The concrete vertex at each canonical variable position of the
  /// last Run().
  const std::vector<uint64_t>& position_to_vertex() const {
    return mapping_;
  }

 private:
  /// An edge over indices into vertices_.
  struct LocalEdge {
    uint32_t src;
    PredicateId pred;
    uint32_t dst;
  };
  /// One edge ordering's code: its edges over variable ids, and the
  /// vertices_ index each variable was assigned.
  struct Code {
    std::vector<PatternEdge> edges;
    std::vector<uint32_t> vertex_of_var;
  };

  uint32_t Intern(uint64_t vertex);
  /// Builds the code of order_ into `candidate`. With `best` non-null,
  /// returns false as soon as the candidate's edge prefix exceeds
  /// best's (the candidate cannot win); `*less` tells whether the
  /// built edges are strictly smaller than best's.
  bool Build(const Code* best, Code* candidate, bool* less);
  bool LabelsLess(const Code& a, const Code& b) const;

  std::vector<uint64_t> vertices_;
  std::vector<TypeId> labels_;  // per vertices_ entry
  std::vector<LocalEdge> edges_;
  std::vector<uint32_t> order_;
  std::vector<int> var_of_;  // per vertices_ entry, -1 when unassigned
  Code best_;
  Code candidate_;
  Pattern pattern_;
  std::vector<uint64_t> mapping_;
};

struct PatternHash {
  size_t operator()(const Pattern& p) const { return p.Hash(); }
};

}  // namespace nous

#endif  // NOUS_MINING_PATTERN_H_
