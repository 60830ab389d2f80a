#ifndef NOUS_GRAPH_PROPERTY_GRAPH_H_
#define NOUS_GRAPH_PROPERTY_GRAPH_H_

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "graph/cow.h"
#include "graph/dictionary.h"
#include "graph/types.h"

namespace nous {

/// One directed adjacency slot: predicate-typed edge to `neighbor`.
struct AdjEntry {
  PredicateId predicate;
  VertexId neighbor;
  EdgeId edge;
};

/// Stored edge state. Edges are never removed, so an edge id names
/// the same fact for the graph's lifetime.
struct EdgeRecord {
  VertexId subject = kInvalidVertex;
  VertexId object = kInvalidVertex;
  PredicateId predicate = kInvalidPredicate;
  EdgeMeta meta;
};

/// Timestamp range [min_timestamp, max_timestamp] of the non-curated
/// edges in one PropertyGraph::kEdgeZoneSize block of edge ids; empty
/// (min > max) when the block holds none.
struct EdgeZone {
  Timestamp min_timestamp = std::numeric_limits<Timestamp>::max();
  Timestamp max_timestamp = std::numeric_limits<Timestamp>::min();

  bool empty() const { return min_timestamp > max_timestamp; }
  /// Whether some non-curated edge of the block may lie in [lo, hi].
  bool Meets(Timestamp lo, Timestamp hi) const {
    return !empty() && min_timestamp <= hi && max_timestamp >= lo;
  }
};

/// Per-vertex properties mirroring the paper's GraphX usage: a type, a
/// bag of words (from the entity's Wikipedia-like page or, for new
/// entities, its KG neighborhood), and an LDA topic distribution.
struct VertexRecord {
  TypeId type = kInvalidType;
  std::unordered_map<TermId, double> bag;
  std::vector<double> topics;
};

/// Dynamic, in-memory property multigraph with predicate-typed directed
/// edges and interned string dictionaries for entities, predicates,
/// terms, types, and sources. The single-node stand-in for the paper's
/// Spark/GraphX distributed property graph (see DESIGN.md §2).
///
/// Edges carry confidence, timestamp, source, and curated/extracted
/// provenance. The graph is append-only: AddEdge is the only edge
/// writer, so edge ids are dense (0 … NumEdges() − 1). The edge
/// records are the data; the per-vertex out- and in-lists are the one
/// adjacency, derived from them in ascending edge-id order (the
/// checkpoint image holds only the records). A TemporalWindow reads a
/// sliding window as a range of those ids (DESIGN.md §5.1).
///
/// All storage — primary state and derived read indexes alike — lives
/// in copy-on-write chunked containers (CowVec / CowIdIndex, DESIGN.md
/// §5.13), so Clone() is O(1): it shares every chunk with the source,
/// and subsequent mutation of either copy duplicates only the chunks
/// it touches. This is what makes snapshot publication O(delta) instead
/// of O(V+E). Clones are bit-identical to a deep copy: same ids, same
/// slot layout, same adjacency order, same derived indexes.
class PropertyGraph {
 public:
  PropertyGraph() = default;

  PropertyGraph(const PropertyGraph&) = delete;
  PropertyGraph& operator=(const PropertyGraph&) = delete;
  PropertyGraph(PropertyGraph&&) = default;
  PropertyGraph& operator=(PropertyGraph&&) = default;

  /// O(1) copy-on-write copy sharing all chunks with this graph (copy
  /// construction stays deleted so clones are always explicit). Either
  /// copy may keep mutating; writes unshare only the touched chunks.
  PropertyGraph Clone() const;

  /// Copies every chunk still shared with another PropertyGraph,
  /// making this instance fully private — the retired deep-copy cost
  /// model. Benches and equivalence tests use it as the baseline.
  void Detach();

  // ---- Vertices ----

  /// Returns the vertex for `label`, creating it if absent.
  VertexId GetOrAddVertex(std::string_view label);

  std::optional<VertexId> FindVertex(std::string_view label) const;

  /// FindVertex, falling back to a case-folded index: "dji" resolves
  /// the vertex labeled "DJI". Among labels that collide after
  /// folding, the lowest id wins (the order a linear scan would find
  /// them). O(1) — replaces ResolveEntity's O(V) lowercase scan.
  std::optional<VertexId> FindVertexFolded(std::string_view label) const;

  const std::string& VertexLabel(VertexId v) const;

  void SetVertexType(VertexId v, TypeId type);
  TypeId VertexType(VertexId v) const;

  /// Adds weight `w` of term `term` to the vertex's bag of words.
  void AddVertexTerm(VertexId v, TermId term, double w = 1.0);
  const std::unordered_map<TermId, double>& VertexBag(VertexId v) const;

  void SetVertexTopics(VertexId v, std::vector<double> topics);
  const std::vector<double>& VertexTopics(VertexId v) const;

  size_t NumVertices() const { return vertices_.size(); }

  // ---- Edges ----

  /// Inserts a directed edge; parallel edges are allowed (multigraph).
  EdgeId AddEdge(VertexId subject, PredicateId predicate, VertexId object,
                 const EdgeMeta& meta);

  /// Interns all strings of `t` and inserts the edge. Convenience entry
  /// point for generators and tests.
  EdgeId AddTriple(const TimedTriple& t);

  /// Lowest-id edge matching (subject, predicate, object), if any;
  /// scans the shorter of the subject's out-list and the object's
  /// in-list.
  std::optional<EdgeId> FindEdge(VertexId subject, PredicateId predicate,
                                 VertexId object) const;

  bool HasEdge(VertexId subject, PredicateId predicate,
               VertexId object) const {
    return FindEdge(subject, predicate, object).has_value();
  }

  /// Edge record for `e`, which must be < NumEdges().
  const EdgeRecord& Edge(EdgeId e) const;

  /// Mutable confidence update (link-prediction rescoring).
  void SetEdgeConfidence(EdgeId e, double confidence);

  const std::vector<AdjEntry>& OutEdges(VertexId v) const;
  const std::vector<AdjEntry>& InEdges(VertexId v) const;

  size_t OutDegree(VertexId v) const { return OutEdges(v).size(); }
  size_t InDegree(VertexId v) const { return InEdges(v).size(); }

  /// Largest edge timestamp (0 with no edges; never negative).
  /// Maintained by AddEdge so trending queries need no full edge scan.
  Timestamp MaxEdgeTimestamp() const { return max_edge_timestamp_; }

  size_t NumEdges() const { return edges_.size(); }

  /// Edges per zone: one zone per chunk of the edge records.
  static constexpr size_t kEdgeZoneSize = CowVec<EdgeRecord>::kChunkSize;

  /// Zone map over the edge ids: zone z covers edges [z ·
  /// kEdgeZoneSize, (z + 1) · kEdgeZoneSize) ∩ [0, NumEdges()). A scan
  /// for timestamps in a range reads only the zones that meet it.
  size_t NumEdgeZones() const { return edge_zones_.size(); }
  const EdgeZone& EdgeZoneAt(size_t zone) const { return edge_zones_[zone]; }

  /// Invokes fn(edge_id, record) for every edge, in id order.
  void ForEachEdge(
      const std::function<void(EdgeId, const EdgeRecord&)>& fn) const;

  // ---- Dictionaries ----

  Dictionary& predicates() { return predicates_; }
  const Dictionary& predicates() const { return predicates_; }
  Dictionary& terms() { return terms_; }
  const Dictionary& terms() const { return terms_; }
  Dictionary& types() { return types_; }
  const Dictionary& types() const { return types_; }
  Dictionary& sources() { return sources_; }
  const Dictionary& sources() const { return sources_; }

  /// Rough heap footprint of the whole graph (dictionaries, vertex
  /// records and bags, edge slots, adjacency, derived indexes), split
  /// into bytes shared with other copies vs private to this one. A
  /// snapshot's private bytes are its true retention cost on top of
  /// the live graph. Per-chunk byte estimates are cached, so a
  /// steady-state call is O(chunks), not O(V+E). A telemetry estimate,
  /// not an allocator audit.
  CowFootprint Footprint() const;

  /// Footprint().total_bytes() — shared + private.
  size_t ApproxMemoryBytes() const { return Footprint().total_bytes(); }

  // ---- Checkpoint serialization ----

  /// Writes the complete primary state — all five dictionaries in id
  /// order, every vertex record (bags emitted sorted by TermId) and
  /// every edge record in id order — so a LoadBinary round trip
  /// reproduces the graph exactly. Adjacency is not written: the edge
  /// records imply it. The byte stream is independent of chunk sharing
  /// state: a Clone() and a deep copy serialize identically.
  void SaveBinary(BinaryWriter* writer) const;

  /// Restores a SaveBinary payload, replacing current contents, and
  /// rebuilds adjacency and the derived indexes from the records. An
  /// edge record whose endpoints or predicate are out of range is
  /// DataLoss, so out-of-range ids never load. Malformed input may
  /// leave the graph partially loaded; callers discard the instance on
  /// failure.
  Status LoadBinary(BinaryReader* reader);

 private:
  /// Rebuilds the derived indexes (folded labels, max timestamp, zone
  /// map) from the primary state; LoadBinary calls it because
  /// checkpoints only store the primary state.
  void RebuildDerivedIndexes();

  /// Folds edge `e`, the newest edge, into the max timestamp and the
  /// zone map.
  void IndexEdgeTimestamp(EdgeId e, const EdgeMeta& meta);

  static uint64_t FoldedHash(const std::string& folded) {
    return std::hash<std::string>{}(folded);
  }
  /// Hash of vertex `v`'s case-folded label (CowIdIndex rehash hook).
  uint64_t FoldedHashOf(VertexId v) const;

  Dictionary vertex_labels_;
  Dictionary predicates_;
  Dictionary terms_;
  Dictionary types_;
  Dictionary sources_;

  CowVec<VertexRecord> vertices_;
  CowVec<EdgeRecord> edges_;
  // The one adjacency, derived from edges_ (AddEdge appends, LoadBinary
  // rebuilds it): per-vertex out- and in-lists in ascending edge id.
  CowVec<std::vector<AdjEntry>> out_;
  CowVec<std::vector<AdjEntry>> in_;

  // Derived read-side indexes (never serialized; see SaveBinary).
  /// Case-folded label index; every vertex is inserted in id order, so
  /// lookups find the lowest id among folding collisions.
  CowIdIndex folded_labels_;
  Timestamp max_edge_timestamp_ = 0;
  /// One zone per edge chunk; a clone shares it like the edge chunks,
  /// so a publish copies only the zone chunk its appends touch.
  CowVec<EdgeZone> edge_zones_;
};

}  // namespace nous

#endif  // NOUS_GRAPH_PROPERTY_GRAPH_H_
