#include "graph/property_graph.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"

namespace nous {

namespace {

// Shared empty containers so accessors on out-of-range vertices (never
// expected; guarded by asserts) and default topic lookups stay cheap.
const std::vector<double> kEmptyTopics;
const std::vector<AdjEntry> kEmptyAdjacency;

// Deep-byte estimators for the COW chunk caches; same formulas the old
// monolithic ApproxMemoryBytes used, now attributed per chunk.
size_t VertexDeepBytes(const VertexRecord& v) {
  return v.bag.size() * (sizeof(TermId) + sizeof(double) + 2 * sizeof(void*)) +
         v.topics.capacity() * sizeof(double);
}

size_t AdjDeepBytes(const std::vector<AdjEntry>& adj) {
  return adj.capacity() * sizeof(AdjEntry);
}

size_t ByPredDeepBytes(
    const std::unordered_map<PredicateId, std::vector<AdjEntry>>& per_pred) {
  size_t bytes = 0;
  for (const auto& [pred, entries] : per_pred) {
    bytes += sizeof(pred) + entries.capacity() * sizeof(AdjEntry);
  }
  return bytes;
}

}  // namespace

PropertyGraph PropertyGraph::Clone() const {
  PropertyGraph copy;
  copy.vertex_labels_ = vertex_labels_;
  copy.predicates_ = predicates_;
  copy.terms_ = terms_;
  copy.types_ = types_;
  copy.sources_ = sources_;
  copy.vertices_ = vertices_;
  copy.edges_ = edges_;
  copy.out_ = out_;
  copy.in_ = in_;
  copy.folded_labels_ = folded_labels_;
  copy.out_by_pred_ = out_by_pred_;
  copy.in_by_pred_ = in_by_pred_;
  copy.max_edge_timestamp_ = max_edge_timestamp_;
  return copy;
}

void PropertyGraph::Detach() {
  vertex_labels_.Detach();
  predicates_.Detach();
  terms_.Detach();
  types_.Detach();
  sources_.Detach();
  vertices_.Detach();
  edges_.Detach();
  out_.Detach();
  in_.Detach();
  folded_labels_.Detach();
  out_by_pred_.Detach();
  in_by_pred_.Detach();
}

uint64_t PropertyGraph::FoldedHashOf(VertexId v) const {
  return FoldedHash(ToLower(vertex_labels_.GetString(v)));
}

VertexId PropertyGraph::GetOrAddVertex(std::string_view label) {
  uint32_t id = vertex_labels_.Intern(label);
  if (id >= vertices_.size()) {
    vertices_.Resize(id + 1);
    out_.Resize(id + 1);
    in_.Resize(id + 1);
    out_by_pred_.Resize(id + 1);
    in_by_pred_.Resize(id + 1);
    // Every vertex is indexed; insertion in ascending id order means
    // lookups among labels that collide after folding find the lowest
    // id — the vertex a forward linear scan would have found.
    std::string folded = ToLower(label);
    folded_labels_.Insert(FoldedHash(folded), id,
                          [this](VertexId w) { return FoldedHashOf(w); });
  }
  return id;
}

std::optional<VertexId> PropertyGraph::FindVertex(
    std::string_view label) const {
  return vertex_labels_.Lookup(label);
}

std::optional<VertexId> PropertyGraph::FindVertexFolded(
    std::string_view label) const {
  if (auto v = vertex_labels_.Lookup(label)) return v;
  std::string folded = ToLower(label);
  return folded_labels_.Find(FoldedHash(folded), [this, &folded](VertexId w) {
    return ToLower(vertex_labels_.GetString(w)) == folded;
  });
}

const std::string& PropertyGraph::VertexLabel(VertexId v) const {
  return vertex_labels_.GetString(v);
}

void PropertyGraph::SetVertexType(VertexId v, TypeId type) {
  assert(v < vertices_.size());
  vertices_.Mutable(v).type = type;
}

TypeId PropertyGraph::VertexType(VertexId v) const {
  assert(v < vertices_.size());
  return vertices_[v].type;
}

void PropertyGraph::AddVertexTerm(VertexId v, TermId term, double w) {
  assert(v < vertices_.size());
  vertices_.Mutable(v).bag[term] += w;
}

const std::unordered_map<TermId, double>& PropertyGraph::VertexBag(
    VertexId v) const {
  assert(v < vertices_.size());
  return vertices_[v].bag;
}

void PropertyGraph::SetVertexTopics(VertexId v, std::vector<double> topics) {
  assert(v < vertices_.size());
  vertices_.Mutable(v).topics = std::move(topics);
}

const std::vector<double>& PropertyGraph::VertexTopics(VertexId v) const {
  if (v >= vertices_.size()) return kEmptyTopics;
  return vertices_[v].topics;
}

EdgeId PropertyGraph::AddEdge(VertexId subject, PredicateId predicate,
                              VertexId object, const EdgeMeta& meta) {
  assert(subject < vertices_.size());
  assert(object < vertices_.size());
  EdgeId e = static_cast<EdgeId>(edges_.size());
  edges_.PushBack(EdgeRecord{subject, object, predicate, meta});
  out_.Mutable(subject).push_back(AdjEntry{predicate, object, e});
  in_.Mutable(object).push_back(AdjEntry{predicate, subject, e});
  out_by_pred_.Mutable(subject)[predicate].push_back(
      AdjEntry{predicate, object, e});
  in_by_pred_.Mutable(object)[predicate].push_back(
      AdjEntry{predicate, subject, e});
  max_edge_timestamp_ = std::max(max_edge_timestamp_, meta.timestamp);
  return e;
}

EdgeId PropertyGraph::AddTriple(const TimedTriple& t) {
  VertexId s = GetOrAddVertex(t.triple.subject);
  VertexId o = GetOrAddVertex(t.triple.object);
  PredicateId p = predicates_.Intern(t.triple.predicate);
  EdgeMeta meta;
  meta.confidence = t.confidence;
  meta.timestamp = t.timestamp;
  meta.source =
      t.source.empty() ? kInvalidSource : sources_.Intern(t.source);
  meta.curated = false;
  return AddEdge(s, p, o, meta);
}

std::optional<EdgeId> PropertyGraph::FindEdge(VertexId subject,
                                              PredicateId predicate,
                                              VertexId object) const {
  if (subject >= out_.size()) return std::nullopt;
  for (const AdjEntry& a : out_[subject]) {
    if (a.predicate == predicate && a.neighbor == object) return a.edge;
  }
  return std::nullopt;
}

const EdgeRecord& PropertyGraph::Edge(EdgeId e) const {
  assert(e < edges_.size());
  return edges_[e];
}

void PropertyGraph::SetEdgeConfidence(EdgeId e, double confidence) {
  assert(e < edges_.size());
  edges_.Mutable(e).meta.confidence = confidence;
}

const std::vector<AdjEntry>& PropertyGraph::OutEdges(VertexId v) const {
  assert(v < out_.size());
  return out_[v];
}

const std::vector<AdjEntry>& PropertyGraph::InEdges(VertexId v) const {
  assert(v < in_.size());
  return in_[v];
}

const std::vector<AdjEntry>& PropertyGraph::OutEdgesWithPredicate(
    VertexId v, PredicateId p) const {
  assert(v < out_by_pred_.size());
  const auto& per_pred = out_by_pred_[v];
  auto it = per_pred.find(p);
  return it == per_pred.end() ? kEmptyAdjacency : it->second;
}

const std::vector<AdjEntry>& PropertyGraph::InEdgesWithPredicate(
    VertexId v, PredicateId p) const {
  assert(v < in_by_pred_.size());
  const auto& per_pred = in_by_pred_[v];
  auto it = per_pred.find(p);
  return it == per_pred.end() ? kEmptyAdjacency : it->second;
}

void PropertyGraph::ForEachEdge(
    const std::function<void(EdgeId, const EdgeRecord&)>& fn) const {
  for (EdgeId e = 0; e < edges_.size(); ++e) fn(e, edges_[e]);
}

namespace {

void SaveAdjacency(BinaryWriter* writer,
                   const CowVec<std::vector<AdjEntry>>& adj) {
  for (size_t v = 0; v < adj.size(); ++v) {
    const std::vector<AdjEntry>& entries = adj[v];
    writer->U64(entries.size());
    for (const AdjEntry& a : entries) {
      writer->U32(a.predicate);
      writer->U32(a.neighbor);
      writer->U32(a.edge);
    }
  }
}

/// Reads one stored adjacency array, which must equal `expected` — the
/// lists the edge records imply — entry for entry.
Status VerifyAdjacency(BinaryReader* reader,
                       const CowVec<std::vector<AdjEntry>>& expected) {
  const Status mismatch =
      Status::DataLoss("graph checkpoint: adjacency mismatch");
  for (size_t v = 0; v < expected.size(); ++v) {
    uint64_t count = 0;
    NOUS_RETURN_IF_ERROR(reader->Count(&count, 12));
    if (count != expected[v].size()) return mismatch;
    for (const AdjEntry& want : expected[v]) {
      AdjEntry got;
      NOUS_RETURN_IF_ERROR(reader->U32(&got.predicate));
      NOUS_RETURN_IF_ERROR(reader->U32(&got.neighbor));
      NOUS_RETURN_IF_ERROR(reader->U32(&got.edge));
      if (got.predicate != want.predicate || got.neighbor != want.neighbor ||
          got.edge != want.edge) {
        return mismatch;
      }
    }
  }
  return Status::Ok();
}

}  // namespace

CowFootprint PropertyGraph::Footprint() const {
  CowFootprint fp;
  vertex_labels_.AddFootprint(&fp);
  predicates_.AddFootprint(&fp);
  terms_.AddFootprint(&fp);
  types_.AddFootprint(&fp);
  sources_.AddFootprint(&fp);
  vertices_.AddFootprint(&fp, VertexDeepBytes);
  edges_.AddFootprint(&fp, [](const EdgeRecord&) { return size_t{0}; });
  out_.AddFootprint(&fp, AdjDeepBytes);
  in_.AddFootprint(&fp, AdjDeepBytes);
  folded_labels_.AddFootprint(&fp);
  out_by_pred_.AddFootprint(&fp, ByPredDeepBytes);
  in_by_pred_.AddFootprint(&fp, ByPredDeepBytes);
  return fp;
}

void PropertyGraph::SaveBinary(BinaryWriter* writer) const {
  vertex_labels_.SaveBinary(writer);
  predicates_.SaveBinary(writer);
  terms_.SaveBinary(writer);
  types_.SaveBinary(writer);
  sources_.SaveBinary(writer);

  writer->U64(vertices_.size());
  for (size_t v = 0; v < vertices_.size(); ++v) {
    const VertexRecord& rec = vertices_[v];
    writer->U32(rec.type);
    // Canonical (sorted) bag emission: the in-memory map is unordered,
    // so sorting is what makes Save deterministic.
    std::vector<std::pair<TermId, double>> bag(rec.bag.begin(),
                                               rec.bag.end());
    std::sort(bag.begin(), bag.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    writer->U64(bag.size());
    for (const auto& [term, weight] : bag) {
      writer->U32(term);
      writer->F64(weight);
    }
    writer->F64Array(rec.topics);
  }

  writer->U64(edges_.size());
  for (size_t e = 0; e < edges_.size(); ++e) {
    const EdgeRecord& rec = edges_[e];
    writer->U32(rec.subject);
    writer->U32(rec.object);
    writer->U32(rec.predicate);
    writer->F64(rec.meta.confidence);
    writer->I64(rec.meta.timestamp);
    writer->U32(rec.meta.source);
    writer->U8(rec.meta.curated ? 1 : 0);
    // The former live flag: every edge is live. Kept so the layout,
    // and so every image, stays byte-identical.
    writer->U8(1);
  }

  // The adjacency arrays are implied by the edge records, but stay in
  // the layout (LoadBinary checks them), as does the live edge count.
  SaveAdjacency(writer, out_);
  SaveAdjacency(writer, in_);
  writer->U64(edges_.size());
}

Status PropertyGraph::LoadBinary(BinaryReader* reader) {
  NOUS_RETURN_IF_ERROR(vertex_labels_.LoadBinary(reader));
  NOUS_RETURN_IF_ERROR(predicates_.LoadBinary(reader));
  NOUS_RETURN_IF_ERROR(terms_.LoadBinary(reader));
  NOUS_RETURN_IF_ERROR(types_.LoadBinary(reader));
  NOUS_RETURN_IF_ERROR(sources_.LoadBinary(reader));

  uint64_t num_vertices = 0;
  NOUS_RETURN_IF_ERROR(reader->Count(&num_vertices, 4 + 8 + 8));
  if (num_vertices != vertex_labels_.size()) {
    return Status::DataLoss("graph checkpoint: vertex count mismatch");
  }
  vertices_.Assign(num_vertices);
  for (size_t v = 0; v < num_vertices; ++v) {
    VertexRecord& rec = vertices_.Mutable(v);
    NOUS_RETURN_IF_ERROR(reader->U32(&rec.type));
    uint64_t bag_size = 0;
    NOUS_RETURN_IF_ERROR(reader->Count(&bag_size, 12));
    rec.bag.reserve(bag_size);
    for (uint64_t i = 0; i < bag_size; ++i) {
      TermId term = 0;
      double weight = 0;
      NOUS_RETURN_IF_ERROR(reader->U32(&term));
      NOUS_RETURN_IF_ERROR(reader->F64(&weight));
      rec.bag.emplace(term, weight);
    }
    NOUS_RETURN_IF_ERROR(reader->F64Array(&rec.topics));
  }

  uint64_t num_edges = 0;
  NOUS_RETURN_IF_ERROR(reader->Count(&num_edges, 4 * 3 + 8 + 8 + 4 + 2));
  edges_.Assign(num_edges);
  out_.Assign(num_vertices);
  in_.Assign(num_vertices);
  for (size_t e = 0; e < num_edges; ++e) {
    EdgeRecord& rec = edges_.Mutable(e);
    NOUS_RETURN_IF_ERROR(reader->U32(&rec.subject));
    NOUS_RETURN_IF_ERROR(reader->U32(&rec.object));
    NOUS_RETURN_IF_ERROR(reader->U32(&rec.predicate));
    NOUS_RETURN_IF_ERROR(reader->F64(&rec.meta.confidence));
    NOUS_RETURN_IF_ERROR(reader->I64(&rec.meta.timestamp));
    NOUS_RETURN_IF_ERROR(reader->U32(&rec.meta.source));
    uint8_t curated = 0, live = 0;
    NOUS_RETURN_IF_ERROR(reader->U8(&curated));
    NOUS_RETURN_IF_ERROR(reader->U8(&live));
    rec.meta.curated = curated != 0;
    if (live != 1) {
      return Status::DataLoss("graph checkpoint: removed edge");
    }
    if (rec.subject >= num_vertices || rec.object >= num_vertices ||
        rec.predicate >= predicates_.size()) {
      return Status::DataLoss("graph checkpoint: edge id out of range");
    }
    const EdgeId id = static_cast<EdgeId>(e);
    out_.Mutable(rec.subject).push_back({rec.predicate, rec.object, id});
    in_.Mutable(rec.object).push_back({rec.predicate, rec.subject, id});
  }

  NOUS_RETURN_IF_ERROR(VerifyAdjacency(reader, out_));
  NOUS_RETURN_IF_ERROR(VerifyAdjacency(reader, in_));
  uint64_t live_edges = 0;
  NOUS_RETURN_IF_ERROR(reader->U64(&live_edges));
  if (live_edges != num_edges) {
    return Status::DataLoss("graph checkpoint: live edge count mismatch");
  }
  RebuildDerivedIndexes();
  return Status::Ok();
}

void PropertyGraph::RebuildDerivedIndexes() {
  folded_labels_.Clear();
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    folded_labels_.Insert(FoldedHashOf(v), v,
                          [this](VertexId w) { return FoldedHashOf(w); });
  }
  out_by_pred_.Assign(vertices_.size());
  in_by_pred_.Assign(vertices_.size());
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    if (!out_[v].empty()) {
      auto& per_pred = out_by_pred_.Mutable(v);
      for (const AdjEntry& a : out_[v]) per_pred[a.predicate].push_back(a);
    }
    if (!in_[v].empty()) {
      auto& per_pred = in_by_pred_.Mutable(v);
      for (const AdjEntry& a : in_[v]) per_pred[a.predicate].push_back(a);
    }
  }
  max_edge_timestamp_ = 0;
  for (size_t e = 0; e < edges_.size(); ++e) {
    max_edge_timestamp_ =
        std::max(max_edge_timestamp_, edges_[e].meta.timestamp);
  }
}

}  // namespace nous
