#include "graph/property_graph.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"

namespace nous {

namespace {

// Shared empty topic vector so default topic lookups stay cheap.
const std::vector<double> kEmptyTopics;

// Deep-byte estimators for the COW chunk caches; same formulas the old
// monolithic ApproxMemoryBytes used, now attributed per chunk.
size_t VertexDeepBytes(const VertexRecord& v) {
  return v.bag.size() * (sizeof(TermId) + sizeof(double) + 2 * sizeof(void*)) +
         v.topics.capacity() * sizeof(double);
}

size_t AdjDeepBytes(const std::vector<AdjEntry>& adj) {
  return adj.capacity() * sizeof(AdjEntry);
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
  copy.max_edge_timestamp_ = max_edge_timestamp_;
  copy.edge_zones_ = edge_zones_;
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
  edge_zones_.Detach();
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
  IndexEdgeTimestamp(e, meta);
  return e;
}

void PropertyGraph::IndexEdgeTimestamp(EdgeId e, const EdgeMeta& meta) {
  max_edge_timestamp_ = std::max(max_edge_timestamp_, meta.timestamp);
  if (e % kEdgeZoneSize == 0) edge_zones_.PushBack(EdgeZone{});
  if (meta.curated) return;  // trends come from the stream
  const size_t z = e / kEdgeZoneSize;
  const EdgeZone& zone = edge_zones_[z];
  // Write (and so unshare the zone chunk) only when the range grows.
  if (meta.timestamp >= zone.min_timestamp &&
      meta.timestamp <= zone.max_timestamp) {
    return;
  }
  EdgeZone& grown = edge_zones_.Mutable(z);
  grown.min_timestamp = std::min(grown.min_timestamp, meta.timestamp);
  grown.max_timestamp = std::max(grown.max_timestamp, meta.timestamp);
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
  if (subject >= out_.size() || object >= in_.size()) return std::nullopt;
  // out_[subject] and in_[object] both list exactly the (subject, ·,
  // object) edges in ascending id order, so the shorter side finds the
  // same first match.
  const std::vector<AdjEntry>& out = out_[subject];
  const std::vector<AdjEntry>& in = in_[object];
  const bool scan_out = out.size() <= in.size();
  const VertexId other = scan_out ? object : subject;
  for (const AdjEntry& a : scan_out ? out : in) {
    if (a.predicate == predicate && a.neighbor == other) return a.edge;
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

void PropertyGraph::ForEachEdge(
    const std::function<void(EdgeId, const EdgeRecord&)>& fn) const {
  for (EdgeId e = 0; e < edges_.size(); ++e) fn(e, edges_[e]);
}

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
  edge_zones_.AddFootprint(&fp, [](const EdgeZone&) { return size_t{0}; });
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
  }
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
  NOUS_RETURN_IF_ERROR(reader->Count(&num_edges, 4 * 3 + 8 + 8 + 4 + 1));
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
    uint8_t curated = 0;
    NOUS_RETURN_IF_ERROR(reader->U8(&curated));
    rec.meta.curated = curated != 0;
    if (rec.subject >= num_vertices || rec.object >= num_vertices ||
        rec.predicate >= predicates_.size()) {
      return Status::DataLoss("graph checkpoint: edge id out of range");
    }
    const EdgeId id = static_cast<EdgeId>(e);
    out_.Mutable(rec.subject).push_back({rec.predicate, rec.object, id});
    in_.Mutable(rec.object).push_back({rec.predicate, rec.subject, id});
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
  max_edge_timestamp_ = 0;
  edge_zones_.Clear();
  for (size_t e = 0; e < edges_.size(); ++e) {
    IndexEdgeTimestamp(static_cast<EdgeId>(e), edges_[e].meta);
  }
}

}  // namespace nous
