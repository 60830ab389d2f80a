#include "linker/entity_linker.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace nous {

namespace {

/// Linking cost instruments, so per-document linker work shows up on
/// /api/stats next to the miner's.
struct LinkerMetrics {
  Counter* candidates;
  Counter* adjacency_scanned;
};

const LinkerMetrics& Metrics() {
  static const LinkerMetrics metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return LinkerMetrics{
        r.GetCounter("nous_linker_candidates_total",
                     "Alias candidates scored by the entity linker"),
        r.GetCounter("nous_linker_adjacency_scanned_total",
                     "KG adjacency entries read for entity context and "
                     "coherence")};
  }();
  return metrics;
}

}  // namespace

EntityLinker::EntityLinker(PropertyGraph* graph, LinkerConfig config)
    : graph_(graph),
      config_(config),
      context_(graph, config.max_context_neighbors) {}

void EntityLinker::RegisterEntity(VertexId vertex,
                                  const std::vector<std::string>& surfaces,
                                  double prior) {
  for (const std::string& surface : surfaces) {
    auto& bucket = alias_index_[ToLower(surface)];
    bool found = false;
    for (auto& [v, p] : bucket) {
      if (v == vertex) {
        p = std::max(p, prior);
        found = true;
      }
    }
    if (!found) bucket.emplace_back(vertex, prior);
  }
  max_prior_ = std::max(max_prior_, prior);
}

std::vector<std::pair<VertexId, double>> EntityLinker::CandidatesFor(
    std::string_view surface) const {
  auto it = alias_index_.find(ToLower(surface));
  if (it == alias_index_.end()) return {};
  return it->second;
}

std::vector<EntityLinker::ScoredCandidate> EntityLinker::ScoreCandidates(
    const std::string& surface) {
  // AIDA compares the mention's *surrounding* context with the entity
  // context: the mention's own tokens are excluded, otherwise any
  // candidate whose description contains its own name (typical for
  // locations) gets a spurious vote just for being mentioned.
  std::vector<ScoredCandidate> scored;
  auto it = alias_index_.find(ToLower(surface));
  if (it == alias_index_.end()) return scored;
  context_.SetMention(surface);
  for (const auto& [vertex, prior] : it->second) {
    double prior_score = std::log1p(prior) / std::log1p(max_prior_);
    double context = context_.Similarity(vertex);
    double local = config_.prior_weight * prior_score +
                   config_.context_weight * context;
    scored.push_back(ScoredCandidate{vertex, local, local});
  }
  Metrics().candidates->Increment(scored.size());
  std::sort(scored.begin(), scored.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              return a.local_score > b.local_score;
            });
  if (scored.size() > config_.max_candidates) {
    scored.resize(config_.max_candidates);
  }
  return scored;
}

uint64_t EntityLinker::AbsorbNeighbors(VertexId vertex) {
  if (neighbors_.size() <= vertex) neighbors_.resize(graph_->NumVertices());
  NeighborSet& set = neighbors_[vertex];
  const std::vector<AdjEntry>& out = graph_->OutEdges(vertex);
  const std::vector<AdjEntry>& in = graph_->InEdges(vertex);
  const uint64_t scanned = (out.size() - set.out_seen) +
                           (in.size() - set.in_seen);
  // New neighbors go after the known (sorted) ones, then merge in.
  const auto known = static_cast<std::ptrdiff_t>(set.ids.size());
  auto absorb = [&set, known](const std::vector<AdjEntry>& adj,
                              size_t from) {
    for (size_t i = from; i < adj.size(); ++i) {
      const VertexId v = adj[i].neighbor;
      if (!std::binary_search(set.ids.begin(), set.ids.begin() + known, v)) {
        set.ids.push_back(v);
      }
    }
  };
  absorb(out, set.out_seen);
  absorb(in, set.in_seen);
  set.out_seen = out.size();
  set.in_seen = in.size();
  if (set.ids.size() > static_cast<size_t>(known)) {
    std::sort(set.ids.begin() + known, set.ids.end());
    std::inplace_merge(set.ids.begin(), set.ids.begin() + known,
                       set.ids.end());
    set.ids.erase(std::unique(set.ids.begin(), set.ids.end()),
                  set.ids.end());
  }
  return scanned;
}

const std::vector<VertexId>& EntityLinker::Neighbors(VertexId vertex) {
  AbsorbNeighbors(vertex);
  return neighbors_[vertex].ids;
}

uint64_t EntityLinker::CollectNeighbors(
    const std::vector<std::vector<ScoredCandidate>>& candidates) {
  const size_t num_vertices = graph_->NumVertices();
  if (inverse_log_degree_.size() < num_vertices) {
    inverse_log_degree_.resize(num_vertices);
  }
  has_inverse_log_degree_.Reset(num_vertices);
  relatedness_memo_.clear();
  uint64_t scanned = 0;
  for (const auto& list : candidates) {
    for (const ScoredCandidate& c : list) scanned += AbsorbNeighbors(c.vertex);
  }
  return scanned;
}

double EntityLinker::Relatedness(VertexId a, VertexId b) {
  // Adamic-Adar-weighted overlap: a shared neighbor is evidence in
  // inverse proportion to its degree — two companies headquartered in
  // the same big city are barely related; sharing a rare partner is
  // strong. Normalized by the smaller neighborhood so well-connected
  // candidates don't dominate. The shared neighbors are summed in
  // ascending VertexId order, a pure function of graph content that
  // makes the value symmetric, so one memo entry serves both orders
  // and both conditioning rounds.
  const uint64_t key = (static_cast<uint64_t>(std::min(a, b)) << 32) |
                       std::max(a, b);
  auto [memo, inserted] = relatedness_memo_.try_emplace(key, 0.0);
  if (!inserted) return memo->second;
  const std::vector<VertexId>& a_ids = neighbors_[a].ids;
  const std::vector<VertexId>& b_ids = neighbors_[b].ids;
  if (a_ids.empty() || b_ids.empty()) return 0.0;  // memo holds 0.0
  auto x = a_ids.begin(), x_end = a_ids.end();
  auto y = b_ids.begin(), y_end = b_ids.end();
  double score = 0;
  while (x != x_end && y != y_end) {
    if (*x < *y) {
      ++x;
    } else if (*y < *x) {
      ++y;
    } else {
      const VertexId v = *x;
      // Memoized per document: the graph does not change before the
      // decisions are taken.
      if (has_inverse_log_degree_.Insert(v)) {
        double degree = static_cast<double>(graph_->OutDegree(v) +
                                            graph_->InDegree(v));
        inverse_log_degree_[v] = 1.0 / std::log(2.0 + degree);
      }
      score += inverse_log_degree_[v];
      ++x;
      ++y;
    }
  }
  memo->second =
      score / static_cast<double>(std::min(a_ids.size(), b_ids.size()));
  return memo->second;
}

const char* EntityLinker::TypeNameFor(EntityType type) {
  switch (type) {
    case EntityType::kPerson: return "person";
    case EntityType::kOrganization: return "organization";
    case EntityType::kLocation: return "location";
    case EntityType::kProduct: return "product";
    case EntityType::kDate: return "thing";
    case EntityType::kMisc: return "thing";
  }
  return "thing";
}

std::vector<LinkDecision> EntityLinker::LinkMentions(
    const std::vector<std::string>& surfaces,
    const std::vector<EntityType>& types, const TermBag& doc_bag) {
  const size_t n = surfaces.size();
  const uint64_t bag_scanned_before = context_.adjacency_scanned();
  context_.SetDocument(doc_bag);
  std::vector<std::vector<ScoredCandidate>> candidates(n);
  for (size_t i = 0; i < n; ++i) {
    candidates[i] = ScoreCandidates(surfaces[i]);
  }

  // ---- AIDA global stage: entity-entity coherence. ----
  // Each candidate's total score blends its local score with its mean
  // Adamic-Adar relatedness to the other mentions' candidates; then the
  // weakest candidates of ambiguous mentions are dropped iteratively.
  const uint64_t neighbors_scanned = CollectNeighbors(candidates);
  Metrics().adjacency_scanned->Increment(
      context_.adjacency_scanned() - bag_scanned_before + neighbors_scanned);
  // Two conditioning rounds: candidates score their relatedness to the
  // other mentions' CURRENT best candidate (initially the local-score
  // leader), then the assignment is re-ranked and scored once more —
  // a two-sweep version of AIDA's iterative refinement that avoids the
  // over-optimistic "best over all other candidates" shortcut.
  for (int round = 0; round < 2; ++round) {
    std::vector<VertexId> anchors(n, kInvalidVertex);
    for (size_t j = 0; j < n; ++j) {
      if (!candidates[j].empty()) anchors[j] = candidates[j][0].vertex;
    }
    for (size_t i = 0; i < n; ++i) {
      for (ScoredCandidate& c : candidates[i]) {
        double coherence_sum = 0;
        size_t coherence_count = 0;
        for (size_t j = 0; j < n; ++j) {
          if (j == i || anchors[j] == kInvalidVertex) continue;
          if (anchors[j] == c.vertex) continue;
          coherence_sum += Relatedness(c.vertex, anchors[j]);
          ++coherence_count;
        }
        double coherence =
            coherence_count == 0 ? 0 : coherence_sum / coherence_count;
        c.total_score =
            c.local_score + config_.coherence_weight * coherence;
      }
      std::sort(candidates[i].begin(), candidates[i].end(),
                [](const ScoredCandidate& a, const ScoredCandidate& b) {
                  return a.total_score > b.total_score;
                });
    }
  }

  // ---- Decisions: link or create. ----
  std::vector<LinkDecision> decisions(n);
  std::unordered_map<std::string, VertexId> created_this_doc;
  for (size_t i = 0; i < n; ++i) {
    LinkDecision& d = decisions[i];
    d.surface = surfaces[i];
    d.num_candidates = candidates[i].size();
    if (!candidates[i].empty() &&
        candidates[i][0].total_score >= config_.min_link_score) {
      d.vertex = candidates[i][0].vertex;
      d.score = candidates[i][0].total_score;
      continue;
    }
    // New entity: reuse one created earlier in this document for the
    // same surface.
    std::string key = ToLower(surfaces[i]);
    auto it = created_this_doc.find(key);
    if (it != created_this_doc.end()) {
      d.vertex = it->second;
      d.created_new = true;
      continue;
    }
    // Entity creation happens here rather than in the pipeline because
    // linking decides *whether* a vertex exists. LinkMentions only runs
    // from KgPipeline::CommitDocument with kg_mutex held, after the
    // batch is WAL-logged, so these writes stay on the ingest funnel
    // even though this file lives outside the nous-layering allow-list
    // (DESIGN.md §5.14).
    // NOLINTNEXTLINE(nous-layering)
    // lint: graph-mutation-ok(kg_mutex-held commit write, replayed from the WAL)
    VertexId v = graph_->GetOrAddVertex(surfaces[i]);
    EntityType type =
        i < types.size() ? types[i] : EntityType::kMisc;
    if (graph_->VertexType(v) == kInvalidType) {
      // Typed mining reads types from a later clone of the KG, which is
      // exact only while no vertex is retyped once it has an edge.
      NOUS_CHECK(graph_->OutDegree(v) == 0 && graph_->InDegree(v) == 0)
          << "typing vertex " << v << ", which already has an edge";
      // NOLINTNEXTLINE(nous-layering)
      // lint: graph-mutation-ok(same commit section, replayed from the WAL)
      graph_->SetVertexType(v, graph_->types().Intern(TypeNameFor(type)));
    }
    RegisterEntity(v, {surfaces[i]}, 1.0);
    created_this_doc[key] = v;
    d.vertex = v;
    d.created_new = true;
    ++num_created_;
  }
  return decisions;
}

LinkDecision EntityLinker::LinkOne(const std::string& surface,
                                   EntityType type, const TermBag& doc_bag) {
  return LinkMentions({surface}, {type}, doc_bag)[0];
}

void EntityLinker::SaveBinary(BinaryWriter* writer) const {
  std::vector<const std::string*> surfaces;
  surfaces.reserve(alias_index_.size());
  for (const auto& [surface, candidates] : alias_index_) {
    surfaces.push_back(&surface);
  }
  std::sort(surfaces.begin(), surfaces.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  writer->U64(surfaces.size());
  for (const std::string* surface : surfaces) {
    writer->Str(*surface);
    const auto& candidates = alias_index_.at(*surface);
    writer->U64(candidates.size());
    for (const auto& [vertex, prior] : candidates) {
      writer->U32(vertex);
      writer->F64(prior);
    }
  }
  writer->F64(max_prior_);
  writer->U64(num_created_);
}

Status EntityLinker::LoadBinary(BinaryReader* reader) {
  uint64_t num_surfaces = 0;
  NOUS_RETURN_IF_ERROR(reader->Count(&num_surfaces, 8 + 8));
  alias_index_.clear();
  alias_index_.reserve(num_surfaces);
  for (uint64_t i = 0; i < num_surfaces; ++i) {
    std::string surface;
    NOUS_RETURN_IF_ERROR(reader->Str(&surface));
    uint64_t num_candidates = 0;
    NOUS_RETURN_IF_ERROR(reader->Count(&num_candidates, 12));
    std::vector<std::pair<VertexId, double>> candidates;
    candidates.reserve(num_candidates);
    for (uint64_t j = 0; j < num_candidates; ++j) {
      VertexId vertex = 0;
      double prior = 0;
      NOUS_RETURN_IF_ERROR(reader->U32(&vertex));
      NOUS_RETURN_IF_ERROR(reader->F64(&prior));
      candidates.emplace_back(vertex, prior);
    }
    alias_index_.emplace(std::move(surface), std::move(candidates));
  }
  NOUS_RETURN_IF_ERROR(reader->F64(&max_prior_));
  uint64_t created = 0;
  NOUS_RETURN_IF_ERROR(reader->U64(&created));
  num_created_ = created;
  // The graph was reloaded with this state, so the derived word lists
  // and neighbor sets may describe vertices and terms that no longer
  // exist.
  context_.Clear();
  neighbors_.clear();
  return Status::Ok();
}

}  // namespace nous
