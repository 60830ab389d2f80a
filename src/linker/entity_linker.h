#ifndef NOUS_LINKER_ENTITY_LINKER_H_
#define NOUS_LINKER_ENTITY_LINKER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "graph/property_graph.h"
#include "linker/context.h"
#include "text/ner.h"

namespace nous {

struct LinkerConfig {
  /// Local score = prior_weight * normalized popularity prior +
  /// context_weight * cosine(mention context, entity context).
  double prior_weight = 0.3;
  double context_weight = 0.7;
  /// Weight of entity-entity coherence during the AIDA graph stage.
  /// Kept modest by default: coherence is decisive when co-mentioned
  /// entities are already related in the KB, and pure noise when they
  /// are not (see bench_ablation's mention-accuracy table).
  double coherence_weight = 0.15;
  /// Candidates scoring below this are rejected; an unlinkable mention
  /// becomes a new KG vertex.
  double min_link_score = 0.05;
  size_t max_candidates = 8;
  /// Neighborhood cap when building entity context bags.
  size_t max_context_neighbors = 64;
};

/// Outcome of linking one mention.
struct LinkDecision {
  std::string surface;
  VertexId vertex = kInvalidVertex;
  bool created_new = false;
  double score = 0.0;
  size_t num_candidates = 0;
};

/// AIDA-style entity linker adapted to a dynamic KG (§3.3): candidate
/// generation from an alias dictionary with popularity priors, local
/// prior+context scoring, and a joint disambiguation stage that
/// iteratively discards globally incoherent candidates. Mentions with
/// no acceptable candidate create new KG vertices, which are then
/// registered so later documents can link to them.
class EntityLinker {
 public:
  /// `graph` must outlive the linker and is mutated when new entities
  /// are created.
  explicit EntityLinker(PropertyGraph* graph, LinkerConfig config = {});

  /// Registers an existing KG vertex under each surface form.
  void RegisterEntity(VertexId vertex,
                      const std::vector<std::string>& surfaces,
                      double prior);

  /// Jointly links all mentions of one document against the current
  /// KG. `doc_bag` is the document's content-word bag. Repeated
  /// surfaces resolve identically. New entities are created (and typed
  /// from `types`, parallel to `surfaces`) when no candidate clears
  /// min_link_score.
  std::vector<LinkDecision> LinkMentions(
      const std::vector<std::string>& surfaces,
      const std::vector<EntityType>& types, const TermBag& doc_bag);

  /// Single-mention convenience wrapper.
  LinkDecision LinkOne(const std::string& surface, EntityType type,
                       const TermBag& doc_bag);

  /// Candidate vertices (with priors) currently registered for a
  /// surface form; exposed for tests and diagnostics.
  std::vector<std::pair<VertexId, double>> CandidatesFor(
      std::string_view surface) const;

  /// Distinct KG neighbors of `vertex` (out and in), ascending, as the
  /// coherence stage reads them; first absorbs the adjacency entries
  /// appended since the last read. Exposed for tests and diagnostics.
  const std::vector<VertexId>& Neighbors(VertexId vertex);

  size_t num_created() const { return num_created_; }

  /// Checkpoint serialization of the alias index (surfaces in sorted
  /// order, candidate lists in registration order) plus counters.
  /// The graph pointer and config are reconstructed by the caller, and
  /// the derived word ids start cold again on load.
  void SaveBinary(BinaryWriter* writer) const;
  Status LoadBinary(BinaryReader* reader);

 private:
  struct ScoredCandidate {
    VertexId vertex;
    double local_score;
    double total_score;
  };

  /// Local scores of `surface`'s candidates against the document set
  /// on context_ (best first, capped at max_candidates).
  std::vector<ScoredCandidate> ScoreCandidates(const std::string& surface);

  /// A vertex's distinct KG neighbors, ascending, and how many of its
  /// out- and in-entries they cover. The KG is append-only, so entries
  /// past those counts are the only ones a later read must absorb.
  struct NeighborSet {
    std::vector<VertexId> ids;
    size_t out_seen = 0;
    size_t in_seen = 0;
  };

  /// Brings `vertex`'s neighbor set up to date with its adjacency;
  /// returns the adjacency entries read.
  uint64_t AbsorbNeighbors(VertexId vertex);

  /// Brings every candidate's neighbor set up to date for the
  /// coherence stage and resets the per-document memos. Returns the
  /// adjacency entries read.
  uint64_t CollectNeighbors(
      const std::vector<std::vector<ScoredCandidate>>& candidates);

  /// Adamic-Adar overlap of two candidates' neighborhoods, normalized by
  /// the smaller one; memoized per document.
  double Relatedness(VertexId a, VertexId b);

  /// Ontology-ish type name for a new vertex created from a mention.
  static const char* TypeNameFor(EntityType type);

  PropertyGraph* graph_;  // not owned
  LinkerConfig config_;
  std::unordered_map<std::string, std::vector<std::pair<VertexId, double>>>
      alias_index_;
  double max_prior_ = 1.0;
  size_t num_created_ = 0;

  // ---- Derived state (never serialized; LoadBinary clears it). ----
  ContextScorer context_;
  std::vector<NeighborSet> neighbors_;  // VertexId
  // Per-document working state.
  StampSet has_inverse_log_degree_;  // VertexId: memoized this document
  std::vector<double> inverse_log_degree_;  // VertexId
  // Relatedness of (min, max) candidate pairs, this document.
  std::unordered_map<uint64_t, double> relatedness_memo_;
};

}  // namespace nous

#endif  // NOUS_LINKER_ENTITY_LINKER_H_
