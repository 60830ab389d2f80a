#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/random.h"
#include "common/string_util.h"
#include "graph/property_graph.h"
#include "linker/context.h"
#include "linker/entity_linker.h"
#include "text/lexicon.h"

namespace nous {
namespace {

// ---------- String-keyed reference oracle ----------
//
// The linker's original context model: entity bags keyed by
// lower-cased strings, rebuilt per candidate, and a hash-map cosine.
// ContextScorer must reproduce its scores bit for bit.

TermBag BuildEntityBag(const PropertyGraph& graph, VertexId v,
                       size_t max_neighbors = 64) {
  TermBag bag;
  if (v >= graph.NumVertices()) return bag;
  std::vector<std::pair<TermId, double>> terms(graph.VertexBag(v).begin(),
                                               graph.VertexBag(v).end());
  std::sort(terms.begin(), terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [term, weight] : terms) {
    bag[ToLower(graph.terms().GetString(term))] += weight;
  }
  size_t taken = 0;
  auto add_neighbor_terms = [&](const std::vector<AdjEntry>& adj) {
    for (const AdjEntry& a : adj) {
      if (taken >= max_neighbors) return;
      ++taken;
      for (const std::string& word :
           SplitWhitespace(graph.VertexLabel(a.neighbor))) {
        if (word.size() < 2) continue;
        bag[ToLower(word)] += 1.0;
      }
    }
  };
  add_neighbor_terms(graph.OutEdges(v));
  add_neighbor_terms(graph.InEdges(v));
  return bag;
}

double CosineSimilarity(const TermBag& a, const TermBag& b) {
  if (a.empty() || b.empty()) return 0.0;
  const TermBag& small = a.size() <= b.size() ? a : b;
  const TermBag& large = a.size() <= b.size() ? b : a;
  double dot = 0;
  for (const auto& [term, weight] : small) {
    auto it = large.find(term);
    if (it != large.end()) dot += weight * it->second;
  }
  if (dot == 0) return 0;
  double norm_a = 0, norm_b = 0;
  for (const auto& [term, weight] : a) norm_a += weight * weight;
  for (const auto& [term, weight] : b) norm_b += weight * weight;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

/// The reference local context score: the document bag minus the
/// mention's own words, against the entity bag.
double ReferenceSimilarity(const PropertyGraph& graph, const TermBag& doc,
                           const std::string& surface, VertexId v) {
  TermBag context = doc;
  for (const std::string& word : SplitWhitespace(surface)) {
    context.erase(ToLower(word));
  }
  return CosineSimilarity(context, BuildEntityBag(graph, v));
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// ---------- Context bags ----------

TEST(ContextTest, DocumentBagDropsStopwordsAndNumbers) {
  Lexicon lexicon = Lexicon::Default();
  TermBag bag = BuildDocumentBag(
      "The drone market is growing in 2014 and the drone sales rose",
      lexicon);
  EXPECT_EQ(bag.count("the"), 0u);
  EXPECT_EQ(bag.count("2014"), 0u);
  EXPECT_EQ(bag.count("in"), 0u);
  EXPECT_DOUBLE_EQ(bag.at("drone"), 2.0);
  EXPECT_EQ(bag.count("market"), 1u);
}

TEST(ContextTest, EntityBagMergesStoredTermsAndNeighborhood) {
  PropertyGraph g;
  VertexId dji = g.GetOrAddVertex("DJI");
  VertexId phantom = g.GetOrAddVertex("Phantom 3");
  g.AddVertexTerm(dji, g.terms().Intern("quadcopter"), 2.0);
  g.AddEdge(dji, g.predicates().Intern("manufactures"), phantom, {});
  TermBag bag = BuildEntityBag(g, dji);
  EXPECT_GT(bag.at("quadcopter"), 0);
  // Neighbor label tokens appear ("phantom" from "Phantom 3").
  EXPECT_GT(bag.count("phantom"), 0u);
}

TEST(ContextTest, CosineSimilarityBasics) {
  TermBag a = {{"x", 1.0}, {"y", 1.0}};
  TermBag b = {{"x", 1.0}, {"y", 1.0}};
  TermBag c = {{"z", 1.0}};
  EXPECT_NEAR(CosineSimilarity(a, b), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, c), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, {}), 0.0);
}

// ---------- EntityLinker ----------

class LinkerFixture : public ::testing::Test {
 protected:
  LinkerFixture() : linker_(&graph_) {
    // Two entities sharing the surface "Phoenix": a city and a drone
    // company — the ambiguity case from the corpus generator.
    city_ = graph_.GetOrAddVertex("Phoenix");
    graph_.SetVertexType(city_, graph_.types().Intern("city"));
    graph_.AddVertexTerm(city_, graph_.terms().Intern("city"), 3.0);
    graph_.AddVertexTerm(city_, graph_.terms().Intern("arizona"), 2.0);
    graph_.AddVertexTerm(city_, graph_.terms().Intern("metro"), 2.0);

    company_ = graph_.GetOrAddVertex("Phoenix Labs");
    graph_.SetVertexType(company_, graph_.types().Intern("company"));
    graph_.AddVertexTerm(company_, graph_.terms().Intern("drone"), 3.0);
    graph_.AddVertexTerm(company_, graph_.terms().Intern("quadcopter"),
                         2.0);
    graph_.AddVertexTerm(company_, graph_.terms().Intern("startup"), 2.0);

    linker_.RegisterEntity(city_, {"Phoenix"}, 5.0);
    linker_.RegisterEntity(company_, {"Phoenix Labs", "Phoenix"}, 2.0);
  }
  PropertyGraph graph_;
  EntityLinker linker_;
  VertexId city_;
  VertexId company_;
};

TEST_F(LinkerFixture, CandidatesIncludeBothHomonyms) {
  EXPECT_EQ(linker_.CandidatesFor("Phoenix").size(), 2u);
  EXPECT_EQ(linker_.CandidatesFor("phoenix").size(), 2u);
  EXPECT_EQ(linker_.CandidatesFor("Phoenix Labs").size(), 1u);
}

TEST_F(LinkerFixture, ContextDisambiguatesHomonym) {
  TermBag drone_doc = {{"drone", 2.0}, {"quadcopter", 1.0},
                       {"startup", 1.0}};
  TermBag city_doc = {{"city", 2.0}, {"arizona", 1.0}, {"metro", 1.0}};
  LinkDecision d1 =
      linker_.LinkOne("Phoenix", EntityType::kOrganization, drone_doc);
  EXPECT_EQ(d1.vertex, company_);
  EXPECT_FALSE(d1.created_new);
  LinkDecision d2 =
      linker_.LinkOne("Phoenix", EntityType::kLocation, city_doc);
  EXPECT_EQ(d2.vertex, city_);
}

TEST_F(LinkerFixture, UnknownSurfaceCreatesNewVertex) {
  size_t before = graph_.NumVertices();
  LinkDecision d = linker_.LinkOne("Aero Dynamics Inc",
                                   EntityType::kOrganization, {});
  EXPECT_TRUE(d.created_new);
  EXPECT_EQ(graph_.NumVertices(), before + 1);
  EXPECT_EQ(graph_.VertexLabel(d.vertex), "Aero Dynamics Inc");
  EXPECT_EQ(graph_.types().GetString(graph_.VertexType(d.vertex)),
            "organization");
  EXPECT_EQ(linker_.num_created(), 1u);
  // Second occurrence links to the created vertex.
  LinkDecision d2 = linker_.LinkOne("Aero Dynamics Inc",
                                    EntityType::kOrganization, {});
  EXPECT_EQ(d2.vertex, d.vertex);
  EXPECT_FALSE(d2.created_new);
}

TEST_F(LinkerFixture, RepeatedSurfaceWithinDocumentResolvesOnce) {
  auto decisions = linker_.LinkMentions(
      {"New Widget Co", "New Widget Co"},
      {EntityType::kOrganization, EntityType::kOrganization}, {});
  EXPECT_EQ(decisions[0].vertex, decisions[1].vertex);
  EXPECT_EQ(linker_.num_created(), 1u);
}

TEST_F(LinkerFixture, CoherenceBoostsConnectedCandidates) {
  // "Phantom 3" is linked in the KG to Phoenix Labs; mentioning both in
  // one document should pull "Phoenix" toward the company even with a
  // neutral context bag. Uses an explicit coherence weight: the test
  // exercises the mechanism, not the (deliberately modest) default.
  VertexId phantom = graph_.GetOrAddVertex("Phantom 3");
  graph_.AddEdge(company_, graph_.predicates().Intern("manufactures"),
                 phantom, {});
  // Shared neighbor for coherence: a supplier connected to both.
  VertexId supplier = graph_.GetOrAddVertex("PartsCo");
  graph_.AddEdge(supplier, graph_.predicates().Intern("supplies"),
                 company_, {});
  graph_.AddEdge(supplier, graph_.predicates().Intern("supplies"),
                 phantom, {});
  LinkerConfig config;
  config.coherence_weight = 0.6;
  EntityLinker linker(&graph_, config);
  linker.RegisterEntity(city_, {"Phoenix"}, 5.0);
  linker.RegisterEntity(company_, {"Phoenix Labs", "Phoenix"}, 2.0);
  linker.RegisterEntity(phantom, {"Phantom 3"}, 3.0);

  auto decisions = linker.LinkMentions(
      {"Phoenix", "Phantom 3"},
      {EntityType::kOrganization, EntityType::kProduct}, {});
  EXPECT_EQ(decisions[1].vertex, phantom);
  EXPECT_EQ(decisions[0].vertex, company_);
}

TEST_F(LinkerFixture, NeighborhoodContextGrowsWithDynamicKg) {
  // Initially a neutral "drone startup" doc cannot beat the city's
  // higher prior without context; after the company gains drone-themed
  // neighbors, the same linking flips to the company.
  TermBag doc = {{"skyward", 1.0}, {"deal", 1.0}};
  LinkDecision before =
      linker_.LinkOne("Phoenix", EntityType::kOrganization, doc);
  EXPECT_EQ(before.vertex, city_);  // prior wins without context

  VertexId skyward = graph_.GetOrAddVertex("SkyWard Deal Partners");
  graph_.AddEdge(company_, graph_.predicates().Intern("acquired"),
                 skyward, {});
  LinkDecision after =
      linker_.LinkOne("Phoenix", EntityType::kOrganization, doc);
  EXPECT_EQ(after.vertex, company_);  // neighborhood terms now match
}

// ---------- Word-id scoring vs the string-keyed oracle ----------

// Words whose case variants collide after lower-casing, plus 1-byte
// words the entity bag drops.
const std::vector<std::string>& Vocabulary() {
  static const std::vector<std::string> words = {
      "Drone", "drone", "DRONE", "Sky",    "sky",     "Labs",    "labs",
      "city",  "Arizona", "metro", "quad", "a",       "X",       "deal",
      "camera", "Gimbal", "gimbal", "Aero", "battery", "Partners"};
  return words;
}

std::string RandomWords(Rng* rng, int lo, int hi) {
  const auto& vocab = Vocabulary();
  std::string out;
  int count = static_cast<int>(rng->UniformRange(lo, hi));
  for (int i = 0; i < count; ++i) {
    if (!out.empty()) out += ' ';
    out += vocab[rng->UniformInt(vocab.size())];
  }
  return out;
}

/// The weights the pipeline stores: integers and multiples of 0.5.
double RandomHalfWeight(Rng* rng) {
  return 0.5 * static_cast<double>(rng->UniformRange(1, 6));
}

/// A random KG with multi-edges, case-colliding terms, vertices on
/// both sides of the 64-entry neighbor cap, and one hub of degree
/// >= 300 (vertex 0).
void BuildRandomKg(uint64_t seed, PropertyGraph* g) {
  Rng rng(seed);
  const size_t num_vertices = 160;
  for (size_t i = 0; i < num_vertices; ++i) {
    VertexId v = g->GetOrAddVertex(RandomWords(&rng, 1, 3) + " " +
                                   std::to_string(i));
    int terms = static_cast<int>(rng.UniformRange(0, 6));
    for (int t = 0; t < terms; ++t) {
      g->AddVertexTerm(v, g->terms().Intern(RandomWords(&rng, 1, 1)),
                       RandomHalfWeight(&rng));
    }
  }
  std::vector<PredicateId> predicates = {g->predicates().Intern("owns"),
                                         g->predicates().Intern("near"),
                                         g->predicates().Intern("makes")};
  auto random_vertex = [&] {
    return static_cast<VertexId>(rng.UniformInt(num_vertices));
  };
  auto add = [&](VertexId s, VertexId o) {
    PredicateId p = predicates[rng.UniformInt(predicates.size())];
    g->AddEdge(s, p, o, {});
    if (rng.Bernoulli(0.15)) g->AddEdge(s, p, o, {});  // multi-edge
  };
  for (int i = 0; i < 340; ++i) {
    VertexId other = random_vertex();
    if (other == 0) continue;
    if (rng.Bernoulli(0.5)) {
      add(0, other);
    } else {
      add(other, 0);
    }
  }
  for (VertexId busy = 1; busy <= 4; ++busy) {  // > 64 entries each
    for (int i = 0; i < 90; ++i) add(busy, random_vertex());
  }
  for (int i = 0; i < 400; ++i) add(random_vertex(), random_vertex());
}

TermBag RandomDocBag(Rng* rng) {
  TermBag bag;
  int words = static_cast<int>(rng->UniformRange(0, 12));
  for (int i = 0; i < words; ++i) {
    std::string word = RandomWords(rng, 1, 1);
    // Mostly lower-cased keys, as BuildDocumentBag makes them; a few
    // verbatim ones, which match no entity word.
    if (!rng->Bernoulli(0.1)) word = ToLower(word);
    bag[word] += static_cast<double>(rng->UniformRange(1, 4));
  }
  return bag;
}

TEST(ContextScorerTest, MatchesStringKeyedReferenceBitwise) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    PropertyGraph g;
    BuildRandomKg(seed, &g);
    ASSERT_GE(g.OutDegree(0) + g.InDegree(0), 300u);
    ContextScorer scorer(&g, 64);
    Rng rng(seed * 7919);
    size_t nonzero = 0;
    for (int doc = 0; doc < 25; ++doc) {
      TermBag bag = RandomDocBag(&rng);
      scorer.SetDocument(bag);
      for (int mention = 0; mention < 4; ++mention) {
        std::string surface = RandomWords(&rng, 1, 2);
        scorer.SetMention(surface);
        for (VertexId v = 0; v < g.NumVertices(); v += 3) {
          double expected = ReferenceSimilarity(g, bag, surface, v);
          double actual = scorer.Similarity(v);
          ASSERT_EQ(Bits(actual), Bits(expected))
              << "seed " << seed << " doc " << doc << " vertex " << v
              << ": " << actual << " vs " << expected;
          if (expected != 0) ++nonzero;
        }
      }
      // The KG grows between documents: new vertices, terms and edges
      // reach the lazily derived word lists.
      VertexId fresh = g.GetOrAddVertex("Fresh Sky " + std::to_string(doc));
      g.AddVertexTerm(fresh, g.terms().Intern("Camera"), 1.5);
      g.AddEdge(fresh, g.predicates().Intern("near"),
                static_cast<VertexId>(rng.UniformInt(g.NumVertices())), {});
      g.AddEdge(static_cast<VertexId>(rng.UniformInt(g.NumVertices())),
                g.predicates().Intern("owns"), fresh, {});
    }
    EXPECT_GT(nonzero, 200u) << "seed " << seed;
  }
}

TEST(ContextScorerTest, ClearedScorerRederivesWords) {
  PropertyGraph g;
  BuildRandomKg(4, &g);
  ContextScorer scorer(&g, 64);
  TermBag bag = {{"drone", 2.0}, {"sky", 1.0}, {"camera", 3.0}};
  scorer.SetDocument(bag);
  scorer.SetMention("Sky");
  const double warm = scorer.Similarity(0);
  scorer.Clear();
  scorer.SetDocument(bag);
  scorer.SetMention("Sky");
  EXPECT_EQ(Bits(scorer.Similarity(0)), Bits(warm));
  EXPECT_EQ(Bits(warm), Bits(ReferenceSimilarity(g, bag, "Sky", 0)));
}

TEST(ContextScorerTest, WordTableStaysBoundedByTheKgVocabulary) {
  PropertyGraph g;
  BuildRandomKg(5, &g);
  ContextScorer scorer(&g, 64);
  TermBag bag = {{"drone", 2.0}, {"sky", 1.0}, {"camera", 3.0}};
  const double expected = ReferenceSimilarity(g, bag, "Sky", 0);
  // A stream of documents with ever new words: the table is rebuilt
  // instead of growing with the vocabulary, and scores do not move.
  size_t peak = 0;
  for (int doc = 0; doc < 40; ++doc) {
    TermBag noisy = bag;
    for (int w = 0; w < 4000; ++w) {
      noisy["w" + std::to_string(doc) + "x" + std::to_string(w)] = 1.0;
    }
    scorer.SetDocument(noisy);
    peak = std::max(peak, scorer.num_words());
    scorer.SetDocument(bag);
    scorer.SetMention("Sky");
    ASSERT_EQ(Bits(scorer.Similarity(0)), Bits(expected)) << "doc " << doc;
  }
  EXPECT_LT(peak, 100000u);
}

// ---------- Linking a document stream around a hub ----------

// A KG around "Drone Hub" (degree >= 300) with homonym aliases, and a
// deterministic document stream whose decisions feed back into the KG
// the way KgPipeline::CommitDocument does: new entities are seeded
// with the document bag, co-mentioned entities get related edges.
class HubStream {
 public:
  static constexpr int kDocs = 60;

  static void BuildKg(PropertyGraph* g, EntityLinker* linker) {
    Rng rng(2024);
    static const char* kHomonyms[] = {"Phoenix", "Atlas", "Nova", "Orion"};
    VertexId hub = g->GetOrAddVertex("Drone Hub");
    g->AddVertexTerm(hub, g->terms().Intern("drone"));
    linker->RegisterEntity(hub, {"Drone Hub", "Atlas"}, 9.0);
    std::vector<VertexId> entities;
    for (int i = 0; i < 40; ++i) {
      std::string label = Words(&rng, 2) + " Co " + std::to_string(i);
      VertexId v = g->GetOrAddVertex(label);
      for (int t = 0; t < 3; ++t) {
        g->AddVertexTerm(v, g->terms().Intern(Words(&rng, 1)));
      }
      linker->RegisterEntity(v, {label, kHomonyms[i % 4]},
                             static_cast<double>(rng.UniformRange(1, 8)));
      entities.push_back(v);
    }
    PredicateId linked = g->predicates().Intern("linked");
    for (int i = 0; i < 320; ++i) {
      VertexId node = g->GetOrAddVertex("Node " + Words(&rng, 1) + " " +
                                        std::to_string(i));
      if (i % 2 == 0) {
        g->AddEdge(hub, linked, node, {});
      } else {
        g->AddEdge(node, linked, hub, {});
      }
      // Entities share hub-side neighbors: coherence runs over them.
      VertexId e = entities[rng.UniformInt(entities.size())];
      if (rng.Bernoulli(0.3)) g->AddEdge(e, linked, node, {});
    }
    for (int i = 0; i < 60; ++i) {
      VertexId a = entities[rng.UniformInt(entities.size())];
      VertexId b = entities[rng.UniformInt(entities.size())];
      if (a != b) g->AddEdge(a, linked, b, {});
      if (i % 3 == 0) g->AddEdge(hub, linked, a, {});
    }
  }

  struct Doc {
    std::vector<std::string> surfaces;
    std::vector<EntityType> types;
    TermBag bag;
  };

  static Doc MakeDoc(int index) {
    Rng rng(1000 + static_cast<uint64_t>(index));
    static const char* kSurfaces[] = {"Phoenix", "Atlas", "Nova", "Orion",
                                      "Drone Hub"};
    Doc doc;
    int mentions = static_cast<int>(rng.UniformRange(2, 5));
    for (int m = 0; m < mentions; ++m) {
      std::string surface;
      if (rng.Bernoulli(0.2)) {
        surface = "Newco " + std::to_string(rng.UniformInt(6));
      } else {
        surface = kSurfaces[rng.UniformInt(5)];
      }
      if (std::find(doc.surfaces.begin(), doc.surfaces.end(), surface) !=
          doc.surfaces.end()) {
        continue;
      }
      doc.surfaces.push_back(surface);
      doc.types.push_back(EntityType::kOrganization);
    }
    int words = static_cast<int>(rng.UniformRange(3, 10));
    for (int w = 0; w < words; ++w) {
      doc.bag[ToLower(Words(&rng, 1))] +=
          static_cast<double>(rng.UniformRange(1, 3));
    }
    doc.bag["atlas"] += 1.0;  // a mention word the context must skip
    return doc;
  }

  /// The commit-side KG writes that follow linking.
  static void Apply(PropertyGraph* g, const Doc& doc,
                    const std::vector<LinkDecision>& decisions) {
    for (const LinkDecision& d : decisions) {
      if (!d.created_new) continue;
      for (const auto& [term, weight] : doc.bag) {
        g->AddVertexTerm(d.vertex, g->terms().Intern(term),
                         std::min(weight, 3.0) * 0.5);
      }
    }
    PredicateId related = g->predicates().Intern("related");
    for (size_t i = 1; i < decisions.size(); ++i) {
      if (decisions[i - 1].vertex != decisions[i].vertex) {
        g->AddEdge(decisions[i - 1].vertex, related, decisions[i].vertex,
                   {});
      }
    }
  }

 private:
  static std::string Words(Rng* rng, int count) {
    static const char* kWords[] = {"Drone", "Sky",    "Camera", "Gimbal",
                                   "Metro", "Aero",   "Quad",   "Battery",
                                   "Farm",  "Survey", "Racing", "Chip"};
    std::string out;
    for (int i = 0; i < count; ++i) {
      if (!out.empty()) out += ' ';
      out += kWords[rng->UniformInt(12)];
    }
    return out;
  }
};

/// FNV-1a step over the 8 bytes of `value`.
uint64_t Mix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Every decision's vertex, creation flag and candidate count, as the
// string-keyed linker this scorer replaced recorded them.
constexpr uint64_t kPinnedDecisionHash = 0x74c41258ce0f3389ULL;
// Every decision's score bits. Local scores are exact, so only the
// coherence term can move: relatedness sums shared neighbors in
// ascending VertexId order, where the string-keyed linker summed them
// in hash-set order, and that leaves one hub score 1 ulp apart.
constexpr uint64_t kPinnedScoreHash = 0x8b80e31f3bc74af3ULL;

TEST(LinkerHubStreamTest, DecisionsAndScoresArePinned) {
  PropertyGraph g;
  EntityLinker linker(&g);
  HubStream::BuildKg(&g, &linker);
  ASSERT_GE(g.OutDegree(0) + g.InDegree(0), 300u);
  uint64_t decision_hash = 0xcbf29ce484222325ULL;
  uint64_t score_hash = decision_hash;
  size_t created = 0, linked_hub = 0;
  for (int i = 0; i < HubStream::kDocs; ++i) {
    HubStream::Doc doc = HubStream::MakeDoc(i);
    std::vector<LinkDecision> decisions =
        linker.LinkMentions(doc.surfaces, doc.types, doc.bag);
    for (const LinkDecision& d : decisions) {
      decision_hash = Mix(decision_hash, d.vertex);
      decision_hash = Mix(decision_hash, d.created_new ? 1 : 0);
      decision_hash = Mix(decision_hash, d.num_candidates);
      score_hash = Mix(score_hash, Bits(d.score));
      created += d.created_new ? 1 : 0;
      linked_hub += d.vertex == 0 ? 1 : 0;
    }
    HubStream::Apply(&g, doc, decisions);
  }
  EXPECT_EQ(created, 6u);
  EXPECT_EQ(linked_hub, 30u);
  EXPECT_EQ(decision_hash, kPinnedDecisionHash);
  EXPECT_EQ(score_hash, kPinnedScoreHash);
}

TEST(LinkerRecoveryTest, RestoredLinkerMatchesLiveLinker) {
  PropertyGraph live_graph;
  EntityLinker live(&live_graph);
  HubStream::BuildKg(&live_graph, &live);
  const int split = HubStream::kDocs / 2;
  for (int i = 0; i < split; ++i) {
    HubStream::Doc doc = HubStream::MakeDoc(i);
    HubStream::Apply(&live_graph, doc,
                     live.LinkMentions(doc.surfaces, doc.types, doc.bag));
  }
  BinaryWriter writer;
  live_graph.SaveBinary(&writer);
  live.SaveBinary(&writer);
  // The restored linker starts with a cold word table and interns in a
  // different order than the live one did.
  PropertyGraph restored_graph;
  EntityLinker restored(&restored_graph);
  BinaryReader reader(writer.data());
  ASSERT_TRUE(restored_graph.LoadBinary(&reader).ok());
  ASSERT_TRUE(restored.LoadBinary(&reader).ok());
  ASSERT_TRUE(reader.AtEnd());
  for (int i = split; i < HubStream::kDocs; ++i) {
    HubStream::Doc doc = HubStream::MakeDoc(i);
    std::vector<LinkDecision> a =
        live.LinkMentions(doc.surfaces, doc.types, doc.bag);
    std::vector<LinkDecision> b =
        restored.LinkMentions(doc.surfaces, doc.types, doc.bag);
    ASSERT_EQ(a.size(), b.size());
    for (size_t m = 0; m < a.size(); ++m) {
      EXPECT_EQ(a[m].vertex, b[m].vertex) << "doc " << i;
      EXPECT_EQ(a[m].created_new, b[m].created_new) << "doc " << i;
      EXPECT_EQ(a[m].num_candidates, b[m].num_candidates) << "doc " << i;
      EXPECT_EQ(Bits(a[m].score), Bits(b[m].score)) << "doc " << i;
    }
    HubStream::Apply(&live_graph, doc, a);
    HubStream::Apply(&restored_graph, doc, b);
  }
}

/// Every distinct out- and in-neighbor of `v`, ascending, by a full
/// scan of its adjacency.
std::vector<VertexId> ScannedNeighbors(const PropertyGraph& g, VertexId v) {
  std::vector<VertexId> ids;
  for (const AdjEntry& a : g.OutEdges(v)) ids.push_back(a.neighbor);
  for (const AdjEntry& a : g.InEdges(v)) ids.push_back(a.neighbor);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Checks every candidate of every surface `doc` mentions against the
/// full-scan oracle.
void ExpectNeighborSetsMatchScan(const PropertyGraph& g, EntityLinker* linker,
                                 const HubStream::Doc& doc, int index) {
  for (const std::string& surface : doc.surfaces) {
    for (const auto& [vertex, prior] : linker->CandidatesFor(surface)) {
      EXPECT_EQ(linker->Neighbors(vertex), ScannedNeighbors(g, vertex))
          << "doc " << index << " candidate " << vertex;
    }
  }
}

TEST(LinkerNeighborSetTest, IncrementalSetsMatchFullScan) {
  // The linker absorbs only adjacency appended since a candidate's last
  // read; the sets must equal a full scan of the current KG, on the
  // live linker mid-stream (the hub's set is read by one document and
  // grown by the next) and on one restored by LoadBinary, which starts
  // cold and then grows the same way.
  PropertyGraph live_graph;
  EntityLinker live(&live_graph);
  HubStream::BuildKg(&live_graph, &live);
  const int split = HubStream::kDocs / 2;
  for (int i = 0; i < split; ++i) {
    HubStream::Doc doc = HubStream::MakeDoc(i);
    std::vector<LinkDecision> decisions =
        live.LinkMentions(doc.surfaces, doc.types, doc.bag);
    HubStream::Apply(&live_graph, doc, decisions);
    ExpectNeighborSetsMatchScan(live_graph, &live, doc, i);
  }
  BinaryWriter writer;
  live_graph.SaveBinary(&writer);
  live.SaveBinary(&writer);
  PropertyGraph restored_graph;
  EntityLinker restored(&restored_graph);
  BinaryReader reader(writer.data());
  ASSERT_TRUE(restored_graph.LoadBinary(&reader).ok());
  ASSERT_TRUE(restored.LoadBinary(&reader).ok());
  for (int i = split; i < HubStream::kDocs; ++i) {
    HubStream::Doc doc = HubStream::MakeDoc(i);
    HubStream::Apply(&restored_graph, doc,
                     restored.LinkMentions(doc.surfaces, doc.types, doc.bag));
    ExpectNeighborSetsMatchScan(restored_graph, &restored, doc, i);
  }

  // LoadBinary drops sets built against the graph it replaces: a linker
  // that read a larger graph's hub reloads onto a smaller one.
  PropertyGraph small_graph;
  EntityLinker reused(&small_graph);
  HubStream::BuildKg(&small_graph, &reused);
  ASSERT_FALSE(reused.Neighbors(0).empty());
  BinaryWriter small;
  PropertyGraph empty_graph;
  empty_graph.GetOrAddVertex("Drone Hub");
  empty_graph.SaveBinary(&small);
  reused.SaveBinary(&small);
  BinaryReader small_reader(small.data());
  ASSERT_TRUE(small_graph.LoadBinary(&small_reader).ok());
  ASSERT_TRUE(reused.LoadBinary(&small_reader).ok());
  EXPECT_TRUE(reused.Neighbors(0).empty());
}

}  // namespace
}  // namespace nous
