#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/nous.h"
#include "core/pipeline.h"
#include "corpus/article_generator.h"
#include "corpus/document_stream.h"
#include "corpus/world_model.h"
#include "graph/graph_io.h"
#include "kb/kb_generator.h"
#include "common/status.h"

namespace nous {
namespace {

/// Small end-to-end world shared by the integration tests.
class NousFixture : public ::testing::Test {
 protected:
  NousFixture()
      : world_(WorldModel::BuildDroneWorld(WorldConfig())),
        kb_(BuildCuratedKb(world_, Ontology::DroneDefault(), Coverage())) {}

  static DroneWorldConfig WorldConfig() {
    DroneWorldConfig config;
    config.num_companies = 12;
    config.num_people = 8;
    config.num_products = 8;
    config.num_events = 80;
    config.seed = 7;
    return config;
  }
  static KbCoverage Coverage() {
    KbCoverage coverage;
    coverage.entity_coverage = 0.6;
    coverage.fact_coverage = 0.9;
    return coverage;
  }
  static Nous::Options FastOptions() {
    Nous::Options options;
    options.pipeline.lda.iterations = 40;
    options.pipeline.bpr.epochs = 5;
    options.pipeline.miner.min_support = 3;
    return options;
  }
  std::vector<Article> MakeArticles(double noise = 0.2) {
    CorpusConfig config;
    config.pronoun_rate = noise;
    config.alias_rate = noise;
    config.passive_rate = noise;
    return ArticleGenerator(&world_, config).GenerateArticles();
  }

  WorldModel world_;
  CuratedKb kb_;
};

TEST_F(NousFixture, CuratedKbLoadedAtConstruction) {
  Nous nous(&kb_, FastOptions());
  GraphStats stats = nous.ComputeStats();
  EXPECT_EQ(stats.curated_edges, kb_.facts().size());
  EXPECT_EQ(stats.extracted_edges, 0u);
  EXPECT_GE(stats.vertices, kb_.entities().size());
}

TEST_F(NousFixture, StreamIngestionGrowsFusedKg) {
  Nous nous(&kb_, FastOptions());
  DocumentStream stream(MakeArticles());
  NOUS_CHECK_OK(nous.IngestStream(&stream));

  GraphStats stats = nous.ComputeStats();
  EXPECT_GT(stats.extracted_edges, 20u);
  EXPECT_EQ(stats.curated_edges, kb_.facts().size());
  // Confidence always in [0, 1]; provenance always present.
  nous.graph().ForEachEdge([&](EdgeId, const EdgeRecord& rec) {
    EXPECT_GE(rec.meta.confidence, 0.0);
    EXPECT_LE(rec.meta.confidence, 1.0);
    EXPECT_NE(rec.meta.source, kInvalidSource);
  });
  const PipelineStats& ps = nous.stats();
  EXPECT_EQ(ps.documents, stream.TotalCount());
  EXPECT_GT(ps.extractions, 0u);
  EXPECT_GT(ps.mapped_triples, 0u);
  EXPECT_FALSE(ps.ToString().empty());
}

TEST_F(NousFixture, GoldFactRecoveryOnCleanCorpus) {
  Nous nous(&kb_, FastOptions());
  auto articles = MakeArticles(/*noise=*/0.0);
  size_t gold_total = 0;
  for (const Article& a : articles) gold_total += a.gold.size();
  DocumentStream stream(articles);
  NOUS_CHECK_OK(nous.IngestStream(&stream));

  // A gold fact counts as recovered if the fused KG has an edge
  // (subject, predicate, object) under the canonical names.
  const PropertyGraph& g = nous.graph();
  size_t recovered = 0;
  for (const Article& a : articles) {
    for (const TimedTriple& gold : a.gold) {
      auto s = g.FindVertex(gold.triple.subject);
      auto o = g.FindVertex(gold.triple.object);
      auto p = g.predicates().Lookup(gold.triple.predicate);
      if (s && o && p && g.HasEdge(*s, *p, *o)) ++recovered;
    }
  }
  double recall = static_cast<double>(recovered) /
                  static_cast<double>(gold_total);
  EXPECT_GT(recall, 0.6) << "end-to-end recall " << recall << " ("
                         << recovered << "/" << gold_total << ")";
}

TEST_F(NousFixture, EntityQueryAfterIngestion) {
  Nous nous(&kb_, FastOptions());
  DocumentStream stream(MakeArticles());
  NOUS_CHECK_OK(nous.IngestStream(&stream));
  auto answer = nous.Ask("tell me about DJI");
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->facts.empty());
  // Curated facts sort before extracted ones.
  bool seen_extracted = false;
  for (const FactLine& f : answer->facts) {
    if (!f.curated) seen_extracted = true;
    if (f.curated) {
      EXPECT_FALSE(seen_extracted);
    }
  }
}

TEST_F(NousFixture, TrendingAndPatternQueriesWork) {
  Nous nous(&kb_, FastOptions());
  DocumentStream stream(MakeArticles());
  NOUS_CHECK_OK(nous.IngestStream(&stream));
  auto trending = nous.Ask("what is trending");
  ASSERT_TRUE(trending.ok());
  EXPECT_FALSE(trending->hot_entities.empty());
  auto patterns = nous.Ask("show patterns");
  ASSERT_TRUE(patterns.ok());  // may be empty but must not fail
}

TEST_F(NousFixture, RelationshipAnswerSpansMultipleSources) {
  Nous nous(&kb_, FastOptions());
  DocumentStream stream(MakeArticles());
  NOUS_CHECK_OK(nous.IngestStream(&stream));
  // Find any pair connected by a 2-hop path; ask for an explanation.
  const PropertyGraph& g = nous.graph();
  VertexId origin = kInvalidVertex;
  VertexId two_hops = kInvalidVertex;
  for (VertexId v = 0; v < g.NumVertices() && two_hops == kInvalidVertex;
       ++v) {
    for (const AdjEntry& a : g.OutEdges(v)) {
      for (const AdjEntry& b : g.OutEdges(a.neighbor)) {
        if (b.neighbor != v) {
          origin = v;
          two_hops = b.neighbor;
          break;
        }
      }
      if (two_hops != kInvalidVertex) break;
    }
  }
  ASSERT_NE(two_hops, kInvalidVertex);
  auto answer = nous.Ask("explain " + g.VertexLabel(origin) + " and " +
                         g.VertexLabel(two_hops));
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->paths.empty());
  EXPECT_GE(answer->distinct_sources, 1u);
}

TEST_F(NousFixture, FinalizeAssignsTopics) {
  Nous nous(&kb_, FastOptions());
  DocumentStream stream(MakeArticles());
  NOUS_CHECK_OK(nous.IngestStream(&stream));  // finalizes
  auto dji = nous.graph().FindVertex("DJI");
  ASSERT_TRUE(dji.has_value());
  EXPECT_EQ(nous.graph().VertexTopics(*dji).size(),
            FastOptions().pipeline.lda.num_topics);
}

TEST_F(NousFixture, MinerDiscoversWindowPatterns) {
  Nous::Options options = FastOptions();
  options.pipeline.miner.min_support = 2;
  options.pipeline.miner.use_vertex_types = true;
  Nous nous(&kb_, options);
  DocumentStream stream(MakeArticles());
  NOUS_CHECK_OK(nous.IngestStream(&stream));
  ASSERT_NE(nous.miner(), nullptr);
  EXPECT_GT(nous.miner()->num_tracked_patterns(), 0u);
  EXPECT_FALSE(nous.miner()->FrequentPatterns().empty());
}

TEST_F(NousFixture, MiningCanBeDisabled) {
  Nous::Options options = FastOptions();
  options.pipeline.enable_mining = false;
  Nous nous(&kb_, options);
  DocumentStream stream(MakeArticles());
  NOUS_CHECK_OK(nous.IngestStream(&stream));
  EXPECT_EQ(nous.miner(), nullptr);
  auto patterns = nous.Ask("show patterns");
  ASSERT_TRUE(patterns.ok());
  EXPECT_TRUE(patterns->patterns().empty());
}

TEST_F(NousFixture, DedupStrengthensRepeatedFacts) {
  Nous nous(&kb_, FastOptions());
  Date d{2014, 3, 5};
  NOUS_CHECK_OK(nous.IngestText("DJI acquired SkyWard Labs.", d, "wsj"));
  const PipelineStats& s1 = nous.stats();
  size_t accepted_before = s1.accepted_triples;
  NOUS_CHECK_OK(nous.IngestText("DJI acquired SkyWard Labs.", d, "technews"));
  EXPECT_EQ(nous.stats().accepted_triples, accepted_before);
  EXPECT_GE(nous.stats().deduped_triples, 1u);
}

TEST_F(NousFixture, LowConfidenceExtractionRejected) {
  Nous::Options options = FastOptions();
  options.pipeline.min_accept_confidence = 0.99;  // nothing passes
  Nous nous(&kb_, options);
  NOUS_CHECK_OK(nous.IngestText("DJI acquired SkyWard Labs.", Date{2014, 3, 5}, "wsj"));
  EXPECT_EQ(nous.stats().accepted_triples, 0u);
  EXPECT_GT(nous.stats().dropped_low_confidence, 0u);
}

TEST_F(NousFixture, UnmappedRelationsKeptAsRawPredicates) {
  Nous nous(&kb_, FastOptions());
  // "tested" maps to no ontology predicate (seeded phrases only).
  NOUS_CHECK_OK(nous.IngestText("DJI tested Phantom 3.", Date{2014, 3, 5}, "wsj"));
  EXPECT_GE(nous.stats().unmapped_kept, 1u);
  EXPECT_TRUE(
      nous.graph().predicates().Lookup("raw:test").has_value());
}

TEST_F(NousFixture, DistantSupervisionAlignsAgainstCuratedFacts) {
  Nous nous(&kb_, FastOptions());
  // Find a curated headquarteredIn fact and report it with an
  // unseeded phrase; alignment should add evidence for the phrase.
  ASSERT_FALSE(kb_.facts().empty());
  const KbFact* hq = nullptr;
  for (const KbFact& f : kb_.facts()) {
    if (f.predicate == "headquarteredIn") {
      hq = &f;
      break;
    }
  }
  ASSERT_NE(hq, nullptr);
  const std::string& company = kb_.entities()[hq->subject].name;
  const std::string& city = kb_.entities()[hq->object].name;
  double before =
      nous.pipeline().mapper().EvidenceWeight("headquarteredIn",
                                              "operate_in");
  NOUS_CHECK_OK(nous.IngestText(company + " operates in " + city + ".",
                  Date{2014, 1, 1}, "wsj"));
  double after =
      nous.pipeline().mapper().EvidenceWeight("headquarteredIn",
                                              "operate_in");
  EXPECT_GT(after, before);
  EXPECT_GT(nous.stats().ds_alignments, 0u);
}

TEST_F(NousFixture, NegationRetractsExistingFact) {
  Nous nous(&kb_, FastOptions());
  Date d{2014, 3, 5};
  NOUS_CHECK_OK(nous.IngestText("DJI acquired Talon Works.", d, "wsj"));
  double before = -1;
  nous.graph().ForEachEdge([&](EdgeId, const EdgeRecord& rec) {
    if (!rec.meta.curated) before = rec.meta.confidence;
  });
  ASSERT_GT(before, 0);
  NOUS_CHECK_OK(nous.IngestText("DJI never acquired Talon Works.", d, "technews"));
  double after = -1;
  nous.graph().ForEachEdge([&](EdgeId, const EdgeRecord& rec) {
    if (!rec.meta.curated) after = rec.meta.confidence;
  });
  EXPECT_NEAR(after, before * 0.5, 1e-9);
  EXPECT_EQ(nous.stats().retractions, 1u);
  // The negation added no new edge.
  EXPECT_EQ(nous.stats().accepted_triples, 1u);
}

TEST_F(NousFixture, NegationOfUnknownFactAddsNothing) {
  Nous nous(&kb_, FastOptions());
  NOUS_CHECK_OK(nous.IngestText("DJI never acquired Talon Works.", Date{2014, 1, 1},
                  "wsj"));
  EXPECT_EQ(nous.stats().accepted_triples, 0u);
  EXPECT_EQ(nous.stats().retractions, 0u);
}

TEST_F(NousFixture, SinceFilterRestrictsEntityAnswer) {
  Nous nous(&kb_, FastOptions());
  NOUS_CHECK_OK(nous.IngestText("DJI acquired Talon Works.", Date{2012, 3, 5}, "wsj"));
  NOUS_CHECK_OK(nous.IngestText("DJI bought Windermere.", Date{2015, 6, 1}, "wsj"));
  auto all = nous.Ask("tell me about DJI");
  ASSERT_TRUE(all.ok());
  auto recent = nous.Ask("tell me about DJI since 2014");
  ASSERT_TRUE(recent.ok());
  EXPECT_LT(recent->facts.size(), all->facts.size());
  for (const FactLine& f : recent->facts) {
    EXPECT_GE(f.timestamp, (Date{2014, 1, 1}).ToDayNumber());
  }
}

TEST_F(NousFixture, SaveLoadQueryEquivalence) {
  Nous nous(&kb_, FastOptions());
  DocumentStream stream(MakeArticles());
  NOUS_CHECK_OK(nous.IngestStream(&stream));
  std::string path = testing::TempDir() + "/nous_core_roundtrip.txt";
  ASSERT_TRUE(SaveGraphToFile(nous.graph(), path).ok());
  auto loaded = LoadGraphFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // A query engine over the restored graph answers identically.
  QueryEngine original(&nous.graph(), nullptr);
  QueryEngine restored(loaded->get(), nullptr);
  auto a1 = original.ExecuteText("tell me about DJI");
  auto a2 = restored.ExecuteText("tell me about DJI");
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  ASSERT_EQ(a1->facts.size(), a2->facts.size());
  auto key = [](const FactLine& f) {
    return f.subject + "|" + f.predicate + "|" + f.object + "|" +
           f.source;
  };
  std::multiset<std::string> k1, k2;
  for (const FactLine& f : a1->facts) k1.insert(key(f));
  for (const FactLine& f : a2->facts) k2.insert(key(f));
  EXPECT_EQ(k1, k2);
}

TEST_F(NousFixture, OtherDomainWorldsIngest) {
  // Citation analytics domain (§3.1) through the same pipeline.
  WorldModel citations = WorldModel::BuildCitationWorld(8, 15, 3);
  KbCoverage coverage;
  coverage.entity_coverage = 0.5;
  CuratedKb kb = BuildCuratedKb(citations, Ontology::DroneDefault(),
                                coverage);
  Nous nous(&kb, FastOptions());
  CorpusConfig cc;
  cc.pronoun_rate = 0;
  auto articles = ArticleGenerator(&citations, cc).GenerateArticles();
  DocumentStream stream(articles);
  NOUS_CHECK_OK(nous.IngestStream(&stream));
  EXPECT_GT(nous.stats().accepted_triples, 0u);
}

}  // namespace
}  // namespace nous
