// Custom-domain authoring (demo features 1 & 3): lexicon, gazetteer,
// and predicate-seed loading from text streams, plus end-to-end
// pipeline determinism.

#include <sstream>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/nous.h"
#include "graph/graph_generator.h"
#include "graph/temporal_window.h"
#include "mining/arabesque_sim.h"
#include "mining/streaming_miner.h"
#include "corpus/article_generator.h"
#include "corpus/document_stream.h"
#include "corpus/world_model.h"
#include "kb/kb_generator.h"
#include "mapping/predicate_mapper.h"
#include "text/lexicon.h"
#include "text/ner.h"
#include "text/openie.h"
#include "common/status.h"

namespace nous {
namespace {

// ---------- Lexicon loading ----------

TEST(LexiconLoadTest, VerbsAdjectivesStopwords) {
  Lexicon lexicon = Lexicon::Default();
  std::stringstream in(
      "# custom medical domain\n"
      "V\tprescribe\tprescribes,prescribed,prescribing\n"
      "A\tchronic\n"
      "S\tpatient\n");
  ASSERT_TRUE(lexicon.LoadFromStream(in).ok());
  EXPECT_EQ(lexicon.VerbBase("prescribed"), "prescribe");
  EXPECT_EQ(lexicon.VerbBase("prescribe"), "prescribe");
  EXPECT_TRUE(lexicon.IsAdjective("chronic"));
  EXPECT_TRUE(lexicon.IsStopword("patient"));
}

TEST(LexiconLoadTest, RejectsMalformedLines) {
  Lexicon lexicon;
  std::stringstream bad1("V\tonly-base\n");
  EXPECT_FALSE(lexicon.LoadFromStream(bad1).ok());
  std::stringstream bad2("X\twhat\n");
  EXPECT_FALSE(lexicon.LoadFromStream(bad2).ok());
}

TEST(LexiconLoadTest, LoadedVerbDrivesExtraction) {
  Lexicon lexicon = Lexicon::Default();
  std::stringstream in("V\tprescribe\tprescribes,prescribed\n");
  ASSERT_TRUE(lexicon.LoadFromStream(in).ok());
  Ner ner(&lexicon);
  ner.AddGazetteerEntry("Dr Chen", EntityType::kPerson);
  ner.AddGazetteerEntry("Ritalin", EntityType::kProduct);
  OpenIeExtractor extractor(&lexicon, &ner, {});
  auto exs = extractor.ExtractFromText("Dr Chen prescribed Ritalin.");
  ASSERT_EQ(exs.size(), 1u);
  EXPECT_EQ(exs[0].relation, "prescribe");
}

// ---------- Gazetteer loading ----------

TEST(GazetteerLoadTest, TypesAndFirstNames) {
  Lexicon lexicon = Lexicon::Default();
  Ner ner(&lexicon);
  std::stringstream in(
      "ORG\tMayo Clinic\n"
      "PERSON\tJohn Chen\n"
      "LOC\tRochester\n"
      "PRODUCT\tRitalin\n"
      "FIRSTNAME\tJohn\n"
      "# comment\n");
  ASSERT_TRUE(ner.LoadGazetteerFromStream(in).ok());
  EXPECT_EQ(ner.GazetteerType("mayo clinic"), EntityType::kOrganization);
  EXPECT_EQ(ner.GazetteerType("Rochester"), EntityType::kLocation);
  EXPECT_EQ(ner.gazetteer_size(), 4u);
}

TEST(GazetteerLoadTest, RejectsUnknownTypeAndMissingName) {
  Lexicon lexicon = Lexicon::Default();
  Ner ner(&lexicon);
  std::stringstream bad1("ALIEN\tZorg\n");
  EXPECT_FALSE(ner.LoadGazetteerFromStream(bad1).ok());
  std::stringstream bad2("ORG\n");
  EXPECT_FALSE(ner.LoadGazetteerFromStream(bad2).ok());
}

// ---------- Seed loading ----------

TEST(SeedLoadTest, SeedsMapPhrases) {
  Ontology ontology = Ontology::DroneDefault();
  PredicateMapper mapper(&ontology);
  std::stringstream in(
      "acquired\tsnap_up\t2.0\n"
      "uses\toperate\n");
  ASSERT_TRUE(mapper.LoadSeedsFromStream(in).ok());
  EXPECT_TRUE(mapper.Map("snap_up", "company", "company").mapped);
  EXPECT_DOUBLE_EQ(mapper.EvidenceWeight("acquired", "snap_up"), 2.0);
  EXPECT_TRUE(mapper.Map("operate", "company", "product").mapped);
}

TEST(SeedLoadTest, RejectsUnknownPredicateAndBadWeight) {
  Ontology ontology = Ontology::DroneDefault();
  PredicateMapper mapper(&ontology);
  std::stringstream bad1("notAPredicate\tphrase\n");
  EXPECT_FALSE(mapper.LoadSeedsFromStream(bad1).ok());
  std::stringstream bad2("acquired\tphrase\t-1\n");
  EXPECT_FALSE(mapper.LoadSeedsFromStream(bad2).ok());
}

// ---------- Pipeline determinism ----------

TEST(DeterminismTest, IdenticalRunsProduceIdenticalGraphs) {
  DroneWorldConfig wc;
  wc.num_companies = 10;
  wc.num_events = 60;
  WorldModel world = WorldModel::BuildDroneWorld(wc);
  CuratedKb kb = BuildCuratedKb(world, Ontology::DroneDefault(), {});
  auto articles = ArticleGenerator(&world, CorpusConfig{}).GenerateArticles();

  auto run = [&]() {
    Nous::Options options;
    options.pipeline.lda.iterations = 10;
    options.pipeline.bpr.epochs = 3;
    Nous nous(&kb, options);
    for (const Article& a : articles) NOUS_CHECK_OK(nous.Ingest(a));
    NOUS_CHECK_OK(nous.Finalize());
    std::multiset<std::string> edges;
    const PropertyGraph& g = nous.graph();
    g.ForEachEdge([&](EdgeId, const EdgeRecord& rec) {
      edges.insert(StrFormat(
          "%s|%s|%s|%.12f", g.VertexLabel(rec.subject).c_str(),
          g.predicates().GetString(rec.predicate).c_str(),
          g.VertexLabel(rec.object).c_str(), rec.meta.confidence));
    });
    return edges;
  };
  EXPECT_EQ(run(), run());
}

// ---------- Performance guard ----------

TEST(PerformanceGuardTest, StreamingMinerNotSlowerThanReEnumeration) {
  // Regression guard for the §3.5 claim: over a window's worth of
  // slides, incremental maintenance must beat full re-enumeration by
  // a comfortable margin (generous bound to stay robust on loaded
  // machines).
  PlantedStreamConfig config;
  config.num_events = 4000;
  config.noise_entities = 500;
  config.patterns = {{"a", {"p", "q"}, 0.05}};
  auto stream = GeneratePlantedStream(config);
  MinerConfig mc;
  mc.max_edges = 2;
  mc.min_support = 8;
  PropertyGraph graph;
  TemporalWindow window(&graph, 2000);
  StreamingMiner miner(mc);
  window.AddListener(&miner);
  double stream_seconds = 0, baseline_seconds = 0;
  size_t slides = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    WallTimer t;
    window.Add(stream[i]);
    stream_seconds += t.ElapsedSeconds();
    if (i >= 2000 && i % 200 == 0) {
      ++slides;
      WallTimer t2;
      MineArabesqueSim(window, mc);
      baseline_seconds += t2.ElapsedSeconds();
    }
  }
  double stream_per_slide =
      stream_seconds / (static_cast<double>(stream.size()) / 200.0);
  double baseline_per_slide =
      baseline_seconds / static_cast<double>(slides);
  EXPECT_LT(stream_per_slide, baseline_per_slide)
      << "incremental " << stream_per_slide << "s vs re-enumeration "
      << baseline_per_slide << "s per slide";
}

}  // namespace
}  // namespace nous
