// Failure-injection and adversarial-input tests: the pipeline and its
// components must degrade gracefully on garbage, never crash.

#include <string>

#include <gtest/gtest.h>

#include "core/nous.h"
#include "corpus/world_model.h"
#include "kb/kb_generator.h"
#include "qa/path_search.h"
#include "qa/query_engine.h"
#include "text/openie.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"
#include "common/status.h"

namespace nous {
namespace {

class RobustnessFixture : public ::testing::Test {
 protected:
  RobustnessFixture()
      : world_(WorldModel::BuildDroneWorld(SmallConfig())),
        kb_(BuildCuratedKb(world_, Ontology::DroneDefault(), {})) {}
  static DroneWorldConfig SmallConfig() {
    DroneWorldConfig config;
    config.num_companies = 5;
    config.num_people = 3;
    config.num_products = 3;
    config.num_events = 10;
    return config;
  }
  static Nous::Options FastOptions() {
    Nous::Options options;
    options.pipeline.lda.iterations = 3;
    options.pipeline.bpr.epochs = 1;
    return options;
  }
  WorldModel world_;
  CuratedKb kb_;
};

TEST_F(RobustnessFixture, PipelineSurvivesGarbageText) {
  Nous nous(&kb_, FastOptions());
  const char* kGarbage[] = {
      "",
      "    ",
      "....!!!???",
      "a",
      ").(}{[]\\//@@##$$%%^^&&**",
      "no entities here at all just lowercase words",
      "DJI DJI DJI DJI DJI DJI DJI DJI DJI DJI",
      "acquired acquired acquired acquired",
      "The the THE tHe ThE the the the.",
      "\t\t\t\n\n\n",
      "DJI acquired",           // dangling verb
      "acquired SkyWard Labs",  // missing subject
  };
  for (const char* text : kGarbage) {
    NOUS_CHECK_OK(nous.IngestText(text, Date{2014, 1, 1}, "fuzz"));
  }
  NOUS_CHECK_OK(nous.Finalize());
  auto answer = nous.Ask("tell me about DJI");
  EXPECT_TRUE(answer.ok());
}

TEST_F(RobustnessFixture, VeryLongSentence) {
  Nous nous(&kb_, FastOptions());
  std::string text = "DJI acquired";
  for (int i = 0; i < 2000; ++i) text += " very";
  text += " SkyWard Labs.";
  NOUS_CHECK_OK(nous.IngestText(text, Date{2014, 1, 1}, "fuzz"));
  SUCCEED();  // no crash, no hang
}

TEST_F(RobustnessFixture, ManyEntitiesOneSentence) {
  Nous nous(&kb_, FastOptions());
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "Alpha" + std::to_string(i) + " Corp acquired Beta" +
            std::to_string(i) + " Inc. ";
  }
  NOUS_CHECK_OK(nous.IngestText(text, Date{2014, 1, 1}, "fuzz"));
  EXPECT_GT(nous.stats().accepted_triples, 50u);
}

TEST_F(RobustnessFixture, QueriesOnEmptyKg) {
  CuratedKb empty(Ontology::DroneDefault());
  Nous nous(&empty, FastOptions());
  EXPECT_FALSE(nous.Ask("tell me about DJI").ok());  // NotFound
  auto trending = nous.Ask("what is trending");
  ASSERT_TRUE(trending.ok());
  EXPECT_TRUE(trending->hot_entities.empty());
  auto patterns = nous.Ask("show patterns");
  ASSERT_TRUE(patterns.ok());
  EXPECT_TRUE(patterns->patterns().empty());
}

TEST_F(RobustnessFixture, QueryParserFuzz) {
  const char* kQueries[] = {
      "tell me about",
      "explain and",
      "paths from to",
      "why would use",
      "explain A and",
      "paths from X to",
      "??????",
      "via via via",
  };
  for (const char* q : kQueries) {
    // Must not crash; may return error.
    auto parsed = ParseQuery(q);
    (void)parsed;
  }
  SUCCEED();
}

TEST_F(RobustnessFixture, EntityNamesThatLookLikeCommands) {
  Nous nous(&kb_, FastOptions());
  // Entity whose label collides with query phrasing.
  NOUS_CHECK_OK(nous.IngestText("Show Patterns Inc acquired Trending Corp.",
                  Date{2014, 1, 1}, "fuzz"));
  auto answer = nous.Ask("tell me about Show Patterns Inc");
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->facts.empty());
}

TEST_F(RobustnessFixture, RepeatFinalizeIsStable) {
  Nous nous(&kb_, FastOptions());
  NOUS_CHECK_OK(nous.IngestText("DJI acquired SkyWard Labs.", Date{2014, 1, 1}, "a"));
  NOUS_CHECK_OK(nous.Finalize());
  NOUS_CHECK_OK(nous.Finalize());
  NOUS_CHECK_OK(nous.IngestText("DJI bought Parrot.", Date{2014, 2, 1}, "a"));
  NOUS_CHECK_OK(nous.Finalize());
  auto answer = nous.Ask("tell me about DJI");
  EXPECT_TRUE(answer.ok());
}

TEST(RobustnessText, TokenizerNeverProducesEmptyTokens) {
  const char* kInputs[] = {"", " ", "a  b", "--", "''s", "...a...",
                           "a'b'c", "'s 's 's"};
  for (const char* input : kInputs) {
    for (const Token& t : Tokenize(input)) {
      EXPECT_FALSE(t.text.empty());
    }
  }
}

TEST(RobustnessText, SentenceSplitterHandlesPathologicalInput) {
  EXPECT_TRUE(SplitSentences("...").empty() ||
              !SplitSentences("...").empty());  // no crash contract
  auto many = SplitSentences("a. b. c. d. e. f. g. h.");
  EXPECT_GE(many.size(), 1u);
  std::string long_run(10000, '.');
  SplitSentences(long_run);  // must terminate
  SUCCEED();
}

TEST(RobustnessPath, PathSearchOnDisconnectedGraph) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");  // isolated
  g.GetOrAddVertex("c");
  g.AddEdge(a, g.predicates().Intern("p"), g.GetOrAddVertex("d"), {});
  PathSearch search(&g);
  EXPECT_TRUE(search.FindPaths(a, b).empty());
}

TEST(RobustnessPath, SelfLoopsDoNotTrapSearch) {
  PropertyGraph g;
  VertexId a = g.GetOrAddVertex("a");
  VertexId b = g.GetOrAddVertex("b");
  PredicateId p = g.predicates().Intern("p");
  g.AddEdge(a, p, a, {});  // self loop
  g.AddEdge(a, p, b, {});
  PathSearch search(&g);
  auto paths = search.FindPaths(a, b);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].vertices.size(), 2u);
}

TEST(RobustnessExtraction, ConfigExtremes) {
  Lexicon lexicon = Lexicon::Default();
  Ner ner(&lexicon);
  ner.AddGazetteerEntry("DJI", EntityType::kOrganization);
  ner.AddGazetteerEntry("SkyWard", EntityType::kOrganization);
  OpenIeConfig zero_gap;
  zero_gap.max_arg_gap = 0;
  OpenIeExtractor strict(&lexicon, &ner, zero_gap);
  auto exs = strict.ExtractFromText("DJI acquired SkyWard.");
  EXPECT_EQ(exs.size(), 1u);  // adjacent args still work at gap 0

  OpenIeConfig everything_off;
  everything_off.use_coref = false;
  everything_off.allow_nary = false;
  everything_off.extract_copula = false;
  everything_off.require_entity_subject = true;
  everything_off.require_entity_object = true;
  OpenIeExtractor minimal(&lexicon, &ner, everything_off);
  EXPECT_EQ(minimal.ExtractFromText("DJI acquired SkyWard.").size(), 1u);
}

TEST(RobustnessWindow, ZeroAndHugeWindows) {
  PropertyGraph g;
  TemporalWindow unbounded(&g, 0);
  for (int i = 0; i < 100; ++i) {
    TimedTriple t;
    t.triple = {"a" + std::to_string(i), "p", "b"};
    t.timestamp = i;
    unbounded.Add(t);
  }
  EXPECT_EQ(unbounded.size(), 100u);
  EXPECT_EQ(unbounded.ExpireOlderThan(1000), 100u);
  EXPECT_EQ(unbounded.NumEdges(), 0u);
  EXPECT_EQ(g.NumEdges(), 100u);  // expiry leaves the graph alone
}

}  // namespace
}  // namespace nous
