// Parameterized pipeline invariants: across corpus-noise levels and
// curated-coverage fractions, the construction pipeline must uphold
// its contracts — bounded confidences, full provenance, consistent
// counters, monotone-ish quality.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/nous.h"
#include "corpus/article_generator.h"
#include "corpus/world_model.h"
#include "kb/kb_generator.h"
#include "common/status.h"

namespace nous {
namespace {

struct PipelineCase {
  double noise;     // pronoun/alias/passive knob
  double coverage;  // curated entity coverage
};

class PipelineParamTest
    : public ::testing::TestWithParam<PipelineCase> {
 protected:
  static DroneWorldConfig WorldConfig() {
    DroneWorldConfig config;
    config.num_companies = 12;
    config.num_people = 8;
    config.num_products = 8;
    config.num_events = 70;
    config.seed = 3;
    return config;
  }
};

TEST_P(PipelineParamTest, InvariantsHoldUnderSweep) {
  const PipelineCase& param = GetParam();
  WorldModel world = WorldModel::BuildDroneWorld(WorldConfig());
  KbCoverage coverage;
  coverage.entity_coverage = param.coverage;
  CuratedKb kb = BuildCuratedKb(world, Ontology::DroneDefault(),
                                coverage);
  CorpusConfig corpus;
  corpus.pronoun_rate = param.noise;
  corpus.alias_rate = param.noise * 0.6;
  corpus.passive_rate = param.noise * 0.6;
  corpus.distractor_rate = param.noise;
  auto articles = ArticleGenerator(&world, corpus).GenerateArticles();

  Nous::Options options;
  options.pipeline.lda.iterations = 5;
  options.pipeline.bpr.epochs = 2;
  Nous nous(&kb, options);
  for (const Article& a : articles) NOUS_CHECK_OK(nous.Ingest(a));
  NOUS_CHECK_OK(nous.Finalize());

  const PropertyGraph& g = nous.graph();
  const PipelineStats& stats = nous.stats();

  // 1. Every edge carries bounded confidence and a source.
  size_t curated = 0, extracted = 0;
  g.ForEachEdge([&](EdgeId, const EdgeRecord& rec) {
    EXPECT_GE(rec.meta.confidence, 0.0);
    EXPECT_LE(rec.meta.confidence, 1.0);
    EXPECT_NE(rec.meta.source, kInvalidSource);
    (rec.meta.curated ? curated : extracted) += 1;
  });
  // 2. Curated facts are never lost or duplicated.
  EXPECT_EQ(curated, kb.facts().size());
  // 3. Accepted triples equal the live extracted edges.
  EXPECT_EQ(extracted, stats.accepted_triples);
  // 4. Counter conservation: every extraction is accounted for.
  EXPECT_GE(stats.extractions,
            stats.accepted_triples + stats.deduped_triples +
                stats.dropped_low_confidence + stats.dropped_unmapped +
                stats.retractions);
  // 5. Mapped + raw-kept == accepted + deduped (each kept frame was
  //    one or the other).
  EXPECT_EQ(stats.mapped_triples + stats.unmapped_kept,
            stats.accepted_triples + stats.deduped_triples);
  // 6. Documents all processed.
  EXPECT_EQ(stats.documents, articles.size());
  // 7. Topics assigned to curated entities after Finalize (any
  // curated entity: at low coverage DJI itself may not be curated).
  ASSERT_FALSE(kb.entities().empty());
  auto anchor = g.FindVertex(kb.entities()[0].name);
  ASSERT_TRUE(anchor.has_value());
  EXPECT_FALSE(g.VertexTopics(*anchor).empty());
}

TEST_P(PipelineParamTest, RecallDegradesGracefullyWithNoise) {
  const PipelineCase& param = GetParam();
  WorldModel world = WorldModel::BuildDroneWorld(WorldConfig());
  KbCoverage coverage;
  coverage.entity_coverage = param.coverage;
  CuratedKb kb = BuildCuratedKb(world, Ontology::DroneDefault(),
                                coverage);
  CorpusConfig corpus;
  corpus.pronoun_rate = param.noise;
  corpus.alias_rate = param.noise * 0.6;
  auto articles = ArticleGenerator(&world, corpus).GenerateArticles();
  Nous::Options options;
  options.pipeline.lda.iterations = 3;
  options.pipeline.bpr.epochs = 1;
  Nous nous(&kb, options);
  for (const Article& a : articles) NOUS_CHECK_OK(nous.Ingest(a));

  size_t gold_total = 0, recovered = 0;
  const PropertyGraph& g = nous.graph();
  for (const Article& a : articles) {
    for (const TimedTriple& gold : a.gold) {
      ++gold_total;
      auto s = g.FindVertex(gold.triple.subject);
      auto o = g.FindVertex(gold.triple.object);
      auto p = g.predicates().Lookup(gold.triple.predicate);
      if (s && o && p && g.HasEdge(*s, *p, *o)) ++recovered;
    }
  }
  double recall =
      static_cast<double>(recovered) / static_cast<double>(gold_total);
  // Floors chosen with headroom: clean corpora recover most facts;
  // heavy noise still recovers a solid majority.
  double floor = param.noise <= 0.2 ? 0.7 : 0.45;
  EXPECT_GT(recall, floor) << "noise=" << param.noise
                           << " coverage=" << param.coverage
                           << " recall=" << recall;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineParamTest,
    ::testing::Values(PipelineCase{0.0, 0.3}, PipelineCase{0.0, 0.8},
                      PipelineCase{0.2, 0.5}, PipelineCase{0.5, 0.3},
                      PipelineCase{0.5, 0.8}, PipelineCase{0.8, 0.5}));

}  // namespace
}  // namespace nous
