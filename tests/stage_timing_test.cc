// One clock for ingest: each Figure-1 stage is timed once, by its span,
// so the registry histogram, the trace record and the PipelineStats
// field all carry the same clock reading.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.h"
#include "core/nous.h"
#include "core/pipeline.h"
#include "corpus/article_generator.h"
#include "corpus/world_model.h"
#include "kb/kb_generator.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"
#include "qa/query_engine.h"

namespace nous {
namespace {

constexpr size_t kArticles = 40;
constexpr size_t kBatch = 8;
constexpr size_t kRefreshInterval = 10;

class StageTimingTest : public ::testing::Test {
 protected:
  StageTimingTest()
      : world_(WorldModel::BuildDroneWorld(WorldConfig())),
        kb_(BuildCuratedKb(world_, Ontology::DroneDefault(), Coverage())) {}

  static DroneWorldConfig WorldConfig() {
    DroneWorldConfig config;
    config.num_companies = 10;
    config.num_people = 6;
    config.num_products = 6;
    config.num_events = 140;
    config.seed = 23;
    return config;
  }
  static KbCoverage Coverage() {
    KbCoverage coverage;
    coverage.entity_coverage = 0.6;
    coverage.fact_coverage = 0.9;
    return coverage;
  }
  static PipelineConfig Config() {
    PipelineConfig config;
    config.lda.iterations = 10;
    config.bpr.epochs = 2;
    config.miner.min_support = 3;
    config.bpr_refresh_interval = kRefreshInterval;
    config.num_threads = 2;
    return config;
  }
  std::vector<Article> MakeArticles() {
    std::vector<Article> articles =
        ArticleGenerator(&world_, CorpusConfig()).GenerateArticles();
    EXPECT_GE(articles.size(), kArticles);
    articles.resize(std::min(articles.size(), kArticles));
    return articles;
  }

  static PipelineStats Stats(const KgPipeline& pipeline) {
    ReaderMutexLock lock(pipeline.kg_mutex());
    return pipeline.stats();
  }

  WorldModel world_;
  CuratedKb kb_;
};

TEST_F(StageTimingTest, HistogramSumsEqualPipelineStats) {
  std::vector<Article> articles = MakeArticles();
  // Documents with at least one extraction reach linking and the
  // refresh cadence; count them one document at a time on a reference
  // pipeline.
  size_t docs_with_frames = 0;
  {
    KgPipeline reference(&kb_, Config());
    for (const Article& article : articles) {
      const size_t before = Stats(reference).extractions;
      reference.IngestBatch(&article, 1);
      if (Stats(reference).extractions > before) ++docs_with_frames;
    }
  }
  ASSERT_GE(docs_with_frames, kRefreshInterval);

  MetricsRegistry::Global().ResetAll();
  TraceBuffer::Global().Clear();
  const uint64_t appended_before = TraceBuffer::Global().total_appended();
  KgPipeline pipeline(&kb_, Config());
  // The mining stage runs one job for the curated bootstrap and one per
  // batch that added an edge.
  size_t mining_jobs = 1;
  for (size_t start = 0; start < articles.size(); start += kBatch) {
    const size_t before = Stats(pipeline).accepted_triples;
    pipeline.IngestBatch(articles.data() + start,
                         std::min(kBatch, articles.size() - start));
    if (Stats(pipeline).accepted_triples > before) ++mining_jobs;
  }
  pipeline.Finalize();
  {
    // The stage mines beside the commit loop; miner() waits until it
    // has finished every job.
    ReaderMutexLock lock(pipeline.kg_mutex());
    ASSERT_NE(pipeline.miner(), nullptr);
  }
  const PipelineStats stats = Stats(pipeline);

  std::map<std::string, MetricsRegistry::HistogramRow> histograms;
  for (const auto& row : MetricsRegistry::Global().HistogramRows()) {
    histograms[row.name] = row;
  }
  std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(spans.size(),
            TraceBuffer::Global().total_appended() - appended_before)
      << "the trace ring wrapped; shrink the stream";
  std::map<std::string, size_t> traced;
  for (const SpanRecord& span : spans) ++traced[span.name];

  struct Stage {
    const char* name;
    double seconds;
    size_t instances;
  };
  const Stage stages[] = {
      {"extraction", stats.extract_seconds, stats.documents},
      {"linking", stats.link_seconds, docs_with_frames},
      {"mapping", stats.map_seconds,
       stats.mapped_triples + stats.unmapped_kept + stats.dropped_unmapped},
      {"confidence", stats.score_seconds,
       stats.mapped_triples + stats.unmapped_kept},
      {"mining", stats.mine_seconds, stats.accepted_triples},
      // The curated bootstrap's Train, one refresh per interval of
      // documents that reach stage 7, and Finalize's refresh.
      {"embed_refresh", stats.refresh_seconds,
       1 + docs_with_frames / kRefreshInterval + 1},
  };
  for (const Stage& stage : stages) {
    SCOPED_TRACE(stage.name);
    const auto it =
        histograms.find("nous_" + std::string(stage.name) + "_latency_seconds");
    ASSERT_NE(it, histograms.end());
    const MetricsRegistry::HistogramRow& row = it->second;
    EXPECT_GT(stage.instances, 0u);
    EXPECT_GT(stage.seconds, 0.0);
    EXPECT_EQ(row.count, stage.instances);
    EXPECT_EQ(traced[stage.name], stage.instances);
    EXPECT_NEAR(row.sum, stage.seconds, 1e-9 * stage.seconds);
  }

  // Extraction runs on pool helpers and on the committing thread, yet
  // each document's span is summed once into the stats, and the traced
  // extraction intervals (whole microseconds) add up to the same total.
  uint64_t extraction_us = 0;
  for (const SpanRecord& span : spans) {
    if (std::string(span.name) == "extraction") {
      extraction_us += span.duration_us;
    }
  }
  EXPECT_NEAR(static_cast<double>(extraction_us) * 1e-6,
              stats.extract_seconds, 1e-6 * (stats.documents + 1));
  EXPECT_LE(stats.inline_extractions, stats.documents);
  // How often the committer waits for a helper depends on the
  // schedule, but the histogram, the trace and the stats field agree.
  {
    SCOPED_TRACE("extract_wait");
    const auto it = histograms.find("nous_extract_wait_latency_seconds");
    const bool waited = it != histograms.end() && it->second.count > 0;
    EXPECT_EQ(traced["extract_wait"], waited ? it->second.count : 0u);
    EXPECT_NEAR(waited ? it->second.sum : 0.0, stats.extract_wait_seconds,
                1e-9 * stats.extract_wait_seconds);
  }

  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) by_id[span.span_id] = &span;

  // Mining runs on the mining stage, beside the commit loop: one root
  // "mine_batch" span per job, and every "mining" span nested under
  // one, never under the ingest_batch that committed its edge.
  {
    SCOPED_TRACE("mine_batch");
    const auto it = histograms.find("nous_mine_batch_latency_seconds");
    ASSERT_NE(it, histograms.end());
    EXPECT_EQ(it->second.count, mining_jobs);
    EXPECT_EQ(traced["mine_batch"], mining_jobs);
    for (const SpanRecord& span : spans) {
      const std::string name = span.name;
      if (name == "mine_batch") {
        EXPECT_EQ(span.parent_span_id, 0u);
      }
      if (name != "mining") continue;
      const auto parent = by_id.find(span.parent_span_id);
      ASSERT_NE(parent, by_id.end());
      EXPECT_EQ(std::string(parent->second->name), "mine_batch");
    }
  }

  // Every traced child interval lies inside its parent's.
  size_t nested = 0;
  for (const SpanRecord& child : spans) {
    auto parent_it = by_id.find(child.parent_span_id);
    if (parent_it == by_id.end()) continue;
    const SpanRecord& parent = *parent_it->second;
    ++nested;
    EXPECT_GE(child.start_us, parent.start_us)
        << child.name << " in " << parent.name;
    EXPECT_LE(child.start_us + child.duration_us,
              parent.start_us + parent.duration_us)
        << child.name << " in " << parent.name;
  }
  EXPECT_GT(nested, stats.documents);
}

TEST_F(StageTimingTest, QueryStagesNestUnderQueryOncePerClass) {
  // Each class times its stages under the engine's "query" span, once
  // per executed query: resolve (entity names), search (the graph
  // work; explain's path_search nests inside it) and compose (the
  // answer rows). Nous::Ask times parsing beside them, as its own span.
  Nous::Options options;
  options.pipeline = Config();
  options.query_cache.entries = 0;  // every ask executes
  Nous nous(&kb_, options);
  NOUS_CHECK_OK(nous.IngestBatch(MakeArticles()));
  {
    // Let the mining stage finish, so no pool thread appends spans
    // while the queries below are traced.
    ReaderMutexLock lock(nous.kg_mutex());
    ASSERT_NE(nous.miner(), nullptr);
  }
  const std::shared_ptr<const KgSnapshot> snap = nous.snapshot();
  const PropertyGraph& g = snap->graph();
  // An edge's endpoints: two entities explain and search connect.
  ASSERT_GT(g.NumEdges(), 0u);
  const EdgeRecord& edge = g.Edge(g.NumEdges() - 1);
  const std::string a = g.VertexLabel(edge.subject);
  const std::string b = g.VertexLabel(edge.object);

  struct Case {
    std::string question;
    std::map<std::string, uint64_t> observations;
  };
  const Case cases[] = {
      {"tell me about " + a,
       {{"parse", 1}, {"query", 1}, {"resolve", 1}, {"search", 1},
        {"compose", 1}, {"path_search", 0}}},
      {"explain " + a + " and " + b,
       {{"parse", 1}, {"query", 1}, {"resolve", 1}, {"search", 1},
        {"compose", 1}, {"path_search", 1}}},
      {"paths from " + a + " to " + b,
       {{"parse", 1}, {"query", 1}, {"resolve", 1}, {"search", 1},
        {"compose", 1}, {"path_search", 1}}},
      {"what is trending",
       {{"parse", 1}, {"query", 1}, {"resolve", 0}, {"search", 1},
        {"compose", 1}, {"path_search", 0}}},
      {"show patterns",
       {{"parse", 1}, {"query", 1}, {"resolve", 0}, {"search", 0},
        {"compose", 1}, {"path_search", 0}}},
  };
  auto counts = [] {
    std::map<std::string, uint64_t> out;
    for (const auto& row : MetricsRegistry::Global().HistogramRows()) {
      out[row.name] = row.count;
    }
    return out;
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.question);
    TraceBuffer::Global().Clear();
    const uint64_t appended_before = TraceBuffer::Global().total_appended();
    const std::map<std::string, uint64_t> before = counts();
    ASSERT_TRUE(nous.Ask(c.question).ok());
    std::map<std::string, uint64_t> after = counts();
    for (const auto& [stage, expected] : c.observations) {
      const std::string name = "nous_" + stage + "_latency_seconds";
      const auto it = before.find(name);
      EXPECT_EQ(after[name] - (it == before.end() ? 0 : it->second),
                expected)
          << stage;
    }

    std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
    ASSERT_EQ(spans.size(),
              TraceBuffer::Global().total_appended() - appended_before);
    std::unordered_map<uint64_t, const SpanRecord*> by_id;
    for (const SpanRecord& span : spans) by_id[span.span_id] = &span;
    auto parent_of = [&](const SpanRecord& span) -> std::string {
      const auto it = by_id.find(span.parent_span_id);
      return it == by_id.end() ? "" : it->second->name;
    };
    for (const SpanRecord& span : spans) {
      const std::string name = span.name;
      if (name == "resolve" || name == "search" || name == "compose") {
        EXPECT_EQ(parent_of(span), "query") << name;
      } else if (name == "path_search") {
        EXPECT_EQ(parent_of(span), "search");
      } else if (name == "parse" || name == "query") {
        EXPECT_EQ(span.parent_span_id, 0u) << name;
      }
    }
  }
}

TEST_F(StageTimingTest, FinalizeNestsBothFitsUnderOneSpan) {
  // Finalize runs the BPR retrain and the LDA fit side by side on the
  // pool; both spans parent under the one finalize span, on whichever
  // thread ran them.
  std::vector<Article> articles = MakeArticles();
  KgPipeline pipeline(&kb_, Config());
  pipeline.IngestBatch(articles.data(), articles.size());
  MetricsRegistry::Global().ResetAll();
  TraceBuffer::Global().Clear();
  pipeline.Finalize();

  std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  const SpanRecord* finalize = nullptr;
  for (const SpanRecord& span : spans) {
    if (std::string(span.name) == "finalize") {
      ASSERT_EQ(finalize, nullptr) << "two finalize spans";
      finalize = &span;
    }
  }
  ASSERT_NE(finalize, nullptr);
  std::map<std::string, MetricsRegistry::HistogramRow> histograms;
  for (const auto& row : MetricsRegistry::Global().HistogramRows()) {
    histograms[row.name] = row;
  }
  for (const char* stage : {"finalize", "embed_refresh", "topic_fit"}) {
    SCOPED_TRACE(stage);
    const auto it =
        histograms.find("nous_" + std::string(stage) + "_latency_seconds");
    ASSERT_NE(it, histograms.end());
    EXPECT_EQ(it->second.count, 1u);
  }
  for (const char* stage : {"embed_refresh", "topic_fit"}) {
    SCOPED_TRACE(stage);
    size_t found = 0;
    for (const SpanRecord& span : spans) {
      if (std::string(span.name) != stage) continue;
      ++found;
      EXPECT_EQ(span.trace_id, finalize->trace_id);
      EXPECT_EQ(span.parent_span_id, finalize->span_id);
      EXPECT_GE(span.start_us, finalize->start_us);
      EXPECT_LE(span.start_us + span.duration_us,
                finalize->start_us + finalize->duration_us);
    }
    EXPECT_EQ(found, 1u);
  }
  // The refresh trains on every KG edge.
  ReaderMutexLock lock(pipeline.kg_mutex());
  EXPECT_EQ(MetricsRegistry::Global()
                .GetGauge("nous_embed_refresh_edges")
                ->Value(),
            static_cast<double>(pipeline.graph().NumEdges()));
}

}  // namespace
}  // namespace nous
