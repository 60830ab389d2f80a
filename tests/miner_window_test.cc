// The miner window as a range of KG edge ids (DESIGN.md §5.1, §5.10):
// window edge e is KG edge e, and the image stores no window: LoadState
// rebuilds it from the KG's tail. These tests pin the consequences: the
// restored window is the KG's last miner_window_edges streamed edges,
// with the live window's ids, a restored pipeline serves exactly the
// live pipeline's patterns, the window mines what a separate
// string-keyed window mines, and its graph is a clone of the KG.

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/pipeline.h"
#include "corpus/article_generator.h"
#include "corpus/world_model.h"
#include "graph/temporal_window.h"
#include "kb/kb_generator.h"
#include "mining/pattern.h"
#include "mining/streaming_miner.h"
#include "obs/metrics.h"

namespace nous {
namespace {

/// Small enough that the fixture's stream expires most of it.
constexpr size_t kWindowEdges = 64;

using ServedPattern = std::tuple<std::string, size_t, size_t>;

/// Parameter: typed (true) or untyped (false) mining.
class MinerWindowTest : public ::testing::TestWithParam<bool> {
 protected:
  MinerWindowTest()
      : world_(WorldModel::BuildDroneWorld(WorldConfig())),
        kb_(BuildCuratedKb(world_, Ontology::DroneDefault(), Coverage())),
        articles_(ArticleGenerator(&world_, CorpusConfig{})
                      .GenerateArticles()) {}

  static DroneWorldConfig WorldConfig() {
    DroneWorldConfig config;
    config.num_companies = 10;
    config.num_people = 6;
    config.num_products = 6;
    config.num_events = 300;
    config.seed = 29;
    return config;
  }
  static KbCoverage Coverage() {
    KbCoverage coverage;
    coverage.entity_coverage = 0.6;
    coverage.fact_coverage = 0.9;
    return coverage;
  }
  PipelineConfig Config() const {
    PipelineConfig config;
    config.lda.iterations = 10;
    config.bpr.epochs = 2;
    config.miner.min_support = 2;
    config.miner.use_vertex_types = GetParam();
    config.miner_window_edges = kWindowEdges;
    config.num_threads = 1;
    return config;
  }

  /// The closed patterns the pipeline's snapshot serves, in order.
  static std::vector<ServedPattern> Served(const KgPipeline& pipeline) {
    std::vector<ServedPattern> out;
    for (const RenderedPattern& p : pipeline.snapshot()->patterns()) {
      out.emplace_back(p.description, p.support, p.embeddings);
    }
    return out;
  }

  static size_t Accepted(const KgPipeline& pipeline) {
    ReaderMutexLock lock(pipeline.kg_mutex());
    return pipeline.stats().accepted_triples;
  }

  WorldModel world_;
  CuratedKb kb_;
  std::vector<Article> articles_;
};

TEST_P(MinerWindowTest, RestoredPipelineServesTheLivePatterns) {
  const size_t half = articles_.size() / 2;
  KgPipeline live(&kb_, Config());
  live.IngestBatch(articles_.data(), half);
  // The window has slid: the live miner has seen (and dropped) more
  // edges than the restored one will replay.
  ASSERT_GT(Accepted(live), 2 * kWindowEdges);

  KgPipeline restored(&kb_, Config());
  Status load = restored.LoadState(live.SaveState());
  ASSERT_TRUE(load.ok()) << load;
  std::vector<ServedPattern> served = Served(live);
  ASSERT_FALSE(served.empty());
  EXPECT_EQ(Served(restored), served);

  // Both keep serving the same patterns as the same stream continues.
  live.IngestBatch(articles_.data() + half, articles_.size() - half);
  restored.IngestBatch(articles_.data() + half, articles_.size() - half);
  EXPECT_EQ(Served(restored), Served(live));
  EXPECT_EQ(restored.SaveState(), live.SaveState());
}

/// The window as it was before it shared the KG's id space: a separate
/// string-keyed graph with its own dictionaries, fed by label. Curated
/// facts (the KG's first `num_curated` edges) are pinned and never
/// expire; every later KG edge — each one a triple the pipeline
/// accepted, in acceptance order — streams through the window.
/// Returns the oracle's frequent patterns mapped to KG predicate and
/// type ids by name and re-canonicalized; `raw_supports` receives the
/// unmapped (support, embeddings) sequence.
std::vector<PatternStats> StringWindowOracle(
    const PropertyGraph& kg, size_t num_curated, const PipelineConfig& config,
    std::vector<std::pair<size_t, size_t>>* raw_supports) {
  PropertyGraph g;
  auto type_name = [&kg](VertexId v) {
    TypeId t = kg.VertexType(v);
    return t == kInvalidType ? std::string() : kg.types().GetString(t);
  };
  // Copies KG edge `e` into `g` by label.
  auto copy_edge = [&](EdgeId e) {
    const EdgeRecord& rec = kg.Edge(e);
    VertexId s = g.GetOrAddVertex(kg.VertexLabel(rec.subject));
    VertexId o = g.GetOrAddVertex(kg.VertexLabel(rec.object));
    g.SetVertexType(s, g.types().Intern(type_name(rec.subject)));
    g.SetVertexType(o, g.types().Intern(type_name(rec.object)));
    EdgeMeta meta;
    meta.timestamp = rec.meta.timestamp;
    meta.curated = e < num_curated;
    PredicateId p =
        g.predicates().Intern(kg.predicates().GetString(rec.predicate));
    return g.AddEdge(s, p, o, meta);
  };
  for (EdgeId e = 0; e < num_curated; ++e) copy_edge(e);
  StreamingMiner miner(config.miner);
  TemporalWindow window(&g, config.miner_window_edges);
  window.AddListener(&miner);
  for (EdgeId e = 0; e < num_curated; ++e) miner.OnEdgeAdded(window, e);
  for (EdgeId e = static_cast<EdgeId>(num_curated); e < kg.NumEdges(); ++e) {
    window.Push(copy_edge(e));
  }
  std::vector<PatternStats> mapped;
  for (const PatternStats& stats : miner.FrequentPatterns()) {
    raw_supports->emplace_back(stats.support, stats.embeddings);
    const Pattern& p = stats.pattern;
    std::vector<Pattern::ConcreteEdge> edges;
    for (const PatternEdge& pe : p.edges()) {
      auto pred = kg.predicates().Lookup(g.predicates().GetString(pe.pred));
      EXPECT_TRUE(pred.has_value());
      edges.push_back({static_cast<uint64_t>(pe.src),
                       pred.value_or(kInvalidPredicate),
                       static_cast<uint64_t>(pe.dst)});
    }
    PatternStats kg_stats = stats;
    kg_stats.pattern = Pattern::Canonicalize(edges, [&](uint64_t var) {
      TypeId t = p.vertex_labels()[var];
      if (t == kInvalidType) return kInvalidType;
      auto kg_type = kg.types().Lookup(g.types().GetString(t));
      EXPECT_TRUE(kg_type.has_value());
      return kg_type.value_or(kInvalidType);
    });
    mapped.push_back(std::move(kg_stats));
  }
  SortBySupport(&mapped);
  return mapped;
}

TEST_P(MinerWindowTest, WindowMinesWhatTheStringKeyedWindowMined) {
  KgPipeline pipeline(&kb_, Config());
  pipeline.IngestBatch(articles_);
  ASSERT_GT(Accepted(pipeline), 2 * kWindowEdges);
  ReaderMutexLock lock(pipeline.kg_mutex());
  std::vector<std::pair<size_t, size_t>> oracle_supports;
  std::vector<PatternStats> oracle = StringWindowOracle(
      pipeline.graph(), kb_.facts().size(), Config(), &oracle_supports);
  std::vector<PatternStats> live = pipeline.miner()->FrequentPatterns();
  ASSERT_FALSE(live.empty());
  ASSERT_EQ(live.size(), oracle.size());
  std::vector<std::pair<size_t, size_t>> live_supports;
  for (size_t i = 0; i < live.size(); ++i) {
    live_supports.emplace_back(live[i].support, live[i].embeddings);
    EXPECT_TRUE(live[i].pattern == oracle[i].pattern) << "rank " << i;
    EXPECT_EQ(live[i].support, oracle[i].support) << "rank " << i;
    EXPECT_EQ(live[i].embeddings, oracle[i].embeddings) << "rank " << i;
  }
  EXPECT_EQ(live_supports, oracle_supports);
}

TEST_P(MinerWindowTest, WindowGraphHoldsKgIdsAndNoDictionaries) {
  KgPipeline pipeline(&kb_, Config());
  pipeline.IngestBatch(articles_);
  ReaderMutexLock lock(pipeline.kg_mutex());
  const PropertyGraph& kg = pipeline.graph();
  const TemporalWindow* window = pipeline.miner_window();
  ASSERT_NE(window, nullptr);
  // The window is a view of a copy-on-write clone of the KG at the last
  // mined version (here the live one), not a second graph: the same
  // edge records under the same ids, and the KG's dictionaries.
  ASSERT_NE(&window->graph(), &kg);
  EXPECT_EQ(window->graph().NumEdges(), kg.NumEdges());
  EXPECT_EQ(window->graph().NumVertices(), kg.NumVertices());
  EXPECT_EQ(window->graph().predicates().size(), kg.predicates().size());
  EXPECT_EQ(window->graph().types().size(), kg.types().size());
  for (EdgeId e = 0; e < kg.NumEdges(); ++e) {
    const EdgeRecord& got = window->graph().Edge(e);
    const EdgeRecord& want = kg.Edge(e);
    EXPECT_EQ(got.subject, want.subject) << "edge " << e;
    EXPECT_EQ(got.predicate, want.predicate) << "edge " << e;
    EXPECT_EQ(got.object, want.object) << "edge " << e;
  }
  // Curated facts pinned, plus a full window of the newest streamed
  // KG edges.
  const size_t curated = kb_.facts().size();
  EXPECT_EQ(window->num_pinned(), curated);
  EXPECT_EQ(window->size(), kWindowEdges);
  EXPECT_EQ(window->NumEdges(), curated + kWindowEdges);
  EXPECT_EQ(window->stream_end(), kg.NumEdges());
  for (EdgeId e = 0; e < kg.NumEdges(); ++e) {
    EXPECT_EQ(kg.Edge(e).meta.curated, e < curated) << "edge " << e;
  }
}

/// The window's edge ids, pinned first, then the stream range.
std::vector<EdgeId> WindowEdgeIds(const TemporalWindow& window) {
  std::vector<EdgeId> ids;
  window.ForEachEdge([&ids](EdgeId e, const EdgeRecord&) { ids.push_back(e); });
  return ids;
}

TEST_P(MinerWindowTest, RestoredWindowIsTheKgTail) {
  const size_t half = articles_.size() / 2;
  // Not yet full, full (the stream has slid past it), and unbounded.
  for (size_t window_edges : {size_t{1} << 20, kWindowEdges, size_t{0}}) {
    PipelineConfig config = Config();
    config.miner_window_edges = window_edges;
    KgPipeline live(&kb_, config);
    live.IngestBatch(articles_.data(), half);
    KgPipeline restored(&kb_, config);
    Status load = restored.LoadState(live.SaveState());
    ASSERT_TRUE(load.ok()) << load;

    std::vector<EdgeId> live_ids;
    {
      ReaderMutexLock live_lock(live.kg_mutex());
      live_ids = WindowEdgeIds(*live.miner_window());
    }
    ReaderMutexLock lock(restored.kg_mutex());
    const PropertyGraph& kg = restored.graph();
    const size_t curated = kb_.facts().size();
    const size_t streamed = kg.NumEdges() - curated;
    ASSERT_GT(streamed, 2 * kWindowEdges);
    const size_t expected = window_edges == 0
                                ? streamed
                                : std::min(window_edges, streamed);
    const TemporalWindow* window = restored.miner_window();
    ASSERT_NE(window, nullptr);
    ASSERT_EQ(window->size(), expected) << "window " << window_edges;
    // Window edge e is KG edge e, restored as live.
    EXPECT_EQ(WindowEdgeIds(*window), live_ids) << "window " << window_edges;
    const size_t first = kg.NumEdges() - expected;
    for (size_t i = 0; i < expected; ++i) {
      const EdgeRecord& got = window->Edge(window->stream_begin() + i);
      const EdgeRecord& want = kg.Edge(static_cast<EdgeId>(first + i));
      EXPECT_EQ(got.subject, want.subject) << "edge " << i;
      EXPECT_EQ(got.predicate, want.predicate) << "edge " << i;
      EXPECT_EQ(got.object, want.object) << "edge " << i;
      EXPECT_EQ(got.meta.timestamp, want.meta.timestamp) << "edge " << i;
      EXPECT_FALSE(got.meta.curated) << "edge " << i;
    }
  }
}

TEST_P(MinerWindowTest, WindowGaugeIsSetByLoadState) {
  KgPipeline live(&kb_, Config());
  live.IngestBatch(articles_.data(), articles_.size() / 2);
  const std::string image = live.SaveState();
  Gauge* gauge = MetricsRegistry::Global().GetGauge("nous_mining_window_edges");
  gauge->Set(-1);
  KgPipeline restored(&kb_, Config());
  Status load = restored.LoadState(image);
  ASSERT_TRUE(load.ok()) << load;
  ReaderMutexLock lock(restored.kg_mutex());
  ASSERT_EQ(restored.miner_window()->size(), kWindowEdges);
  EXPECT_EQ(gauge->Value(),
            static_cast<double>(restored.miner_window()->size()));
}

INSTANTIATE_TEST_SUITE_P(Mining, MinerWindowTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Typed" : "Untyped";
                         });

}  // namespace
}  // namespace nous
