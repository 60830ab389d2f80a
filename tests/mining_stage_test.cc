// The streaming miner as a pipeline stage beside the commit loop
// (core/mining_stage.h): every snapshot's pattern set must be what a
// miner fed each edge as it was committed would serve, for any thread
// count, batching and window size; and the stage must stay exact and
// race-free while it lags behind the committer, across LoadState,
// Finalize and destruction.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/status.h"
#include "core/nous.h"
#include "core/pipeline.h"
#include "corpus/article_generator.h"
#include "corpus/world_model.h"
#include "durability/fs_util.h"
#include "graph/temporal_window.h"
#include "kb/kb_generator.h"
#include "mining/streaming_miner.h"
#include "obs/metrics.h"
#include "qa/query.h"
#include "qa/query_engine.h"

namespace nous {
namespace {

using ServedPattern = std::tuple<std::string, size_t, size_t>;

std::vector<ServedPattern> Served(std::span<const RenderedPattern> set) {
  std::vector<ServedPattern> out;
  for (const RenderedPattern& p : set) {
    out.emplace_back(p.description, p.support, p.embeddings);
  }
  return out;
}

/// A standalone StreamingMiner fed each KG edge as it was committed: its
/// own graph holds, at each push, exactly the KG's edges up to the
/// pushed one and the vertices created before it, each typed as the
/// pipeline typed it on creation, under the KG's ids and dictionary
/// ids. The curated prefix is pinned and announced, as in the pipeline.
class PerEdgeOracle {
 public:
  PerEdgeOracle(const PropertyGraph& bootstrap, const PipelineConfig& config)
      : miner_(config.miner) {
    CopyThrough(bootstrap, static_cast<EdgeId>(bootstrap.NumEdges()));
    window_ = std::make_unique<TemporalWindow>(&graph_,
                                               config.miner_window_edges);
    window_->AddListener(&miner_);
    for (EdgeId e = 0; e < graph_.NumEdges(); ++e) {
      miner_.OnEdgeAdded(*window_, e);
    }
  }

  /// Pushes, one at a time, the KG edges the oracle has not seen yet.
  void CatchUp(const PropertyGraph& kg) {
    for (EdgeId e = static_cast<EdgeId>(graph_.NumEdges()); e < kg.NumEdges();
         ++e) {
      CopyThrough(kg, e + 1);
      window_->Push(e);
    }
  }

  const StreamingMiner& miner() const { return miner_; }
  const PropertyGraph& graph() const { return graph_; }

 private:
  /// Copies the KG's dictionaries, then its edges below `end` and the
  /// vertices up to the largest id they touch, in id order.
  void CopyThrough(const PropertyGraph& kg, EdgeId end) {
    for (size_t p = graph_.predicates().size(); p < kg.predicates().size();
         ++p) {
      graph_.predicates().Intern(
          kg.predicates().GetString(static_cast<PredicateId>(p)));
    }
    for (size_t t = graph_.types().size(); t < kg.types().size(); ++t) {
      graph_.types().Intern(kg.types().GetString(static_cast<TypeId>(t)));
    }
    for (EdgeId e = static_cast<EdgeId>(graph_.NumEdges()); e < end; ++e) {
      const EdgeRecord& rec = kg.Edge(e);
      const VertexId last = std::max(rec.subject, rec.object);
      for (VertexId v = static_cast<VertexId>(graph_.NumVertices()); v <= last;
           ++v) {
        ASSERT_EQ(graph_.GetOrAddVertex(kg.VertexLabel(v)), v);
        if (kg.VertexType(v) != kInvalidType) {
          graph_.SetVertexType(v, kg.VertexType(v));
        }
      }
      ASSERT_EQ(graph_.AddEdge(rec.subject, rec.predicate, rec.object,
                               rec.meta),
                e);
    }
  }

  PropertyGraph graph_;
  StreamingMiner miner_;
  std::unique_ptr<TemporalWindow> window_;
};

class MiningStageTest : public ::testing::TestWithParam<bool> {
 protected:
  /// Small enough that the fixture's stream expires most of it.
  static constexpr size_t kWindowEdges = 64;

  MiningStageTest()
      : world_(WorldModel::BuildDroneWorld(WorldConfig())),
        kb_(BuildCuratedKb(world_, Ontology::DroneDefault(), Coverage())),
        articles_(ArticleGenerator(&world_, CorpusConfig{})
                      .GenerateArticles()) {
    articles_.resize(std::min<size_t>(articles_.size(), 90));
    FaultInjector::Global().Reset();
  }
  ~MiningStageTest() override { FaultInjector::Global().Reset(); }

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
  PipelineConfig Config(size_t threads) const {
    PipelineConfig config;
    config.lda.iterations = 10;
    config.bpr.epochs = 2;
    config.bpr_refresh_interval = 25;
    config.miner.min_support = 2;
    config.miner.use_vertex_types = GetParam();
    config.miner_window_edges = kWindowEdges;
    config.num_threads = threads;
    return config;
  }

  /// Slows every mining job by `ms` (or, with `only`, just the
  /// `only`-th job the stage starts from now on), so the stage falls
  /// behind the committer.
  static void SlowTheStage(int64_t ms, uint64_t only = 0) {
    FaultInjector::Global().Arm("mine_batch", FaultKind::kDelay,
                                only == 0 ? 1 : only,
                                /*sticky=*/only == 0, ms);
  }

  /// The pattern sets a 1-thread pipeline serves after each of
  /// `batches` batches of `batch` articles.
  std::vector<std::vector<ServedPattern>> ReferenceSets(size_t batch,
                                                        size_t batches) {
    KgPipeline reference(&kb_, Config(1));
    std::vector<std::vector<ServedPattern>> sets;
    for (size_t b = 0; b < batches; ++b) {
      reference.IngestBatch(articles_.data() + b * batch, batch);
      sets.push_back(Served(reference.snapshot()->patterns()));
    }
    return sets;
  }

  static size_t Accepted(const KgPipeline& pipeline) {
    ReaderMutexLock lock(pipeline.kg_mutex());
    return pipeline.stats().accepted_triples;
  }

  WorldModel world_;
  CuratedKb kb_;
  std::vector<Article> articles_;
};

TEST_P(MiningStageTest, StagedMinerMatchesPerEdgeMining) {
  // Not yet full, full (the stream slides past it), and unbounded.
  for (size_t window_edges : {size_t{1} << 20, kWindowEdges, size_t{0}}) {
    for (size_t threads : {1, 2, 8}) {
      for (size_t batch : {1, 7, 64}) {
        SCOPED_TRACE("window " + std::to_string(window_edges) + " threads " +
                     std::to_string(threads) + " batch " +
                     std::to_string(batch));
        PipelineConfig config = Config(threads);
        config.miner_window_edges = window_edges;
        KgPipeline pipeline(&kb_, config);
        PerEdgeOracle oracle(pipeline.snapshot()->graph(), config);
        for (size_t start = 0; start < articles_.size(); start += batch) {
          pipeline.IngestBatch(articles_.data() + start,
                               std::min(batch, articles_.size() - start));
          std::shared_ptr<const KgSnapshot> snap = pipeline.snapshot();
          oracle.CatchUp(snap->graph());
          ASSERT_EQ(Served(snap->patterns()),
                    Served(RenderClosedPatterns(oracle.miner(),
                                                oracle.graph())))
              << "after article " << start;
          ReaderMutexLock lock(pipeline.kg_mutex());
          std::vector<PatternStats> staged =
              pipeline.miner()->FrequentPatterns();
          std::vector<PatternStats> direct = oracle.miner().FrequentPatterns();
          ASSERT_EQ(staged.size(), direct.size()) << "after article " << start;
          for (size_t i = 0; i < staged.size(); ++i) {
            ASSERT_TRUE(staged[i].pattern == direct[i].pattern) << "rank " << i;
            ASSERT_EQ(staged[i].support, direct[i].support) << "rank " << i;
            ASSERT_EQ(staged[i].embeddings, direct[i].embeddings)
                << "rank " << i;
          }
        }
        ASSERT_GT(Accepted(pipeline), 2 * kWindowEdges);
        ASSERT_FALSE(pipeline.snapshot()->patterns().empty());
      }
    }
  }
}

TEST_P(MiningStageTest, StageSeveralBatchesBehindServesEachVersion) {
  constexpr size_t kBatch = 10;
  constexpr size_t kBatches = 6;
  const auto reference = ReferenceSets(kBatch, kBatches);
  LatencyHistogram* waits = MetricsRegistry::Global().GetHistogram(
      "nous_mine_wait_latency_seconds", "");
  const uint64_t waits_before = waits->Snapshot().count();
  // The stage's first job is the curated bootstrap; stall the first
  // batch's for long enough that the committer runs into the backlog.
  SlowTheStage(1500, /*only=*/2);
  KgPipeline pipeline(&kb_, Config(4));
  std::vector<std::shared_ptr<const KgSnapshot>> snaps;
  size_t max_lag = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    pipeline.IngestBatch(articles_.data() + b * kBatch, kBatch);
    max_lag = std::max(max_lag, pipeline.mining_stage_lag());
    snaps.push_back(pipeline.snapshot());
  }
  // The committer ran ahead of the stalled stage until two jobs were
  // queued behind the running one, then waited.
  EXPECT_EQ(max_lag, 3u);
  EXPECT_GT(waits->Snapshot().count(), waits_before);
  for (size_t b = 0; b < kBatches; ++b) {
    EXPECT_EQ(Served(snaps[b]->patterns()), reference[b]) << "batch " << b;
  }
  EXPECT_EQ(pipeline.mining_stage_lag(), 0u);
}

TEST_P(MiningStageTest, PatternQueryOnAnOldVersionAnswersThatVersion) {
  constexpr size_t kBatch = 10;
  const auto reference = ReferenceSets(kBatch, 4);
  SlowTheStage(50);
  KgPipeline pipeline(&kb_, Config(2));
  pipeline.IngestBatch(articles_.data(), kBatch);
  pipeline.IngestBatch(articles_.data() + kBatch, kBatch);
  std::shared_ptr<const KgSnapshot> old = pipeline.snapshot();
  pipeline.IngestBatch(articles_.data() + 2 * kBatch, kBatch);
  pipeline.IngestBatch(articles_.data() + 3 * kBatch, kBatch);
  {
    // Let the stage move past the old version.
    ReaderMutexLock lock(pipeline.kg_mutex());
    ASSERT_NE(pipeline.miner(), nullptr);
  }
  ASSERT_NE(reference[1], reference[3]);
  const QueryEngine engine(&old->graph(), old->patterns());
  Result<Answer> answer = engine.Execute(*ParseQuery("show patterns"));
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(Served(answer->patterns()), reference[1]);
  EXPECT_EQ(Served(pipeline.snapshot()->patterns()), reference[3]);
}

/// The store publishes only newer versions, so the images these tests
/// load come from more batches than the warm pipelines committed.
constexpr size_t kImageBatch = 3;
constexpr size_t kWarmBatch = 10;
constexpr size_t kWarmBatches = 3;

TEST_P(MiningStageTest, LoadStateWhileJobsAreQueued) {
  const size_t half = articles_.size() / 2;
  KgPipeline source(&kb_, Config(1));
  for (size_t start = 0; start < half; start += kImageBatch) {
    source.IngestBatch(articles_.data() + start, kImageBatch);
  }
  const std::string image = source.SaveState();
  const auto served = Served(source.snapshot()->patterns());

  SlowTheStage(50);
  KgPipeline warm(&kb_, Config(4));
  for (size_t b = 0; b < kWarmBatches; ++b) {
    warm.IngestBatch(articles_.data() + half + b * kWarmBatch, kWarmBatch);
  }
  EXPECT_GT(warm.mining_stage_lag(), 0u);
  Status load = warm.LoadState(image);
  ASSERT_TRUE(load.ok()) << load;
  EXPECT_EQ(Served(warm.snapshot()->patterns()), served);
  EXPECT_EQ(warm.SaveState(), image);
  // And the two keep mining the same stream alike.
  source.IngestBatch(articles_.data() + half, articles_.size() - half);
  warm.IngestBatch(articles_.data() + half, articles_.size() - half);
  EXPECT_EQ(Served(warm.snapshot()->patterns()),
            Served(source.snapshot()->patterns()));
}

TEST_P(MiningStageTest, FollowerCheckpointWhileJobsAreQueued) {
  const size_t half = articles_.size() / 2;
  Nous::Options options;
  options.pipeline = Config(1);
  Nous leader(&kb_, options);
  for (size_t start = 0; start < half; start += kImageBatch) {
    NOUS_CHECK_OK(leader.IngestBatch(std::vector<Article>(
        articles_.begin() + start, articles_.begin() + start + kImageBatch)));
  }
  const std::string image = leader.pipeline().SaveState();

  const std::string dir = ::testing::TempDir() + "nous_mining_stage_follower_" +
                          (GetParam() ? "typed" : "untyped");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  for (const char* file :
       {"/wal.log", "/checkpoint.nous", "/checkpoint.nous.tmp"}) {
    ASSERT_TRUE(RemoveFile(dir + file).ok());
  }
  options.pipeline = Config(4);
  options.durability.dir = dir;
  Nous follower(&kb_, options);
  NOUS_CHECK_OK(follower.EnableDurability());
  SlowTheStage(50);
  for (size_t b = 0; b < kWarmBatches; ++b) {
    const auto first = articles_.begin() + half + b * kWarmBatch;
    NOUS_CHECK_OK(
        follower.IngestBatch(std::vector<Article>(first, first + kWarmBatch)));
  }
  EXPECT_GT(follower.pipeline().mining_stage_lag(), 0u);
  NOUS_CHECK_OK(follower.ApplyReplicatedCheckpoint(
      follower.last_durable_seq() + 1, image));
  EXPECT_EQ(Served(follower.snapshot()->patterns()),
            Served(leader.snapshot()->patterns()));
  Result<Answer> answer = follower.Ask("show patterns");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(Served(answer->patterns()), Served(leader.snapshot()->patterns()));
}

TEST_P(MiningStageTest, DestructionWithJobsQueuedFinishesThem) {
  constexpr size_t kBatch = 10;
  const auto reference = ReferenceSets(kBatch, 3);
  SlowTheStage(50);
  std::vector<std::shared_ptr<const KgSnapshot>> snaps;
  {
    KgPipeline pipeline(&kb_, Config(4));
    for (size_t b = 0; b < 3; ++b) {
      pipeline.IngestBatch(articles_.data() + b * kBatch, kBatch);
      snaps.push_back(pipeline.snapshot());
    }
    EXPECT_GT(pipeline.mining_stage_lag(), 0u);
  }
  // The pipeline is gone; its stage finished every version first.
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_TRUE(snaps[b]->patterns_ready()) << "batch " << b;
    EXPECT_EQ(Served(snaps[b]->patterns()), reference[b]) << "batch " << b;
  }
}

TEST_P(MiningStageTest, FinalizeWhileTheStageMines) {
  static constexpr size_t kBatch = 30;
  auto ingest = [this](KgPipeline* pipeline) {
    for (size_t start = 0; start < articles_.size(); start += kBatch) {
      pipeline->IngestBatch(articles_.data() + start,
                            std::min(kBatch, articles_.size() - start));
    }
  };
  KgPipeline reference(&kb_, Config(1));
  ingest(&reference);
  reference.Finalize();

  SlowTheStage(50);
  KgPipeline pipeline(&kb_, Config(4));
  ingest(&pipeline);
  EXPECT_GT(pipeline.mining_stage_lag(), 0u);
  pipeline.Finalize();
  EXPECT_EQ(pipeline.SaveState(), reference.SaveState());
  // Finalize adds no edge: its version serves the last batch's set.
  EXPECT_EQ(Served(pipeline.snapshot()->patterns()),
            Served(reference.snapshot()->patterns()));
}

INSTANTIATE_TEST_SUITE_P(Mining, MiningStageTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Typed" : "Untyped";
                         });

}  // namespace
}  // namespace nous
