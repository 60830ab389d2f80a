// Parallel-ingest guarantees: "extract in parallel, fuse in order"
// must leave the fused KG bit-identical to serial ingestion for any
// thread count, and queries must be safe while another thread is
// ingesting (the shared/exclusive kg_mutex contract).

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/nous.h"
#include "core/pipeline.h"
#include "corpus/article_generator.h"
#include "corpus/document_stream.h"
#include "corpus/world_model.h"
#include "kb/kb_generator.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace nous {
namespace {

class ParallelPipelineFixture : public ::testing::Test {
 protected:
  ParallelPipelineFixture()
      : world_(WorldModel::BuildDroneWorld(WorldConfig())),
        kb_(BuildCuratedKb(world_, Ontology::DroneDefault(),
                           Coverage())) {}

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
  static Nous::Options FastOptions(size_t num_threads) {
    Nous::Options options;
    options.pipeline.lda.iterations = 40;
    options.pipeline.bpr.epochs = 5;
    options.pipeline.miner.min_support = 3;
    // Exercise the periodic refresh path under both modes.
    options.pipeline.bpr_refresh_interval = 25;
    options.pipeline.num_threads = num_threads;
    return options;
  }
  std::vector<Article> MakeArticles() {
    CorpusConfig config;
    config.pronoun_rate = 0.2;
    config.alias_rate = 0.2;
    config.passive_rate = 0.2;
    return ArticleGenerator(&world_, config).GenerateArticles();
  }

  /// (subject label, predicate, object label, confidence, timestamp,
  /// curated) for every edge, in edge-id order.
  using EdgeRow =
      std::tuple<std::string, std::string, std::string, double,
                 Timestamp, bool>;
  static std::vector<EdgeRow> DumpEdges(const PropertyGraph& g) {
    std::vector<EdgeRow> rows;
    g.ForEachEdge([&](EdgeId, const EdgeRecord& rec) {
      rows.emplace_back(g.VertexLabel(rec.subject),
                        g.predicates().GetString(rec.predicate),
                        g.VertexLabel(rec.object), rec.meta.confidence,
                        rec.meta.timestamp, rec.meta.curated);
    });
    return rows;
  }

  static void ExpectStatsEqualModuloTiming(const PipelineStats& a,
                                           const PipelineStats& b) {
    EXPECT_EQ(a.documents, b.documents);
    EXPECT_EQ(a.extractions, b.extractions);
    EXPECT_EQ(a.accepted_triples, b.accepted_triples);
    EXPECT_EQ(a.deduped_triples, b.deduped_triples);
    EXPECT_EQ(a.dropped_low_confidence, b.dropped_low_confidence);
    EXPECT_EQ(a.dropped_unmapped, b.dropped_unmapped);
    EXPECT_EQ(a.mapped_triples, b.mapped_triples);
    EXPECT_EQ(a.unmapped_kept, b.unmapped_kept);
    EXPECT_EQ(a.linked_to_existing, b.linked_to_existing);
    EXPECT_EQ(a.new_entities, b.new_entities);
    EXPECT_EQ(a.ds_alignments, b.ds_alignments);
    EXPECT_EQ(a.retractions, b.retractions);
  }

  /// SaveState bytes of a 1-thread pipeline that ingested `articles`
  /// as one batch.
  std::string SerialImage(const std::vector<Article>& articles) {
    Nous nous(&kb_, FastOptions(1));
    nous.pipeline().IngestBatch(articles);
    return nous.pipeline().SaveState();
  }

  static PipelineStats Stats(const Nous& nous) {
    ReaderMutexLock lock(nous.kg_mutex());
    return nous.stats();
  }

  /// Occupies every worker of `pool` until the returned promise is set:
  /// tasks submitted later (an IngestBatch's extraction helpers) queue
  /// behind the blockers and run only after the release.
  static std::promise<void> BlockPool(ThreadPool* pool) {
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    for (size_t w = 0; w < pool->num_threads(); ++w) {
      pool->Submit([released] { released.wait(); });
    }
    return release;
  }

  WorldModel world_;
  CuratedKb kb_;
};

TEST_F(ParallelPipelineFixture, BatchIngestAtEightThreadsMatchesSerial) {
  auto articles = MakeArticles();

  // Serial reference: one article at a time on one thread.
  Nous serial(&kb_, FastOptions(1));
  for (const Article& a : articles) NOUS_CHECK_OK(serial.Ingest(a));
  NOUS_CHECK_OK(serial.Finalize());

  // Batched ingest across 8 extraction threads.
  Nous parallel(&kb_, FastOptions(8));
  parallel.pipeline().IngestBatch(articles);
  NOUS_CHECK_OK(parallel.Finalize());

  ASSERT_EQ(serial.graph().NumVertices(), parallel.graph().NumVertices());
  ASSERT_EQ(serial.graph().NumEdges(), parallel.graph().NumEdges());
  auto serial_edges = DumpEdges(serial.graph());
  auto parallel_edges = DumpEdges(parallel.graph());
  ASSERT_EQ(serial_edges.size(), parallel_edges.size());
  for (size_t i = 0; i < serial_edges.size(); ++i) {
    EXPECT_EQ(std::get<0>(serial_edges[i]), std::get<0>(parallel_edges[i]));
    EXPECT_EQ(std::get<1>(serial_edges[i]), std::get<1>(parallel_edges[i]));
    EXPECT_EQ(std::get<2>(serial_edges[i]), std::get<2>(parallel_edges[i]));
    EXPECT_DOUBLE_EQ(std::get<3>(serial_edges[i]),
                     std::get<3>(parallel_edges[i]));
    EXPECT_EQ(std::get<4>(serial_edges[i]), std::get<4>(parallel_edges[i]));
    EXPECT_EQ(std::get<5>(serial_edges[i]), std::get<5>(parallel_edges[i]));
  }
  ExpectStatsEqualModuloTiming(serial.stats(), parallel.stats());
}

TEST_F(ParallelPipelineFixture, IngestStreamBatchingMatchesSerial) {
  // IngestStream batches internally (64 articles per IngestBatch);
  // the result must still equal one-at-a-time ingestion.
  auto articles = MakeArticles();

  Nous serial(&kb_, FastOptions(1));
  for (const Article& a : articles) NOUS_CHECK_OK(serial.Ingest(a));

  Nous streamed(&kb_, FastOptions(4));
  DocumentStream stream(articles);
  NOUS_CHECK_OK(streamed.IngestStream(&stream, /*finalize=*/false));

  EXPECT_EQ(serial.graph().NumVertices(), streamed.graph().NumVertices());
  EXPECT_EQ(serial.graph().NumEdges(), streamed.graph().NumEdges());
  EXPECT_EQ(DumpEdges(serial.graph()), DumpEdges(streamed.graph()));
  ExpectStatsEqualModuloTiming(serial.stats(), streamed.stats());
}

TEST_F(ParallelPipelineFixture, SaveStateBytesMatchAcrossRunsAndThreadCounts) {
  // Durable images are a pure function of the ingested stream: no
  // wall-clock value inside, and the same bytes at every thread count.
  auto articles = MakeArticles();
  auto image = [&](size_t threads) {
    Nous nous(&kb_, FastOptions(threads));
    NOUS_CHECK_OK(nous.IngestBatch(articles));
    return nous.pipeline().SaveState();
  };
  const std::string first = image(1);
  EXPECT_EQ(image(1), first);
  EXPECT_EQ(image(4), first);
}

TEST_F(ParallelPipelineFixture,
       FinalizedSaveStateBytesMatchAcrossThreadCounts) {
  // Finalize fits BPR and LDA side by side on the pool. The image holds
  // the rescored edge confidences, the vertex topics and the BPR
  // parameters, so the fits must not depend on the thread count.
  auto articles = MakeArticles();
  auto image = [&](size_t threads) {
    Nous nous(&kb_, FastOptions(threads));
    NOUS_CHECK_OK(nous.IngestBatch(articles));
    NOUS_CHECK_OK(nous.Finalize());
    return nous.pipeline().SaveState();
  };
  const std::string first = image(1);
  EXPECT_EQ(image(2), first);
  EXPECT_EQ(image(4), first);
  EXPECT_EQ(image(8), first);
}

TEST_F(ParallelPipelineFixture, CommitterExtractsEverythingWhenHelpersNeverRun) {
  // A pool whose workers are all busy for the whole batch: the
  // committing thread extracts every document itself, in order, and
  // the image is the 1-thread one.
  auto articles = MakeArticles();
  Nous nous(&kb_, FastOptions(4));
  std::promise<void> release = BlockPool(nous.pipeline().pool());
  nous.pipeline().IngestBatch(articles);
  EXPECT_EQ(Stats(nous).inline_extractions, articles.size());
  EXPECT_EQ(Stats(nous).extract_wait_seconds, 0.0);
  EXPECT_EQ(nous.pipeline().SaveState(), SerialImage(articles));
  release.set_value();
  nous.pipeline().pool()->Wait();
}

TEST_F(ParallelPipelineFixture, HelpersRunAfterTheBatchReturnedTouchNothing) {
  // The batch's helpers are dequeued only after IngestBatch returned
  // and its articles were freed: they must find nothing to claim and
  // read neither the articles nor the pipeline (ASan and TSan check
  // the accesses; the image checks the state).
  const std::vector<Article> articles = MakeArticles();
  Nous nous(&kb_, FastOptions(4));
  std::promise<void> release = BlockPool(nous.pipeline().pool());
  {
    std::vector<Article> batch(articles.begin(),
                               articles.begin() + articles.size() / 2);
    nous.pipeline().IngestBatch(batch);
  }
  const std::string image = nous.pipeline().SaveState();
  release.set_value();
  nous.pipeline().pool()->Wait();
  EXPECT_EQ(nous.pipeline().SaveState(), image);
  // The pool serves the next batch as usual.
  nous.pipeline().IngestBatch(articles.data() + articles.size() / 2,
                              articles.size() - articles.size() / 2);
  Nous reference(&kb_, FastOptions(1));
  reference.pipeline().IngestBatch(articles.data(), articles.size() / 2);
  reference.pipeline().IngestBatch(articles.data() + articles.size() / 2,
                                   articles.size() - articles.size() / 2);
  EXPECT_EQ(nous.pipeline().SaveState(), reference.pipeline().SaveState());
}

TEST_F(ParallelPipelineFixture, CommitterWaitsForASlowHelperThenKeepsOrder) {
  // The committer stalls in the first document while the pool is
  // still blocked, so the next extraction to start is a helper's; that
  // one stalls longer. The committer commits its own document, extracts
  // whatever is unclaimed, then waits for the helper's document and
  // commits the rest in arrival order.
  auto articles = MakeArticles();
  ASSERT_GE(articles.size(), 8u);
  articles.resize(8);
  const std::string serial = SerialImage(articles);

  FaultInjector& faults = FaultInjector::Global();
  faults.Reset();
  faults.Arm("ingest_extract", FaultKind::kDelay, 1, /*sticky=*/false,
             /*arg=*/100);
  Nous nous(&kb_, FastOptions(2));
  std::promise<void> release = BlockPool(nous.pipeline().pool());
  std::thread ingest([&] { nous.pipeline().IngestBatch(articles); });
  // Hit 1 is the committer's (no helper can run yet); once it sleeps,
  // arm hit 2 and let the helpers in.
  while (faults.HitCount("ingest_extract") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  faults.Arm("ingest_extract", FaultKind::kDelay, 2, /*sticky=*/false,
             /*arg=*/400);
  release.set_value();
  ingest.join();
  faults.Reset();

  const PipelineStats stats = Stats(nous);
  EXPECT_EQ(stats.documents, articles.size());
  EXPECT_LT(stats.inline_extractions, articles.size());
  EXPECT_GT(stats.extract_wait_seconds, 0.0);
  EXPECT_EQ(nous.pipeline().SaveState(), serial);
}

TEST_F(ParallelPipelineFixture, QueriesRunSafelyDuringIngest) {
  // Readers (Ask, ComputeStats) hold the shared lock while a writer
  // thread streams documents in. The test is a smoke check for the
  // lock discipline: under TSan it also proves the absence of races.
  auto articles = MakeArticles();
  Nous nous(&kb_, FastOptions(4));

  std::atomic<bool> ingest_done{false};
  std::thread writer([&] {
    constexpr size_t kBatch = 8;
    for (size_t start = 0; start < articles.size(); start += kBatch) {
      size_t count = std::min(kBatch, articles.size() - start);
      nous.pipeline().IngestBatch(articles.data() + start, count);
    }
    ingest_done.store(true);
  });

  size_t queries = 0;
  do {  // at least one query even if ingest wins the race
    auto answer = nous.Ask("tell me about " + kb_.entities()[0].name);
    if (answer.ok()) {
      EXPECT_FALSE(answer->facts.empty());
    }
    GraphStats stats = nous.ComputeStats();
    EXPECT_GE(stats.vertices, kb_.entities().size());
    ++queries;
  } while (!ingest_done.load());
  writer.join();
  EXPECT_GT(queries, 0u);

  // After the writer finishes, the KG matches a serial build.
  Nous reference(&kb_, FastOptions(1));
  for (const Article& a : articles) NOUS_CHECK_OK(reference.Ingest(a));
  EXPECT_EQ(reference.graph().NumEdges(), nous.graph().NumEdges());
}

}  // namespace
}  // namespace nous
