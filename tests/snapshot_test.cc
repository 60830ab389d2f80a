// Snapshot-isolated query serving (DESIGN.md §5.11): publish-on-commit
// KgSnapshots, the monotonic KG version, the versioned LRU query
// cache, and parity with the live graph. The concurrency case at the bottom
// is the TSan target for "queries never hold kg_mutex": readers and a
// writer run together and every answer must be consistent with the
// exact snapshot it was served from.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "core/nous.h"
#include "core/pipeline.h"
#include "core/snapshot.h"
#include "corpus/article_generator.h"
#include "corpus/world_model.h"
#include "durability/fs_util.h"
#include "kb/kb_generator.h"
#include "qa/query.h"
#include "qa/query_cache.h"
#include "qa/query_engine.h"
#include "common/status.h"

namespace nous {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest()
      : world_(WorldModel::BuildDroneWorld(WorldConfig())),
        kb_(BuildCuratedKb(world_, Ontology::DroneDefault(),
                           Coverage())),
        articles_(ArticleGenerator(&world_, CorpusConfig{})
                      .GenerateArticles()) {}

  static DroneWorldConfig WorldConfig() {
    DroneWorldConfig config;
    config.num_companies = 12;
    config.num_people = 8;
    config.num_products = 8;
    config.num_events = 60;
    config.seed = 11;
    return config;
  }
  static KbCoverage Coverage() {
    KbCoverage coverage;
    coverage.entity_coverage = 0.6;
    return coverage;
  }

  /// A connected entity to ask about, picked from a snapshot so the
  /// question has a non-trivial answer.
  static std::string BusyEntity(const KgSnapshot& snap) {
    VertexId best = 0;
    size_t best_degree = 0;
    for (VertexId v = 0; v < snap.graph().NumVertices(); ++v) {
      size_t degree = snap.graph().OutDegree(v) + snap.graph().InDegree(v);
      if (degree > best_degree) {
        best = v;
        best_degree = degree;
      }
    }
    EXPECT_GT(best_degree, 0u);
    return snap.graph().VertexLabel(best);
  }

  WorldModel world_;
  CuratedKb kb_;
  std::vector<Article> articles_;
};

TEST_F(SnapshotTest, PublishedAtConstruction) {
  Nous nous(&kb_);
  std::shared_ptr<const KgSnapshot> snap = nous.snapshot();
  ASSERT_NE(snap, nullptr);
  // Version 1 = the curated bootstrap commit.
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_GT(snap->graph().NumVertices(), 0u);
}

TEST_F(SnapshotTest, VersionBumpsPerMutatingCall) {
  Nous nous(&kb_);
  EXPECT_EQ(nous.snapshot()->version(), 1u);
  NOUS_CHECK_OK(nous.Ingest(articles_[0]));
  EXPECT_EQ(nous.snapshot()->version(), 2u);
  // One bump per batch call (the WAL commit unit), not per article.
  NOUS_CHECK_OK(nous.IngestBatch({articles_[1], articles_[2], articles_[3]}));
  EXPECT_EQ(nous.snapshot()->version(), 3u);
  NOUS_CHECK_OK(nous.Finalize());
  EXPECT_EQ(nous.snapshot()->version(), 4u);
}

TEST_F(SnapshotTest, SnapshotsAreIsolatedFromLaterIngest) {
  Nous nous(&kb_);
  NOUS_CHECK_OK(nous.Ingest(articles_[0]));
  std::shared_ptr<const KgSnapshot> before = nous.snapshot();
  size_t edges_before = before->graph().NumEdges();
  size_t vertices_before = before->graph().NumVertices();
  for (size_t i = 1; i < articles_.size(); ++i) {
    NOUS_CHECK_OK(nous.Ingest(articles_[i]));
  }
  // The held snapshot did not move.
  EXPECT_EQ(before->graph().NumEdges(), edges_before);
  EXPECT_EQ(before->graph().NumVertices(), vertices_before);
  // The latest one did.
  std::shared_ptr<const KgSnapshot> after = nous.snapshot();
  EXPECT_GT(after->version(), before->version());
  EXPECT_GT(after->graph().NumEdges(), edges_before);
}

TEST_F(SnapshotTest, SnapshotAnswersMatchLockedAnswers) {
  // Snapshot serving (cache off, so every ask re-executes) must render
  // each query class exactly as an engine run against the live graph
  // and miner under the reader lock.
  Nous::Options options;
  options.query_cache.entries = 0;
  Nous nous(&kb_, options);
  for (const Article& a : articles_) NOUS_CHECK_OK(nous.Ingest(a));
  std::shared_ptr<const KgSnapshot> snap = nous.snapshot();
  ASSERT_NE(snap, nullptr);
  std::string entity = BusyEntity(*snap);
  std::vector<std::string> questions = {"tell me about " + entity,
                                        "what is trending",
                                        "show patterns"};
  for (const std::string& question : questions) {
    std::shared_ptr<const KgSnapshot> out;
    auto from_snapshot = nous.Ask(question, &out);
    ReaderMutexLock lock(nous.kg_mutex());
    std::vector<RenderedPattern> patterns =
        RenderClosedPatterns(*nous.miner(), nous.graph());
    QueryEngine locked(&nous.graph(), patterns, options.query);
    auto from_locked = locked.ExecuteText(question);
    ASSERT_EQ(from_snapshot.ok(), from_locked.ok()) << question;
    if (!from_snapshot.ok()) continue;
    EXPECT_EQ(out, snap);
    EXPECT_EQ(from_snapshot->Render(snap->graph()),
              from_locked->Render(nous.graph()))
        << question;
  }
}

TEST_F(SnapshotTest, AskReportsTheSnapshotItAnswered) {
  Nous nous(&kb_);
  for (size_t i = 0; i < 8; ++i) NOUS_CHECK_OK(nous.Ingest(articles_[i]));
  std::shared_ptr<const KgSnapshot> out;
  auto answer = nous.Ask("what is trending", &out);
  ASSERT_TRUE(answer.ok());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out, nous.snapshot());
}

TEST_F(SnapshotTest, CacheHitsOnRepeatAndCountsStats) {
  Nous nous(&kb_);
  for (const Article& a : articles_) NOUS_CHECK_OK(nous.Ingest(a));
  ASSERT_NE(nous.query_cache(), nullptr);
  std::string question =
      "tell me about " + BusyEntity(*nous.snapshot());
  auto first = nous.Ask(question);
  ASSERT_TRUE(first.ok());
  QueryCache::Stats after_first = nous.query_cache()->stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, 1u);
  auto second = nous.Ask(question);
  ASSERT_TRUE(second.ok());
  QueryCache::Stats after_second = nous.query_cache()->stats();
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(after_second.misses, 1u);
  const PropertyGraph& graph = nous.snapshot()->graph();
  EXPECT_EQ(first->Render(graph), second->Render(graph));
}

TEST_F(SnapshotTest, IngestInvalidatesCachedAnswers) {
  // The stale-answer regression: ask, ingest more facts, ask the same
  // question. The second answer must match a cache-free reference
  // built from the identical corpus — never the cached pre-ingest
  // answer.
  Nous cached_nous(&kb_);
  Nous::Options no_cache;
  no_cache.query_cache.entries = 0;
  Nous reference(&kb_, no_cache);
  size_t half = articles_.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    NOUS_CHECK_OK(cached_nous.Ingest(articles_[i]));
    NOUS_CHECK_OK(reference.Ingest(articles_[i]));
  }
  std::string question =
      "tell me about " + BusyEntity(*reference.snapshot());
  auto stale = cached_nous.Ask(question);
  ASSERT_TRUE(stale.ok());
  for (size_t i = half; i < articles_.size(); ++i) {
    NOUS_CHECK_OK(cached_nous.Ingest(articles_[i]));
    NOUS_CHECK_OK(reference.Ingest(articles_[i]));
  }
  auto fresh = cached_nous.Ask(question);
  auto expected = reference.Ask(question);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(fresh->Render(cached_nous.snapshot()->graph()),
            expected->Render(reference.snapshot()->graph()));
  // And the second ask was a re-execution, not a hit.
  QueryCache::Stats stats = cached_nous.query_cache()->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST_F(SnapshotTest, CacheEvictsLeastRecentlyUsed) {
  Nous::Options options;
  options.query_cache.entries = 2;
  Nous nous(&kb_, options);
  for (const Article& a : articles_) NOUS_CHECK_OK(nous.Ingest(a));
  std::shared_ptr<const KgSnapshot> snap = nous.snapshot();
  std::vector<std::string> labels;
  for (VertexId v = 0;
       v < snap->graph().NumVertices() && labels.size() < 3; ++v) {
    if (snap->graph().OutDegree(v) + snap->graph().InDegree(v) > 0) {
      labels.push_back(snap->graph().VertexLabel(v));
    }
  }
  ASSERT_EQ(labels.size(), 3u);
  for (const std::string& label : labels) {
    ASSERT_TRUE(nous.Ask("tell me about " + label).ok());
  }
  const QueryCache* cache = nous.query_cache();
  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(cache->capacity(), 2u);
  EXPECT_EQ(cache->stats().evictions, 1u);
  // The evicted (oldest) entry misses; the newest hits.
  ASSERT_TRUE(nous.Ask("tell me about " + labels[2]).ok());
  EXPECT_EQ(nous.query_cache()->stats().hits, 1u);
  ASSERT_TRUE(nous.Ask("tell me about " + labels[0]).ok());
  EXPECT_EQ(nous.query_cache()->stats().misses, 4u);
}

TEST_F(SnapshotTest, CacheCanBeDisabled) {
  // Zero entries is the one off switch (nous_server --no-query-cache).
  Nous::Options options;
  options.query_cache.entries = 0;
  Nous nous(&kb_, options);
  EXPECT_EQ(nous.query_cache(), nullptr);
  for (size_t i = 0; i < 4; ++i) NOUS_CHECK_OK(nous.Ingest(articles_[i]));
  EXPECT_TRUE(nous.Ask("what is trending").ok());
}

TEST_F(SnapshotTest, ZeroEntriesDisablesCache) {
  Nous::Options options;
  options.query_cache.entries = 0;
  Nous nous(&kb_, options);
  EXPECT_EQ(nous.query_cache(), nullptr);
}

TEST_F(SnapshotTest, VersionSurvivesSaveLoadState) {
  Nous nous(&kb_);
  for (size_t i = 0; i < 5; ++i) NOUS_CHECK_OK(nous.Ingest(articles_[i]));
  uint64_t version = nous.snapshot()->version();
  ASSERT_EQ(version, 6u);
  std::string state = nous.pipeline().SaveState();

  Nous restored(&kb_);
  ASSERT_TRUE(restored.pipeline().LoadState(state).ok());
  ASSERT_NE(restored.snapshot(), nullptr);
  EXPECT_EQ(restored.snapshot()->version(), version);
  // And the restored instance keeps counting from there.
  NOUS_CHECK_OK(restored.Ingest(articles_[5]));
  EXPECT_EQ(restored.snapshot()->version(), version + 1);
}

/// A snapshot's graph image and its served patterns, as bytes.
std::string GraphBytes(const KgSnapshot& snap) {
  BinaryWriter writer;
  snap.graph().SaveBinary(&writer);
  return writer.Take();
}
std::string ServedPatterns(const KgSnapshot& snap) {
  std::string out;
  for (const RenderedPattern& p : snap.patterns()) {
    out += p.description + " " + std::to_string(p.support) + " " +
           std::to_string(p.embeddings) + "\n";
  }
  return out;
}

TEST_F(SnapshotTest, LoadingAnOlderImagePublishesIt) {
  // The image is cut at version 2; the pipeline it is loaded into has
  // moved on to version 6 over other articles. The load must replace
  // the served KG and patterns, although the image's version is lower.
  ASSERT_GE(articles_.size(), 20u);
  KgPipeline source(&kb_);
  source.IngestBatch(articles_.data(), 8);
  const std::string image = source.SaveState();
  const std::shared_ptr<const KgSnapshot> expected = source.snapshot();
  ASSERT_EQ(expected->version(), 2u);
  ASSERT_FALSE(expected->patterns().empty());

  KgPipeline warm(&kb_);
  for (size_t i = 0; i < 5; ++i) warm.IngestBatch(&articles_[8 + i * 2], 2);
  const std::shared_ptr<const KgSnapshot> before = warm.snapshot();
  ASSERT_EQ(before->version(), 6u);
  ASSERT_NE(GraphBytes(*before), GraphBytes(*expected));
  ASSERT_NE(ServedPatterns(*before), ServedPatterns(*expected));

  ASSERT_TRUE(warm.LoadState(image).ok());
  const std::shared_ptr<const KgSnapshot> loaded = warm.snapshot();
  EXPECT_EQ(loaded->version(), 2u);
  EXPECT_GT(loaded->load_generation(), before->load_generation());
  EXPECT_EQ(GraphBytes(*loaded), GraphBytes(*expected));
  EXPECT_EQ(ServedPatterns(*loaded), ServedPatterns(*expected));
  // Publication stays monotonic after the load: the next batch wins.
  warm.IngestBatch(&articles_[18], 2);
  EXPECT_EQ(warm.snapshot()->version(), 3u);
  EXPECT_EQ(warm.snapshot()->load_generation(), loaded->load_generation());
}

TEST_F(SnapshotTest, AnswerCachedBeforeALoadIsNotServedAfterIt) {
  // A follower at version 6 caches an answer, installs a leader's
  // version-2 checkpoint and ingests back up to version 6: the same
  // (question, version) must be re-executed on the loaded KG.
  Nous::Options no_cache;
  no_cache.query_cache.entries = 0;
  Nous leader(&kb_, no_cache);
  NOUS_CHECK_OK(leader.IngestBatch(std::vector<Article>(
      articles_.begin(), articles_.begin() + 8)));
  const std::string image = leader.pipeline().SaveState();

  const std::string dir = ::testing::TempDir() + "nous_snapshot_load_cache";
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  for (const char* file :
       {"/wal.log", "/checkpoint.nous", "/checkpoint.nous.tmp"}) {
    ASSERT_TRUE(RemoveFile(dir + file).ok());
  }
  Nous::Options options;
  options.durability.dir = dir;
  Nous follower(&kb_, options);
  NOUS_CHECK_OK(follower.EnableDurability());
  for (size_t i = 0; i < 5; ++i) {
    NOUS_CHECK_OK(follower.Ingest(articles_[8 + i]));
  }
  ASSERT_EQ(follower.snapshot()->version(), 6u);
  const std::string question =
      "tell me about " + BusyEntity(*leader.snapshot());
  ASSERT_TRUE(follower.Ask(question).ok());
  ASSERT_EQ(follower.query_cache()->size(), 1u);

  NOUS_CHECK_OK(follower.ApplyReplicatedCheckpoint(
      follower.last_durable_seq() + 1, image));
  EXPECT_EQ(follower.query_cache()->size(), 0u);
  for (size_t i = 0; i < 4; ++i) {
    NOUS_CHECK_OK(follower.Ingest(articles_[13 + i]));
    NOUS_CHECK_OK(leader.Ingest(articles_[13 + i]));
  }
  ASSERT_EQ(follower.snapshot()->version(), 6u);
  const uint64_t hits = follower.query_cache()->stats().hits;
  Result<Answer> answer = follower.Ask(question);
  Result<Answer> expected = leader.Ask(question);
  ASSERT_TRUE(answer.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(follower.query_cache()->stats().hits, hits);
  EXPECT_EQ(answer->Render(follower.snapshot()->graph()),
            expected->Render(leader.snapshot()->graph()));
}

TEST(QueryCacheTest, EntriesOfAnotherLoadGenerationMiss) {
  // An answer a reader computed on a pre-load snapshot and inserted
  // after the load cleared the cache must not be served at the same
  // version number.
  QueryCache cache(4);
  Answer answer;
  answer.kind = QueryKind::kPattern;
  cache.Insert("patterns", /*generation=*/0, /*version=*/6, answer);
  Answer out;
  EXPECT_FALSE(cache.Lookup("patterns", 1, 6, &out));
  EXPECT_EQ(cache.size(), 0u);
  cache.Insert("patterns", 1, 6, answer);
  EXPECT_TRUE(cache.Lookup("patterns", 1, 6, &out));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("patterns", 1, 6, &out));
}

TEST_F(SnapshotTest, PatternSetIsSharedWhileMinerUnchanged) {
  Nous nous(&kb_);
  for (size_t i = 0; i < 6; ++i) NOUS_CHECK_OK(nous.Ingest(articles_[i]));
  std::shared_ptr<const KgSnapshot> before = nous.snapshot();
  ASSERT_NE(before, nullptr);
  // Finalize rescores edges and re-publishes, but feeds no new window
  // events to the miner — the rendered pattern set must be reused
  // (shared_ptr identity), not re-rendered.
  NOUS_CHECK_OK(nous.Finalize());
  std::shared_ptr<const KgSnapshot> after = nous.snapshot();
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->version(), before->version());
  EXPECT_EQ(after->pattern_set(), before->pattern_set())
      << "publish with an unchanged miner generation re-rendered patterns";
  // New stream edges advance the miner; the next publish re-renders.
  NOUS_CHECK_OK(nous.Ingest(articles_[6]));
  std::shared_ptr<const KgSnapshot> advanced = nous.snapshot();
  ASSERT_NE(advanced, nullptr);
  EXPECT_NE(advanced->pattern_set(), before->pattern_set());
  // Whatever the pointer identity, patterns() is always callable.
  (void)advanced->patterns();
}

TEST_F(SnapshotTest, TrendingAndPatternAnswersShareTheSnapshotPatternSet) {
  Nous nous(&kb_);
  for (size_t i = 0; i < 10; ++i) NOUS_CHECK_OK(nous.Ingest(articles_[i]));
  std::shared_ptr<const KgSnapshot> snap;
  Result<Answer> trending = nous.Ask("what is trending", &snap);
  ASSERT_TRUE(trending.ok());
  ASSERT_NE(snap, nullptr);
  const std::shared_ptr<const RenderedPatternSet> set = snap->pattern_set();
  ASSERT_NE(set, nullptr);
  ASSERT_FALSE(set->patterns.empty());
  // Both answers hold the snapshot's set itself, not a copy.
  EXPECT_EQ(trending->pattern_set, set);
  std::shared_ptr<const KgSnapshot> pattern_snap;
  Result<Answer> patterns = nous.Ask("show patterns", &pattern_snap);
  ASSERT_TRUE(patterns.ok());
  ASSERT_EQ(pattern_snap, snap);
  EXPECT_EQ(patterns->pattern_set, set);
  // Entity answers read no patterns.
  Result<Answer> entity = nous.Ask("tell me about " + BusyEntity(*snap));
  ASSERT_TRUE(entity.ok());
  EXPECT_EQ(entity->pattern_set, nullptr);

  // They render as the span-constructed engine's answers do.
  const QueryEngine copied(&snap->graph(), snap->patterns(),
                           nous.options().query);
  for (const auto* answer : {&trending, &patterns}) {
    Result<Answer> fresh = copied.Execute(*ParseQuery(
        (*answer)->kind == QueryKind::kTrending ? "what is trending"
                                                : "show patterns"));
    ASSERT_TRUE(fresh.ok());
    EXPECT_NE(fresh->pattern_set, set);
    EXPECT_EQ(fresh->Render(snap->graph()),
              (*answer)->Render(snap->graph()));
  }

  // A cached answer keeps its set alive after newer snapshots replace
  // the one it was computed on.
  Result<Answer> cached = nous.Ask("what is trending");
  ASSERT_TRUE(cached.ok());
  EXPECT_GE(nous.query_cache()->stats().hits, 1u);
  EXPECT_EQ(cached->pattern_set, set);
  const std::string rendered = cached->Render(snap->graph());
  const std::weak_ptr<const RenderedPatternSet> weak = set;
  const PropertyGraph graph = snap->graph().Clone();
  snap.reset();
  pattern_snap.reset();
  trending = Status::Internal("released");
  patterns = Status::Internal("released");
  for (size_t i = 10; i < 16; ++i) NOUS_CHECK_OK(nous.Ingest(articles_[i]));
  EXPECT_NE(nous.snapshot()->pattern_set(), set);
  EXPECT_FALSE(weak.expired());
  EXPECT_EQ(cached->Render(graph), rendered);
}

// COW-specific TSan target: readers hold *old* snapshots and keep
// reading their graphs while the writer publishes many newer ones.
// Every publish unshares chunks the old snapshots still reference —
// any unlocked write into a shared chunk is a data race TSan flags,
// and any structural corruption shows up as changed counts.
TEST_F(SnapshotTest, OldSnapshotsStayStableAcrossManyPublishes) {
  Nous nous(&kb_);
  size_t warm = articles_.size() / 4;
  for (size_t i = 0; i < warm; ++i) NOUS_CHECK_OK(nous.Ingest(articles_[i]));

  std::shared_ptr<const KgSnapshot> old_snap = nous.snapshot();
  ASSERT_NE(old_snap, nullptr);
  size_t old_edges = old_snap->graph().NumEdges();
  size_t old_vertices = old_snap->graph().NumVertices();
  Timestamp old_max_ts = old_snap->graph().MaxEdgeTimestamp();

  std::atomic<size_t> failures{0};
  constexpr size_t kReaders = 3;
  std::vector<std::thread> readers;
  std::atomic<bool> stop{false};
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // Walk the old snapshot's adjacency and derived indexes.
        size_t degree_sum = 0;
        for (VertexId v = 0; v < old_snap->graph().NumVertices(); ++v) {
          degree_sum += old_snap->graph().OutDegree(v);
        }
        if (old_snap->graph().NumEdges() != old_edges ||
            old_snap->graph().NumVertices() != old_vertices ||
            old_snap->graph().MaxEdgeTimestamp() != old_max_ts ||
            degree_sum == 0) {
          ++failures;
        }
        // Byte accounting on an immutable snapshot is also lock-free
        // and runs concurrently with publishes (the ResourceSampler
        // path).
        (void)old_snap->graph().Footprint();
      }
    });
  }

  // Writer: one publish per ingest, each unsharing chunks the readers
  // are traversing.
  for (size_t i = warm; i < articles_.size(); ++i) {
    NOUS_CHECK_OK(nous.Ingest(articles_[i]));
  }
  NOUS_CHECK_OK(nous.Finalize());
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(nous.snapshot()->version(), old_snap->version());
  // The old snapshot still serializes a consistent graph.
  EXPECT_EQ(old_snap->graph().NumEdges(), old_edges);
}

// The TSan target: queries must run lock-free against published
// snapshots while a writer ingests. Each answer is recomputed against
// the snapshot it reported — any torn read, stale index, or
// cache-version bug shows up as a mismatch (and TSan would flag the
// data race itself).
TEST_F(SnapshotTest, ConcurrentQueriesAreConsistentWithTheirSnapshot) {
  Nous nous(&kb_);
  size_t warm = articles_.size() / 4;
  for (size_t i = 0; i < warm; ++i) NOUS_CHECK_OK(nous.Ingest(articles_[i]));
  std::string entity = BusyEntity(*nous.snapshot());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (size_t i = warm;
         i < articles_.size() && !stop.load(std::memory_order_relaxed);
         ++i) {
      NOUS_CHECK_OK(nous.Ingest(articles_[i]));
    }
  });

  constexpr size_t kReaders = 3;
  constexpr size_t kAsksPerReader = 120;
  std::vector<std::thread> readers;
  std::atomic<size_t> failures{0};
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_version = 0;
      for (size_t i = 0; i < kAsksPerReader; ++i) {
        std::string question = (i + t) % 3 == 0
                                   ? "what is trending"
                                   : "tell me about " + entity;
        std::shared_ptr<const KgSnapshot> snap;
        auto answer = nous.Ask(question, &snap);
        if (!answer.ok() || snap == nullptr) {
          ++failures;
          continue;
        }
        // Versions never go backwards within a thread.
        if (snap->version() < last_version) ++failures;
        last_version = snap->version();
        // The answer must equal a recomputation on the very snapshot
        // it was served from (catches stale cache entries too).
        auto parsed = ParseQuery(question);
        if (!parsed.ok()) {
          ++failures;
          continue;
        }
        QueryEngine engine(&snap->graph(), snap->patterns(),
                           QueryEngineConfig{});
        auto recomputed = engine.Execute(*parsed);
        if (!recomputed.ok() ||
            answer->Render(snap->graph()) !=
                recomputed->Render(snap->graph())) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0u);
}

// The TSan target for shared pattern sets: readers ask trending and
// pattern questions, so answers and the cache hold the sets the mining
// stage publishes while the writer commits new ones. Each answer must
// hold its snapshot's set and render as an uncached, copying engine on
// that snapshot does.
TEST_F(SnapshotTest, TrendingAndPatternReadersShareSetsWhileAWriterCommits) {
  Nous nous(&kb_);
  const size_t warm = articles_.size() / 4;
  for (size_t i = 0; i < warm; ++i) NOUS_CHECK_OK(nous.Ingest(articles_[i]));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (size_t i = warm;
         i < articles_.size() && !stop.load(std::memory_order_relaxed);
         ++i) {
      NOUS_CHECK_OK(nous.Ingest(articles_[i]));
    }
  });
  constexpr size_t kReaders = 3;
  constexpr size_t kAsksPerReader = 80;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = 0; i < kAsksPerReader; ++i) {
        const std::string question =
            (i + t) % 2 == 0 ? "what is trending" : "show patterns";
        std::shared_ptr<const KgSnapshot> snap;
        Result<Answer> answer = nous.Ask(question, &snap);
        if (!answer.ok() || snap == nullptr ||
            answer->pattern_set != snap->pattern_set()) {
          ++failures;
          continue;
        }
        const QueryEngine copied(&snap->graph(), snap->patterns(),
                                 nous.options().query);
        Result<Answer> fresh = copied.Execute(*ParseQuery(question));
        if (!fresh.ok() ||
            fresh->Render(snap->graph()) != answer->Render(snap->graph())) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace nous
