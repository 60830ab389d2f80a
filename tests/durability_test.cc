// Crash-safety guarantees (DESIGN.md §5.10): the WAL commits exactly
// what it acknowledges, checkpoints restore bit-identical pipeline
// state, and kill -9 at any byte offset of the log recovers a KG equal
// to the last durable batch — torn tails are CRC-detected and dropped,
// never crashed on. Fault injection (NOUS_FAULTS) drives the failure
// paths deterministically. Group commit (kAlways, DESIGN.md §5.16):
// concurrent writers share fsyncs, acknowledge only what recovery
// restores, and a failed fsync fails its whole group and sticks.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "core/nous.h"
#include "core/pipeline.h"
#include "corpus/article_generator.h"
#include "corpus/world_model.h"
#include "durability/checkpoint.h"
#include "durability/fs_util.h"
#include "durability/manager.h"
#include "durability/wal.h"
#include "durability/wal_codec.h"
#include "kb/kb_generator.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"

namespace nous {
namespace {

/// A per-test scratch directory with no stale durability files.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "nous_durability_" + name;
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  for (const char* file :
       {"/wal.log", "/checkpoint.nous", "/checkpoint.nous.tmp"}) {
    EXPECT_TRUE(RemoveFile(dir + file).ok());
  }
  return dir;
}

std::string ReadFile(const std::string& path) {
  auto contents = ReadFileToString(path);
  EXPECT_TRUE(contents.ok()) << contents.status();
  return contents.ok() ? *contents : std::string();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(out.good());
}

/// Byte offset just past each intact frame of a WAL image (the file
/// magic counts as offset 0's "boundary").
std::vector<size_t> FrameEnds(const std::string& wal) {
  std::vector<size_t> ends;
  size_t off = 8;  // file magic
  // Frame header: [u32 magic][u64 seq][u32 len][u32 crc] = 20 bytes,
  // with len at header offset 12.
  while (off + 20 <= wal.size()) {
    uint32_t len = 0;
    std::memcpy(&len, wal.data() + off + 12, sizeof(len));
    if (off + 20 + len > wal.size()) break;
    off += 20 + len;
    ends.push_back(off);
  }
  return ends;
}

class FaultGuard {
 public:
  FaultGuard() { FaultInjector::Global().Reset(); }
  ~FaultGuard() { FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// WAL framing

TEST(WalTest, RoundTripsRecords) {
  std::string dir = FreshDir("wal_roundtrip");
  std::string path = dir + "/wal.log";
  const std::vector<std::string> payloads = {
      "first", "", std::string("bin\0ary\xff", 8), std::string(3000, 'x'),
      "tail"};
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, WalOptions{}).ok());
    for (size_t i = 0; i < payloads.size(); ++i) {
      ASSERT_TRUE(writer.Append(i + 1, payloads[i]).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  auto read = WalReader::ReadAll(path);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(read->records[i].seq, i + 1);
    EXPECT_EQ(read->records[i].payload, payloads[i]);
  }
  EXPECT_EQ(read->dropped_bytes, 0u);
  EXPECT_EQ(read->dropped_records, 0u);
  EXPECT_EQ(read->valid_bytes, ReadFile(path).size());
}

TEST(WalTest, MissingFileReadsAsEmptyLog) {
  auto read = WalReader::ReadAll(FreshDir("wal_missing") + "/wal.log");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(read->dropped_bytes, 0u);
}

TEST(WalTest, TruncationAtEveryByteKeepsExactlyTheCommittedPrefix) {
  std::string dir = FreshDir("wal_truncate");
  std::string path = dir + "/wal.log";
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, WalOptions{}).ok());
    ASSERT_TRUE(writer.Append(1, "alpha payload").ok());
    ASSERT_TRUE(writer.Append(2, "beta").ok());
    ASSERT_TRUE(writer.Append(3, std::string(40, 'c')).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  const std::string full = ReadFile(path);
  const std::vector<size_t> ends = FrameEnds(full);
  ASSERT_EQ(ends.size(), 3u);

  std::string cut_path = dir + "/wal_cut.log";
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    WriteFile(cut_path, full.substr(0, cut));
    auto read = WalReader::ReadAll(cut_path);
    ASSERT_TRUE(read.ok()) << "cut=" << cut << ": " << read.status();
    size_t expect_records = 0;
    size_t expect_valid = cut >= 8 ? 8 : 0;
    for (size_t end : ends) {
      if (cut >= end) {
        ++expect_records;
        expect_valid = end;
      }
    }
    EXPECT_EQ(read->records.size(), expect_records) << "cut=" << cut;
    EXPECT_EQ(read->valid_bytes, expect_valid) << "cut=" << cut;
    EXPECT_EQ(read->dropped_bytes, cut - expect_valid) << "cut=" << cut;
    for (size_t i = 0; i < read->records.size(); ++i) {
      EXPECT_EQ(read->records[i].seq, i + 1);
    }
  }
}

TEST(WalTest, MidFileCorruptionDropsEverythingAfterIt) {
  std::string dir = FreshDir("wal_corrupt");
  std::string path = dir + "/wal.log";
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, WalOptions{}).ok());
    ASSERT_TRUE(writer.Append(1, "intact record").ok());
    ASSERT_TRUE(writer.Append(2, "soon to be flipped").ok());
    ASSERT_TRUE(writer.Append(3, "unreachable after the flip").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::string image = ReadFile(path);
  const std::vector<size_t> ends = FrameEnds(image);
  ASSERT_EQ(ends.size(), 3u);
  image[ends[0] + 25] ^= 0x40;  // inside record 2's payload
  WriteFile(path, image);

  auto read = WalReader::ReadAll(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].payload, "intact record");
  EXPECT_EQ(read->valid_bytes, ends[0]);
  EXPECT_GT(read->dropped_bytes, 0u);
}

TEST(WalTest, WrongFileMagicIsDataLossNotGarbageRecords) {
  std::string dir = FreshDir("wal_magic");
  std::string path = dir + "/wal.log";
  WriteFile(path, "NOTAWAL0 some bytes that are long enough");
  auto read = WalReader::ReadAll(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

TEST(WalTest, ReopeningAnEmptyFileRewritesTheMagic) {
  // Recovery truncates a log whose tail tore inside the magic to zero
  // bytes; appending afterwards must still yield a readable file.
  std::string dir = FreshDir("wal_empty_reopen");
  std::string path = dir + "/wal.log";
  WriteFile(path, "");
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path, WalOptions{}).ok());
  ASSERT_TRUE(writer.Append(1, "after reset").ok());
  ASSERT_TRUE(writer.Close().ok());
  auto read = WalReader::ReadAll(path);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].payload, "after reset");
}

TEST(WalTest, TornAppendFaultIsDroppedAndTheLogStaysAppendable) {
  FaultGuard guard;
  std::string dir = FreshDir("wal_torn_fault");
  std::string path = dir + "/wal.log";
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path, WalOptions{}).ok());
  ASSERT_TRUE(writer.Append(1, "committed").ok());
  FaultInjector::Global().Arm("wal_append", FaultKind::kTorn, 1);
  EXPECT_FALSE(writer.Append(2, "torn in half").ok());
  ASSERT_TRUE(writer.Close().ok());

  auto read = WalReader::ReadAll(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].payload, "committed");
  EXPECT_GT(read->dropped_bytes, 0u);
  EXPECT_EQ(read->dropped_records, 1u);

  // Recovery protocol: truncate to the valid prefix, reopen, append.
  ASSERT_TRUE(TruncateFile(path, read->valid_bytes).ok());
  WalWriter again;
  ASSERT_TRUE(again.Open(path, WalOptions{}).ok());
  ASSERT_TRUE(again.Append(2, "retried").ok());
  ASSERT_TRUE(again.Close().ok());
  auto reread = WalReader::ReadAll(path);
  ASSERT_TRUE(reread.ok());
  ASSERT_EQ(reread->records.size(), 2u);
  EXPECT_EQ(reread->records[1].payload, "retried");
}

TEST(WalTest, FailedAppendFaultWritesNothing) {
  FaultGuard guard;
  std::string dir = FreshDir("wal_fail_fault");
  std::string path = dir + "/wal.log";
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path, WalOptions{}).ok());
  FaultInjector::Global().Arm("wal_append", FaultKind::kFail, 1);
  EXPECT_FALSE(writer.Append(1, "never lands").ok());
  ASSERT_TRUE(writer.Close().ok());
  auto read = WalReader::ReadAll(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(read->dropped_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint files

TEST(CheckpointTest, RoundTrips) {
  std::string path = FreshDir("ckpt_roundtrip") + "/checkpoint.nous";
  CheckpointData data;
  data.last_applied_seq = 42;
  data.state = std::string("opaque\0state\xfe", 13);
  ASSERT_TRUE(WriteCheckpointFile(path, data).ok());
  auto read = ReadCheckpointFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->last_applied_seq, 42u);
  EXPECT_EQ(read->state, data.state);
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  auto read =
      ReadCheckpointFile(FreshDir("ckpt_missing") + "/checkpoint.nous");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, EveryTruncationAndBitFlipIsDetected) {
  std::string dir = FreshDir("ckpt_corrupt");
  std::string path = dir + "/checkpoint.nous";
  CheckpointData data;
  data.last_applied_seq = 7;
  data.state = "the pipeline state payload, long enough to matter";
  ASSERT_TRUE(WriteCheckpointFile(path, data).ok());
  const std::string full = ReadFile(path);

  std::string probe = dir + "/probe.nous";
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteFile(probe, full.substr(0, cut));
    auto read = ReadCheckpointFile(probe);
    EXPECT_FALSE(read.ok()) << "cut=" << cut;
  }
  for (size_t flip = 0; flip < full.size(); ++flip) {
    std::string image = full;
    image[flip] ^= 0x01;
    WriteFile(probe, image);
    auto read = ReadCheckpointFile(probe);
    EXPECT_FALSE(read.ok()) << "flip=" << flip;
  }
}

TEST(CheckpointTest, FailedAtomicWritePreservesThePreviousCheckpoint) {
  FaultGuard guard;
  std::string path = FreshDir("ckpt_atomic") + "/checkpoint.nous";
  CheckpointData old_data;
  old_data.last_applied_seq = 1;
  old_data.state = "old durable state";
  ASSERT_TRUE(WriteCheckpointFile(path, old_data).ok());

  CheckpointData new_data;
  new_data.last_applied_seq = 2;
  new_data.state = "new state that must not half-land";
  FaultInjector::Global().Arm("atomic_write", FaultKind::kFail, 1);
  EXPECT_FALSE(WriteCheckpointFile(path, new_data).ok());
  // Re-arm from a clean hit counter (non-sticky ordinals are absolute).
  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm("atomic_write", FaultKind::kTorn, 1);
  EXPECT_FALSE(WriteCheckpointFile(path, new_data).ok());

  auto read = ReadCheckpointFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->last_applied_seq, 1u);
  EXPECT_EQ(read->state, "old durable state");
}

// ---------------------------------------------------------------------------
// Batch codec

TEST(WalCodecTest, RoundTripsArticlesAndDropsGold) {
  std::vector<Article> batch(2);
  batch[0].id = "doc_1";
  batch[0].date = Date{2016, 3, 9};
  batch[0].source = "wsj";
  batch[0].text = "DJI acquired SkyWard Labs.";
  batch[0].gold.push_back({});  // evaluation-only, must not survive
  batch[1].id = "adhoc_7";
  batch[1].date = Date{1999, 12, 31};
  batch[1].source = "";
  batch[1].text = std::string("binary\0text", 11);

  std::string payload = EncodeArticleBatch(batch);
  auto decoded = DecodeWalRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->kind, WalRecordKind::kArticleBatch);
  const std::vector<Article>& articles = decoded->articles;
  ASSERT_EQ(articles.size(), 2u);
  EXPECT_EQ(articles[0].id, "doc_1");
  EXPECT_EQ(articles[0].date.year, 2016);
  EXPECT_EQ(articles[0].date.month, 3);
  EXPECT_EQ(articles[0].date.day, 9);
  EXPECT_EQ(articles[0].source, "wsj");
  EXPECT_EQ(articles[0].text, batch[0].text);
  EXPECT_TRUE(articles[0].gold.empty());
  EXPECT_EQ(articles[1].id, "adhoc_7");
  EXPECT_EQ(articles[1].text, batch[1].text);
}

TEST(WalCodecTest, RoundTripsAFinalizeRecord) {
  const std::string payload = EncodeFinalizeRecord();
  EXPECT_EQ(payload.size(), 5u);  // version + kind, no body
  auto decoded = DecodeWalRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->kind, WalRecordKind::kFinalize);
  EXPECT_TRUE(decoded->articles.empty());
}

TEST(WalCodecTest, EveryTruncationAndBitFlipIsRejectedOrKeepsTheKind) {
  std::vector<Article> batch(1);
  batch[0].id = "doc";
  batch[0].date = Date{2016, 1, 1};
  batch[0].source = "s";
  batch[0].text = "some text";
  const std::pair<std::string, WalRecordKind> records[] = {
      {EncodeArticleBatch(batch), WalRecordKind::kArticleBatch},
      {EncodeFinalizeRecord(), WalRecordKind::kFinalize},
  };
  for (const auto& [payload, kind] : records) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_FALSE(DecodeWalRecord(payload.substr(0, cut)).ok())
          << "cut=" << cut;
    }
    for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
      std::string flipped = payload;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      auto decoded = DecodeWalRecord(flipped);
      if (decoded.ok()) {
        EXPECT_EQ(decoded->kind, kind) << "bit=" << bit;
      }
    }
  }
}

TEST(WalCodecTest, VersionOnePayloadIsDataLoss) {
  // The v1 layout: version, then the article count with no kind byte.
  BinaryWriter v1;
  v1.U32(1);
  v1.U64(0);
  auto decoded = DecodeWalRecord(v1.Take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("version 1"), std::string::npos)
      << decoded.status();
}

TEST(WalCodecTest, EveryTruncatedPayloadIsRejectedNotCrashed) {
  std::vector<Article> batch(1);
  batch[0].id = "doc";
  batch[0].date = Date{2016, 1, 1};
  batch[0].source = "s";
  batch[0].text = "some text";
  std::string payload = EncodeArticleBatch(batch);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeWalRecord(payload.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
  EXPECT_FALSE(DecodeWalRecord(payload + "x").ok());
  EXPECT_FALSE(DecodeWalRecord(EncodeFinalizeRecord() + "x").ok());
}

// ---------------------------------------------------------------------------
// DurabilityManager protocol

TEST(DurabilityManagerTest, LogThenRecoverReplaysInSequence) {
  std::string dir = FreshDir("mgr_cycle");
  DurabilityOptions options;
  options.dir = dir;
  options.fsync_policy = FsyncPolicy::kNever;
  {
    DurabilityManager manager(options);
    auto recovered = manager.Recover();
    ASSERT_TRUE(recovered.ok());
    EXPECT_FALSE(recovered->has_checkpoint);
    EXPECT_TRUE(recovered->replay.empty());
    ASSERT_TRUE(manager.OpenWal(0).ok());
    for (const char* payload : {"one", "two", "three"}) {
      auto seq = manager.LogBatch(payload);
      ASSERT_TRUE(seq.ok());
    }
    EXPECT_EQ(manager.last_logged_seq(), 3u);
  }
  DurabilityManager manager(options);
  auto recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->replay.size(), 3u);
  EXPECT_EQ(recovered->replay[0].payload, "one");
  EXPECT_EQ(recovered->replay[2].payload, "three");
  EXPECT_EQ(recovered->replay[2].seq, 3u);
}

TEST(DurabilityManagerTest, CheckpointResetsWalAndFloorsReplay) {
  std::string dir = FreshDir("mgr_ckpt");
  DurabilityOptions options;
  options.dir = dir;
  options.fsync_policy = FsyncPolicy::kNever;
  {
    DurabilityManager manager(options);
    ASSERT_TRUE(manager.Recover().ok());
    ASSERT_TRUE(manager.OpenWal(0).ok());
    ASSERT_TRUE(manager.LogBatch("pre ckpt 1").ok());
    ASSERT_TRUE(manager.LogBatch("pre ckpt 2").ok());
    ASSERT_TRUE(manager.WriteCheckpoint("snapshot at seq 2").ok());
    ASSERT_TRUE(manager.LogBatch("post ckpt").ok());
  }
  DurabilityManager manager(options);
  auto recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(recovered->has_checkpoint);
  EXPECT_EQ(recovered->checkpoint.last_applied_seq, 2u);
  EXPECT_EQ(recovered->checkpoint.state, "snapshot at seq 2");
  ASSERT_EQ(recovered->replay.size(), 1u);
  EXPECT_EQ(recovered->replay[0].seq, 3u);
  EXPECT_EQ(recovered->replay[0].payload, "post ckpt");
}

TEST(DurabilityManagerTest, RecoverTruncatesTheTornTailOnDisk) {
  std::string dir = FreshDir("mgr_truncate");
  DurabilityOptions options;
  options.dir = dir;
  options.fsync_policy = FsyncPolicy::kNever;
  {
    DurabilityManager manager(options);
    ASSERT_TRUE(manager.Recover().ok());
    ASSERT_TRUE(manager.OpenWal(0).ok());
    ASSERT_TRUE(manager.LogBatch("whole").ok());
  }
  // Simulate a torn append left by a crash.
  std::string wal_path = dir + "/wal.log";
  WriteFile(wal_path, ReadFile(wal_path) + "half a fra");
  {
    DurabilityManager manager(options);
    auto recovered = manager.Recover();
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered->dropped_records, 1u);
    EXPECT_GT(recovered->dropped_bytes, 0u);
    ASSERT_EQ(recovered->replay.size(), 1u);
  }
  // The torn bytes are gone: a second recovery is clean.
  DurabilityManager manager(options);
  auto recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->dropped_bytes, 0u);
  ASSERT_EQ(recovered->replay.size(), 1u);
}

TEST(DurabilityManagerTest, ShouldCheckpointFollowsTheConfiguredCadence) {
  std::string dir = FreshDir("mgr_cadence");
  DurabilityOptions options;
  options.dir = dir;
  options.fsync_policy = FsyncPolicy::kNever;
  options.checkpoint_interval_batches = 2;
  DurabilityManager manager(options);
  ASSERT_TRUE(manager.Recover().ok());
  ASSERT_TRUE(manager.OpenWal(0).ok());
  EXPECT_FALSE(manager.ShouldCheckpoint());
  ASSERT_TRUE(manager.LogBatch("a").ok());
  EXPECT_FALSE(manager.ShouldCheckpoint());
  ASSERT_TRUE(manager.LogBatch("b").ok());
  EXPECT_TRUE(manager.ShouldCheckpoint());
  ASSERT_TRUE(manager.WriteCheckpoint("state").ok());
  EXPECT_FALSE(manager.ShouldCheckpoint());
}

// ---------------------------------------------------------------------------
// End-to-end: pipeline state + Nous crash recovery

class DurabilityPipelineFixture : public ::testing::Test {
 protected:
  DurabilityPipelineFixture()
      : world_(WorldModel::BuildDroneWorld(WorldConfig())),
        kb_(BuildCuratedKb(world_, Ontology::DroneDefault(), Coverage())) {}

  static DroneWorldConfig WorldConfig() {
    DroneWorldConfig config;
    config.num_companies = 10;
    config.num_people = 6;
    config.num_products = 6;
    config.num_events = 36;
    config.seed = 11;
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
    options.pipeline.lda.iterations = 30;
    options.pipeline.bpr.epochs = 4;
    options.pipeline.miner.min_support = 3;
    // A short refresh interval so the BPR cadence crosses checkpoint
    // boundaries (docs_since_refresh_ must survive recovery).
    options.pipeline.bpr_refresh_interval = 5;
    options.pipeline.num_threads = 2;
    return options;
  }
  Nous::Options DurableOptions(const std::string& dir,
                               size_t checkpoint_interval = 0) {
    Nous::Options options = FastOptions();
    options.durability.dir = dir;
    options.durability.fsync_policy = FsyncPolicy::kNever;  // speed
    options.durability.checkpoint_interval_batches = checkpoint_interval;
    return options;
  }

  std::vector<Article> MakeArticles() {
    CorpusConfig config;
    config.pronoun_rate = 0.2;
    config.alias_rate = 0.2;
    return ArticleGenerator(&world_, config).GenerateArticles();
  }
  /// The articles split into full batches of `kBatchSize` (callers
  /// assert the count so the replay arithmetic below stays exact).
  static std::vector<std::vector<Article>> MakeBatches(
      const std::vector<Article>& articles, size_t count) {
    std::vector<std::vector<Article>> batches;
    for (size_t start = 0; start + kBatchSize <= articles.size() &&
                           batches.size() < count;
         start += kBatchSize) {
      batches.emplace_back(articles.begin() + start,
                           articles.begin() + start + kBatchSize);
    }
    return batches;
  }

  using EdgeRow = std::tuple<std::string, std::string, std::string, double,
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
  static std::vector<EdgeRow> Dump(Nous& nous) {
    ReaderMutexLock lock(nous.kg_mutex());
    return DumpEdges(nous.graph());
  }
  static size_t Documents(Nous& nous) {
    ReaderMutexLock lock(nous.kg_mutex());
    return nous.stats().documents;
  }

  /// The served edge rows and the full pipeline image.
  struct DurableImage {
    std::vector<EdgeRow> edges;
    std::string state;
  };
  static DurableImage ImageOf(Nous& nous) {
    return {Dump(nous), nous.pipeline().SaveState()};
  }
  static void ExpectSameImage(const DurableImage& actual,
                              const DurableImage& expected,
                              const std::string& where) {
    EXPECT_EQ(actual.edges, expected.edges) << where;
    EXPECT_TRUE(actual.state == expected.state)
        << where << ": SaveState bytes differ";
  }
  /// What a crash now would recover: `dir`'s files are copied to
  /// `dir`_recovered (the live instance keeps the originals), which is
  /// recovered.
  DurableImage RecoveredImage(const std::string& dir,
                              Nous::RecoveryStats* stats_out = nullptr) {
    const std::string copy = dir + "_recovered";
    EXPECT_TRUE(EnsureDirectory(copy).ok());
    for (const char* file : {"/wal.log", "/checkpoint.nous"}) {
      EXPECT_TRUE(RemoveFile(copy + file).ok());
      if (FileExists(dir + file)) WriteFile(copy + file, ReadFile(dir + file));
    }
    Nous recovered(&kb_, DurableOptions(copy));
    auto stats = recovered.Recover();
    EXPECT_TRUE(stats.ok()) << stats.status();
    if (stats.ok() && stats_out != nullptr) *stats_out = *stats;
    return ImageOf(recovered);
  }

  /// A non-durable reference that ingested `batches[0..count)`.
  std::vector<EdgeRow> ReferenceEdges(
      const std::vector<std::vector<Article>>& batches, size_t count) {
    Nous reference(&kb_, FastOptions());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(reference.IngestBatch(batches[i]).ok());
    }
    return Dump(reference);
  }

  static constexpr size_t kBatchSize = 3;
  WorldModel world_;
  CuratedKb kb_;
};

TEST_F(DurabilityPipelineFixture,
       SaveStateRestoresEverythingThatShapesFutureIngest) {
  auto articles = MakeArticles();
  ASSERT_GE(articles.size(), 12u);
  const size_t half = articles.size() / 2;

  KgPipeline original(&kb_, FastOptions().pipeline);
  original.IngestBatch(articles.data(), half);
  std::string payload = original.SaveState();

  KgPipeline restored(&kb_, FastOptions().pipeline);
  Status load = restored.LoadState(payload);
  ASSERT_TRUE(load.ok()) << load;

  // Restored state matches now...
  {
    ReaderMutexLock lock_a(original.kg_mutex());
    ReaderMutexLock lock_b(restored.kg_mutex());
    EXPECT_EQ(DumpEdges(original.graph()), DumpEdges(restored.graph()));
    EXPECT_EQ(original.stats().documents, restored.stats().documents);
  }
  // ...and keeps matching as both ingest the same future: this is the
  // strong check that linker aliases, mapper evidence, BPR parameters
  // + RNG, source trust, and the refresh cadence all round-tripped.
  original.IngestBatch(articles.data() + half, articles.size() - half);
  restored.IngestBatch(articles.data() + half, articles.size() - half);
  original.Finalize();
  restored.Finalize();
  {
    ReaderMutexLock lock_a(original.kg_mutex());
    ReaderMutexLock lock_b(restored.kg_mutex());
    EXPECT_EQ(DumpEdges(original.graph()), DumpEdges(restored.graph()));
    EXPECT_EQ(original.stats().accepted_triples,
              restored.stats().accepted_triples);
    EXPECT_EQ(original.stats().new_entities, restored.stats().new_entities);
  }
}

TEST_F(DurabilityPipelineFixture, LoadStateRejectsPreV6Images) {
  // v2-v4 images carried the accepted-triple and miner-window blocks
  // that v5 derives from the KG, and v2-v5 graph blocks carried the
  // adjacency arrays that v6 rebuilds from the edge records; they no
  // longer load (DESIGN.md §5.10).
  auto articles = MakeArticles();
  KgPipeline original(&kb_, FastOptions().pipeline);
  original.IngestBatch(articles.data(), std::min<size_t>(6, articles.size()));
  const std::string image = original.SaveState();
  {
    KgPipeline probe(&kb_, FastOptions().pipeline);
    ASSERT_TRUE(probe.LoadState(image).ok());
  }
  for (uint32_t version : {2u, 3u, 4u, 5u}) {
    BinaryWriter word;
    word.U32(version);
    std::string old = image;
    old.replace(0, word.data().size(), word.data());
    KgPipeline probe(&kb_, FastOptions().pipeline);
    Status load = probe.LoadState(old);
    EXPECT_EQ(load.code(), StatusCode::kDataLoss) << "v" << version << ": "
                                                  << load;
  }
}

TEST_F(DurabilityPipelineFixture, LoadStateRejectsAMismatchedCuratedKb) {
  KgPipeline original(&kb_, FastOptions().pipeline);
  std::string payload = original.SaveState();

  KbCoverage smaller;
  smaller.entity_coverage = 0.3;
  smaller.fact_coverage = 0.4;
  CuratedKb other_kb =
      BuildCuratedKb(world_, Ontology::DroneDefault(), smaller);
  KgPipeline restored(&other_kb, FastOptions().pipeline);
  Status load = restored.LoadState(payload);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurabilityPipelineFixture, LoadStateRejectsTruncatedPayloads) {
  auto articles = MakeArticles();
  KgPipeline original(&kb_, FastOptions().pipeline);
  original.IngestBatch(articles.data(), std::min<size_t>(6, articles.size()));
  std::string payload = original.SaveState();
  ASSERT_GT(payload.size(), 64u);
  // Sampled prefixes (every payload byte would re-run LoadState tens of
  // thousands of times); includes the pathological early cuts.
  std::vector<size_t> cuts = {0, 1, 3, 7, 9, 16, 33, 64};
  for (size_t i = 1; i < 40; ++i) {
    cuts.push_back(payload.size() * i / 40);
  }
  for (size_t cut : cuts) {
    if (cut >= payload.size()) continue;
    KgPipeline probe(&kb_, FastOptions().pipeline);
    Status load = probe.LoadState(std::string_view(payload).substr(0, cut));
    EXPECT_EQ(load.code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
  KgPipeline probe(&kb_, FastOptions().pipeline);
  EXPECT_EQ(probe.LoadState(payload + "trailing").code(),
            StatusCode::kDataLoss);
}

// LoadState parses the whole image before it replaces anything, so a
// resync that fails halfway leaves the warm pipeline exactly as it was.
TEST_F(DurabilityPipelineFixture, FailedLoadStateLeavesThePipelineUnchanged) {
  auto articles = MakeArticles();
  ASSERT_GE(articles.size(), 12u);
  const size_t third = articles.size() / 3;
  KgPipeline foreign(&kb_, FastOptions().pipeline);
  foreign.IngestBatch(articles.data(), 2 * third);
  const std::string image = foreign.SaveState();
  const std::string_view cut =
      std::string_view(image).substr(0, image.size() / 2);

  KgPipeline warm(&kb_, FastOptions().pipeline);
  KgPipeline twin(&kb_, FastOptions().pipeline);
  warm.IngestBatch(articles.data(), third);
  twin.IngestBatch(articles.data(), third);
  auto version = [](const KgPipeline& p) {
    ReaderMutexLock lock(p.kg_mutex());
    return p.kg_version();
  };
  const std::string before = warm.SaveState();
  const uint64_t version_before = version(warm);
  EXPECT_EQ(warm.LoadState(cut).code(), StatusCode::kDataLoss);
  EXPECT_EQ(warm.SaveState(), before);
  EXPECT_EQ(version(warm), version_before);

  // Ingest goes on as if the bad image had never arrived.
  warm.IngestBatch(articles.data() + third, articles.size() - third);
  twin.IngestBatch(articles.data() + third, articles.size() - third);
  EXPECT_EQ(warm.SaveState(), twin.SaveState());
  EXPECT_EQ(version(warm), version(twin));
  std::vector<std::string> warm_patterns, twin_patterns;
  for (const RenderedPattern& p : warm.snapshot()->patterns()) {
    warm_patterns.push_back(p.description);
  }
  for (const RenderedPattern& p : twin.snapshot()->patterns()) {
    twin_patterns.push_back(p.description);
  }
  EXPECT_EQ(warm_patterns, twin_patterns);
}

TEST_F(DurabilityPipelineFixture, RecoverGuardsAgainstMisuse) {
  // No durability directory configured.
  Nous plain(&kb_, FastOptions());
  auto no_dir = plain.Recover();
  ASSERT_FALSE(no_dir.ok());
  EXPECT_EQ(no_dir.status().code(), StatusCode::kFailedPrecondition);

  // Recover after ingest started.
  std::string dir = FreshDir("nous_guards");
  auto articles = MakeArticles();
  Nous late(&kb_, DurableOptions(dir));
  ASSERT_TRUE(late.Ingest(articles[0]).ok());  // non-durable fast path
  auto after_ingest = late.Recover();
  ASSERT_FALSE(after_ingest.ok());
  EXPECT_EQ(after_ingest.status().code(), StatusCode::kFailedPrecondition);

  // Double enable.
  Nous twice(&kb_, DurableOptions(FreshDir("nous_guards2")));
  ASSERT_TRUE(twice.EnableDurability().ok());
  EXPECT_TRUE(twice.durable());
  auto again = twice.Recover();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurabilityPipelineFixture, WalOnlyCrashRecoversBitIdenticalKg) {
  std::string dir = FreshDir("nous_wal_only");
  auto articles = MakeArticles();
  auto batches = MakeBatches(articles, 4);
  ASSERT_EQ(batches.size(), 4u);

  {
    Nous durable(&kb_, DurableOptions(dir));
    ASSERT_TRUE(durable.EnableDurability().ok());
    for (const auto& batch : batches) {
      ASSERT_TRUE(durable.IngestBatch(batch).ok());
    }
    // Destructor = crash: no checkpoint was ever written.
  }
  ASSERT_FALSE(FileExists(dir + "/checkpoint.nous"));

  Nous recovered(&kb_, DurableOptions(dir));
  auto stats = recovered.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_FALSE(stats->restored_checkpoint);
  EXPECT_EQ(stats->replayed_batches, 4u);
  EXPECT_EQ(stats->replayed_articles, 12u);
  EXPECT_EQ(stats->dropped_wal_records, 0u);
  EXPECT_EQ(Dump(recovered), ReferenceEdges(batches, 4));

  // The recovered instance keeps evolving exactly like an instance
  // that never crashed.
  auto more = MakeBatches(articles, 5);
  if (more.size() > 4) {
    ASSERT_TRUE(recovered.IngestBatch(more[4]).ok());
    EXPECT_EQ(Dump(recovered), ReferenceEdges(more, 5));
  }
}

TEST_F(DurabilityPipelineFixture, CheckpointPlusWalReplayRecovers) {
  std::string dir = FreshDir("nous_ckpt_wal");
  auto articles = MakeArticles();
  auto batches = MakeBatches(articles, 4);
  ASSERT_EQ(batches.size(), 4u);

  {
    Nous durable(&kb_, DurableOptions(dir));
    ASSERT_TRUE(durable.EnableDurability().ok());
    ASSERT_TRUE(durable.IngestBatch(batches[0]).ok());
    ASSERT_TRUE(durable.IngestBatch(batches[1]).ok());
    ASSERT_TRUE(durable.Checkpoint().ok());
    ASSERT_TRUE(durable.IngestBatch(batches[2]).ok());
    ASSERT_TRUE(durable.IngestBatch(batches[3]).ok());
  }
  ASSERT_TRUE(FileExists(dir + "/checkpoint.nous"));

  Nous recovered(&kb_, DurableOptions(dir));
  auto stats = recovered.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->restored_checkpoint);
  EXPECT_EQ(stats->replayed_batches, 2u);
  EXPECT_EQ(Documents(recovered), 12u);
  EXPECT_EQ(Dump(recovered), ReferenceEdges(batches, 4));

  // Post-recovery Finalize (LDA + BPR rescore) also matches: the BPR
  // tables and RNG were restored bit-exactly by the checkpoint.
  Nous reference(&kb_, FastOptions());
  for (const auto& batch : batches) {
    ASSERT_TRUE(reference.IngestBatch(batch).ok());
  }
  ASSERT_TRUE(recovered.Finalize().ok());
  ASSERT_TRUE(reference.Finalize().ok());
  EXPECT_EQ(Dump(recovered), Dump(reference));
}

TEST_F(DurabilityPipelineFixture, RecoverSpansLoadStateAndWalReplayOnce) {
  std::string dir = FreshDir("nous_recover_spans");
  auto articles = MakeArticles();
  auto batches = MakeBatches(articles, 3);
  ASSERT_EQ(batches.size(), 3u);
  {
    Nous durable(&kb_, DurableOptions(dir));
    ASSERT_TRUE(durable.EnableDurability().ok());
    ASSERT_TRUE(durable.IngestBatch(batches[0]).ok());
    ASSERT_TRUE(durable.Checkpoint().ok());
    ASSERT_TRUE(durable.IngestBatch(batches[1]).ok());
    ASSERT_TRUE(durable.IngestBatch(batches[2]).ok());
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto observed = [&registry](const char* name) {
    return registry.GetHistogram(name)->Snapshot().count();
  };
  const uint64_t loads = observed("nous_load_state_latency_seconds");
  const uint64_t replays = observed("nous_wal_replay_latency_seconds");
  TraceBuffer::Global().Clear();

  Nous recovered(&kb_, DurableOptions(dir));
  auto stats = recovered.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_TRUE(stats->restored_checkpoint);
  ASSERT_EQ(stats->replayed_batches, 2u);
  EXPECT_EQ(observed("nous_load_state_latency_seconds"), loads + 1);
  EXPECT_EQ(observed("nous_wal_replay_latency_seconds"), replays + 1);

  // The replay span carries what it replayed.
  std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  auto replay = std::find_if(
      spans.begin(), spans.end(),
      [](const SpanRecord& span) { return std::string(span.name) == "wal_replay"; });
  ASSERT_NE(replay, spans.end());
  std::map<std::string, int64_t> attrs;
  for (const SpanAttr& attr : replay->attrs) attrs[attr.key] = attr.int_value;
  EXPECT_EQ(attrs["batches"], 2);
  EXPECT_EQ(attrs["articles"],
            static_cast<int64_t>(stats->replayed_articles));
}

TEST_F(DurabilityPipelineFixture,
       CrashAtEveryWalRecordBoundaryRecoversThePrefix) {
  std::string dir = FreshDir("nous_crash_offsets");
  auto articles = MakeArticles();
  auto batches = MakeBatches(articles, 4);
  ASSERT_EQ(batches.size(), 4u);

  {
    Nous durable(&kb_, DurableOptions(dir));
    ASSERT_TRUE(durable.EnableDurability().ok());
    for (const auto& batch : batches) {
      ASSERT_TRUE(durable.IngestBatch(batch).ok());
    }
  }
  const std::string wal = ReadFile(dir + "/wal.log");
  const std::vector<size_t> ends = FrameEnds(wal);
  ASSERT_EQ(ends.size(), 4u);

  // References for every surviving prefix length.
  std::vector<std::vector<EdgeRow>> refs;
  for (size_t k = 0; k <= 4; ++k) refs.push_back(ReferenceEdges(batches, k));

  // Truncation points: every record boundary, plus offsets that tear
  // the frame header, the payload, and the final byte of each record —
  // and a cut inside the file magic itself.
  std::vector<std::pair<size_t, size_t>> cases;  // (cut, surviving records)
  cases.emplace_back(5, 0);
  cases.emplace_back(8, 0);
  size_t prev = 8;
  for (size_t i = 0; i < ends.size(); ++i) {
    cases.emplace_back(prev + 2, i);                   // torn frame header
    cases.emplace_back(prev + (ends[i] - prev) / 2, i);  // torn payload
    cases.emplace_back(ends[i] - 1, i);                // one byte short
    cases.emplace_back(ends[i], i + 1);                // clean boundary
    prev = ends[i];
  }

  for (const auto& [cut, survivors] : cases) {
    std::string crash_dir = FreshDir("nous_crash_probe");
    WriteFile(crash_dir + "/wal.log", wal.substr(0, cut));

    Nous recovered(&kb_, DurableOptions(crash_dir));
    auto stats = recovered.Recover();
    ASSERT_TRUE(stats.ok()) << "cut=" << cut << ": " << stats.status();
    EXPECT_EQ(stats->replayed_batches, survivors) << "cut=" << cut;
    const bool clean_boundary =
        cut == 8 ||
        std::find(ends.begin(), ends.end(), cut) != ends.end();
    if (clean_boundary) {
      EXPECT_EQ(stats->dropped_wal_bytes, 0u) << "cut=" << cut;
    } else {
      EXPECT_GT(stats->dropped_wal_bytes, 0u) << "cut=" << cut;
    }
    EXPECT_EQ(Documents(recovered), survivors * kBatchSize)
        << "cut=" << cut;
    EXPECT_EQ(Dump(recovered), refs[survivors]) << "cut=" << cut;

    // The recovered instance is immediately durable again: the torn
    // tail was truncated away, so new ingest appends cleanly.
    ASSERT_TRUE(recovered.IngestBatch(batches[0]).ok()) << "cut=" << cut;
  }
}

TEST_F(DurabilityPipelineFixture, AutomaticCheckpointsTriggerOnCadence) {
  std::string dir = FreshDir("nous_auto_ckpt");
  auto articles = MakeArticles();
  auto batches = MakeBatches(articles, 4);
  {
    Nous durable(&kb_, DurableOptions(dir, /*checkpoint_interval=*/2));
    ASSERT_TRUE(durable.EnableDurability().ok());
    ASSERT_TRUE(durable.IngestBatch(batches[0]).ok());
    EXPECT_FALSE(FileExists(dir + "/checkpoint.nous"));
    ASSERT_TRUE(durable.IngestBatch(batches[1]).ok());
    EXPECT_TRUE(FileExists(dir + "/checkpoint.nous"));
    ASSERT_TRUE(durable.IngestBatch(batches[2]).ok());
  }
  Nous recovered(&kb_, DurableOptions(dir));
  auto stats = recovered.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->restored_checkpoint);
  EXPECT_EQ(stats->replayed_batches, 1u);
  EXPECT_EQ(Dump(recovered), ReferenceEdges(batches, 3));
}

TEST_F(DurabilityPipelineFixture, FailedWalAppendIsNotApplied) {
  FaultGuard guard;
  std::string dir = FreshDir("nous_append_fail");
  auto articles = MakeArticles();
  auto batches = MakeBatches(articles, 2);

  Nous durable(&kb_, DurableOptions(dir));
  ASSERT_TRUE(durable.EnableDurability().ok());
  ASSERT_TRUE(durable.IngestBatch(batches[0]).ok());
  auto before = Dump(durable);

  FaultInjector::Global().Arm("wal_append", FaultKind::kFail, 1);
  Status failed = durable.IngestBatch(batches[1]);
  ASSERT_FALSE(failed.ok());
  // Log-before-apply: the rejected batch left no trace in the KG.
  EXPECT_EQ(Dump(durable), before);
  EXPECT_EQ(Documents(durable), kBatchSize);

  // After the fault clears, the same batch goes through.
  FaultInjector::Global().Reset();
  ASSERT_TRUE(durable.IngestBatch(batches[1]).ok());
  EXPECT_EQ(Dump(durable), ReferenceEdges(batches, 2));
}

TEST_F(DurabilityPipelineFixture, TornWalAppendIsDroppedAtRecovery) {
  FaultGuard guard;
  std::string dir = FreshDir("nous_append_torn");
  auto articles = MakeArticles();
  auto batches = MakeBatches(articles, 2);

  {
    Nous durable(&kb_, DurableOptions(dir));
    ASSERT_TRUE(durable.EnableDurability().ok());
    ASSERT_TRUE(durable.IngestBatch(batches[0]).ok());
    FaultInjector::Global().Arm("wal_append", FaultKind::kTorn, 1);
    ASSERT_FALSE(durable.IngestBatch(batches[1]).ok());
    FaultInjector::Global().Reset();
  }
  Nous recovered(&kb_, DurableOptions(dir));
  auto stats = recovered.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->replayed_batches, 1u);
  EXPECT_EQ(stats->dropped_wal_records, 1u);
  EXPECT_GT(stats->dropped_wal_bytes, 0u);
  EXPECT_EQ(Dump(recovered), ReferenceEdges(batches, 1));
}

TEST_F(DurabilityPipelineFixture,
       FailedFinalizeCheckpointStillRecoversTheServedKg) {
  // Finalize retrains BPR, refits topics and rescores every edge. Its
  // WAL record, not the checkpoint after it, is what makes that
  // durable: with the checkpoint failed, recovery must still land on
  // the KG the live instance serves, before and after later ingest.
  FaultGuard guard;
  std::string dir = FreshDir("nous_finalize_ckpt_fail");
  auto articles = MakeArticles();
  auto batches = MakeBatches(articles, 4);
  ASSERT_EQ(batches.size(), 4u);

  Nous live(&kb_, DurableOptions(dir));
  ASSERT_TRUE(live.EnableDurability().ok());
  ASSERT_TRUE(live.IngestBatch(batches[0]).ok());
  ASSERT_TRUE(live.IngestBatch(batches[1]).ok());
  ExpectSameImage(RecoveredImage(dir), ImageOf(live), "2 batches");

  FaultInjector::Global().Arm("atomic_write", FaultKind::kFail, 1);
  EXPECT_FALSE(live.Finalize().ok());
  FaultInjector::Global().Reset();
  EXPECT_FALSE(FileExists(dir + "/checkpoint.nous"));
  ExpectSameImage(RecoveredImage(dir), ImageOf(live), "failed checkpoint");

  ASSERT_TRUE(live.IngestBatch(batches[2]).ok());
  ASSERT_TRUE(live.IngestBatch(batches[3]).ok());
  Nous::RecoveryStats stats;
  ExpectSameImage(RecoveredImage(dir, &stats), ImageOf(live), "2 more");
  EXPECT_EQ(stats.replayed_batches, 5u);  // 4 batches and the Finalize
  EXPECT_EQ(stats.replayed_articles, 4 * kBatchSize);
}

TEST_F(DurabilityPipelineFixture,
       KillPointsAroundAFinalizeRecordRecoverEitherImage) {
  FaultGuard guard;
  auto articles = MakeArticles();
  auto batches = MakeBatches(articles, 2);
  ASSERT_EQ(batches.size(), 2u);
  auto ingest = [&](Nous& nous) {
    ASSERT_TRUE(nous.EnableDurability().ok());
    for (const auto& batch : batches) {
      ASSERT_TRUE(nous.IngestBatch(batch).ok());
    }
  };

  // Killed before the record's append, then after its checkpoint.
  std::string dir = FreshDir("nous_finalize_kill_clean");
  Nous live(&kb_, DurableOptions(dir));
  ingest(live);
  const DurableImage before = ImageOf(live);
  ExpectSameImage(RecoveredImage(dir), before, "before the append");
  ASSERT_TRUE(live.Finalize().ok());
  const DurableImage after = ImageOf(live);
  ASSERT_NE(after.edges, before.edges);  // Finalize rescored the edges
  Nous::RecoveryStats stats;
  ExpectSameImage(RecoveredImage(dir, &stats), after, "after the checkpoint");
  EXPECT_TRUE(stats.restored_checkpoint);
  EXPECT_EQ(stats.replayed_batches, 0u);

  // A torn append: the Finalize is refused unapplied, and the process
  // dies with the torn frame as its WAL tail.
  {
    std::string torn_dir = FreshDir("nous_finalize_kill_torn");
    Nous torn(&kb_, DurableOptions(torn_dir));
    ingest(torn);
    FaultInjector::Global().Arm("wal_append", FaultKind::kTorn, 1);
    EXPECT_FALSE(torn.Finalize().ok());
    FaultInjector::Global().Reset();
    ExpectSameImage(ImageOf(torn), before, "torn, live");
    ExpectSameImage(RecoveredImage(torn_dir, &stats), before, "torn");
    EXPECT_EQ(stats.dropped_wal_records, 1u);
    EXPECT_EQ(stats.replayed_batches, 2u);
  }

  // After the append, before the checkpoint: the WAL ends with the
  // finalize record. Every cut inside that record recovers the image
  // before it; the whole record recovers the image after it.
  std::string wal;
  {
    std::string logged_dir = FreshDir("nous_finalize_kill_logged");
    Nous logged(&kb_, DurableOptions(logged_dir));
    ingest(logged);
    FaultInjector::Global().Arm("atomic_write", FaultKind::kFail, 1);
    EXPECT_FALSE(logged.Finalize().ok());
    FaultInjector::Global().Reset();
    ExpectSameImage(ImageOf(logged), after, "logged, live");
    wal = ReadFile(logged_dir + "/wal.log");
  }
  const std::vector<size_t> ends = FrameEnds(wal);
  ASSERT_EQ(ends.size(), 3u);
  const size_t start = ends[1];
  for (size_t cut : {start, start + 2, start + 20, ends[2] - 1, ends[2]}) {
    std::string crash_dir = FreshDir("nous_finalize_kill_cut");
    WriteFile(crash_dir + "/wal.log", wal.substr(0, cut));
    const bool whole = cut == ends[2];
    ExpectSameImage(RecoveredImage(crash_dir, &stats), whole ? after : before,
                    "cut=" + std::to_string(cut));
    EXPECT_EQ(stats.replayed_batches, whole ? 3u : 2u) << "cut=" << cut;
  }
}

TEST_F(DurabilityPipelineFixture, AdhocIdsNeverCollideAcrossRecovery) {
  std::string dir = FreshDir("nous_adhoc");
  {
    Nous durable(&kb_, DurableOptions(dir));
    ASSERT_TRUE(durable.EnableDurability().ok());
    ASSERT_TRUE(durable
                    .IngestText("DJI acquired SkyWard Labs.",
                                Date{2016, 1, 1}, "cli")
                    .ok());
    ASSERT_TRUE(durable
                    .IngestText("DJI launched Phantom 3.", Date{2016, 1, 2},
                                "cli")
                    .ok());
  }
  Nous recovered(&kb_, DurableOptions(dir));
  ASSERT_TRUE(recovered.Recover().ok());
  // The crashed instance handed out adhoc_0 and adhoc_1; replay must
  // fast-forward the counter past both.
  EXPECT_EQ(recovered.pipeline().ReserveAdhocId(), "adhoc_2");
}

TEST_F(DurabilityPipelineFixture, IngestedAdhocIdsMatchAcrossRecovery) {
  // An article that arrives already named "adhoc_N" (a caller's id, or
  // one a leader handed out) raises the live ad-hoc counter exactly as
  // replay does, so the live and recovered images are the same bytes
  // and the live instance never hands out an id it has ingested.
  std::string dir = FreshDir("nous_adhoc_ingest");
  auto articles = MakeArticles();
  ASSERT_GE(articles.size(), 3u);
  Article named = articles[0];
  named.id = "adhoc_41";
  std::vector<Article> batch = {articles[1], articles[2]};
  batch[1].id = "adhoc_7";
  std::string live_image;
  {
    Nous durable(&kb_, DurableOptions(dir));
    ASSERT_TRUE(durable.EnableDurability().ok());
    ASSERT_TRUE(durable.Ingest(named).ok());
    ASSERT_TRUE(durable.IngestBatch(batch).ok());
    live_image = durable.pipeline().SaveState();
    EXPECT_EQ(durable.pipeline().ReserveAdhocId(), "adhoc_42");
  }
  Nous recovered(&kb_, DurableOptions(dir));
  auto stats = recovered.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->replayed_batches, 2u);
  EXPECT_EQ(recovered.pipeline().SaveState(), live_image);
  EXPECT_EQ(recovered.pipeline().ReserveAdhocId(), "adhoc_42");
}

TEST_F(DurabilityPipelineFixture, KgVersionSurvivesCrashRecovery) {
  std::string dir = FreshDir("nous_version_recovery");
  auto articles = MakeArticles();
  auto batches = MakeBatches(articles, 4);
  ASSERT_EQ(batches.size(), 4u);

  // Reference: an instance that never crashes. Bootstrap = version 1,
  // each IngestBatch bumps once.
  Nous reference(&kb_, FastOptions());
  for (const auto& batch : batches) {
    ASSERT_TRUE(reference.IngestBatch(batch).ok());
  }
  ASSERT_NE(reference.snapshot(), nullptr);
  const uint64_t reference_version = reference.snapshot()->version();
  EXPECT_EQ(reference_version, 1u + batches.size());

  {
    Nous durable(&kb_, DurableOptions(dir));
    ASSERT_TRUE(durable.EnableDurability().ok());
    ASSERT_TRUE(durable.IngestBatch(batches[0]).ok());
    ASSERT_TRUE(durable.IngestBatch(batches[1]).ok());
    // Checkpoint captures kg_version alongside the KG state...
    ASSERT_TRUE(durable.Checkpoint().ok());
    ASSERT_TRUE(durable.IngestBatch(batches[2]).ok());
    ASSERT_TRUE(durable.IngestBatch(batches[3]).ok());
    // ...and the last two batches exist only in the WAL.
  }

  Nous recovered(&kb_, DurableOptions(dir));
  auto stats = recovered.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->restored_checkpoint);
  EXPECT_EQ(stats->replayed_batches, 2u);

  // Checkpoint restore + one bump per replayed batch lands on exactly
  // the version the uncrashed instance reached, so version-keyed query
  // caches stay coherent across a crash.
  ASSERT_NE(recovered.snapshot(), nullptr);
  EXPECT_EQ(recovered.snapshot()->version(), reference_version);

  // And the counter keeps advancing from there, not from a stale base.
  auto more = MakeBatches(articles, 5);
  if (more.size() > 4) {
    ASSERT_TRUE(recovered.IngestBatch(more[4]).ok());
    EXPECT_EQ(recovered.snapshot()->version(), reference_version + 1);
  }
}

// ---------------------------------------------------------------------------
// Group commit (FsyncPolicy::kAlways)

class GroupCommitFixture : public DurabilityPipelineFixture {
 protected:
  Nous::Options AlwaysOptions(const std::string& dir,
                              size_t checkpoint_interval = 0) {
    Nous::Options options = DurableOptions(dir, checkpoint_interval);
    options.durability.fsync_policy = FsyncPolicy::kAlways;
    return options;
  }
  static std::string GraphBytes(Nous& nous) {
    ReaderMutexLock lock(nous.kg_mutex());
    BinaryWriter writer;
    nous.graph().SaveBinary(&writer);
    return writer.Take();
  }
  /// Runs `writers` threads that ingest `articles` one at a time
  /// (shared cursor); returns how many ingests were acknowledged.
  static size_t IngestConcurrently(Nous* nous,
                                   const std::vector<Article>& articles,
                                   size_t writers) {
    std::atomic<size_t> next{0};
    std::atomic<size_t> acked{0};
    std::vector<std::thread> threads;
    for (size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&] {
        for (;;) {
          size_t i = next.fetch_add(1);
          if (i >= articles.size()) return;
          if (nous->Ingest(articles[i]).ok()) acked.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return acked.load();
  }
};

TEST_F(GroupCommitFixture, EightWritersAcknowledgeOnlyWhatRecoveryRestores) {
  FaultGuard guard;
  std::string dir = FreshDir("group_commit");
  // The corpus four times over (re-sent news is deduplicated, still
  // one commit each), so eight writers contend for a while.
  std::vector<Article> articles;
  for (int pass = 0; pass < 4; ++pass) {
    for (const Article& a : MakeArticles()) articles.push_back(a);
  }
  // Checkpoints every 4 batches race the fsync waiters too.
  Nous live(&kb_, AlwaysOptions(dir, /*checkpoint_interval=*/4));
  ASSERT_TRUE(live.EnableDurability().ok());
  // A 1 ms fsync lets the other writers append behind each flush.
  FaultInjector::Global().Arm("wal_fsync", FaultKind::kDelay, 1,
                              /*sticky=*/true, /*arg=*/1);
  const size_t acked = IngestConcurrently(&live, articles, 8);
  FaultInjector::Global().Reset();
  EXPECT_EQ(acked, articles.size());
  EXPECT_EQ(Documents(live), acked);

  // Recover from a copy of the files taken while `live` still runs —
  // what a kill -9 now would leave — not from a clean shutdown.
  std::string crash_dir = FreshDir("group_commit_crash");
  for (const char* file : {"/wal.log", "/checkpoint.nous"}) {
    if (FileExists(dir + file)) {
      WriteFile(crash_dir + file, ReadFile(dir + file));
    }
  }
  Nous recovered(&kb_, AlwaysOptions(crash_dir));
  auto stats = recovered.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->last_seq, articles.size());
  // Every acknowledged article is back, applied in the live WAL order.
  EXPECT_EQ(Documents(recovered), acked);
  EXPECT_EQ(GraphBytes(recovered), GraphBytes(live));
}

TEST_F(GroupCommitFixture, FailedFsyncFailsItsWholeGroupAndSticks) {
  FaultGuard guard;
  std::string dir = FreshDir("group_fsync_fail");
  auto articles = MakeArticles();
  ASSERT_GE(articles.size(), 10u);
  const std::vector<Article> group(articles.begin(), articles.begin() + 8);
  std::string live_bytes;
  {
    Nous live(&kb_, AlwaysOptions(dir));
    ASSERT_TRUE(live.EnableDurability().ok());
    // The first group fsync fails (once); nothing was durable before.
    FaultInjector::Global().Arm("wal_fsync", FaultKind::kFail, 1);
    EXPECT_EQ(IngestConcurrently(&live, group, 8), 0u);
    FaultInjector::Global().Reset();
    // Sticky: with the fault gone, commits and checkpoints still fail,
    // and a refused commit is not applied.
    const size_t docs = Documents(live);
    EXPECT_FALSE(live.Ingest(articles[8]).ok());
    EXPECT_EQ(Documents(live), docs);
    EXPECT_FALSE(live.Checkpoint().ok());
    live_bytes = GraphBytes(live);
  }
  // A fresh Recover() clears the error. Batches that reached the WAL
  // were applied (visible, never acknowledged) and replay identically.
  Nous recovered(&kb_, AlwaysOptions(dir));
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(GraphBytes(recovered), live_bytes);
  EXPECT_TRUE(recovered.Ingest(articles[9]).ok());
}

TEST_F(GroupCommitFixture, CheckpointsRacingFsyncWaitersStayConsistent) {
  FaultGuard guard;
  std::string dir = FreshDir("group_checkpoint_race");
  auto articles = MakeArticles();
  std::string live_bytes;
  {
    Nous live(&kb_, AlwaysOptions(dir));
    ASSERT_TRUE(live.EnableDurability().ok());
    std::atomic<bool> done{false};
    std::atomic<size_t> checkpoints{0};
    std::thread checkpointer([&] {
      while (!done.load()) {
        EXPECT_TRUE(live.Checkpoint().ok());
        checkpoints.fetch_add(1);
      }
    });
    EXPECT_EQ(IngestConcurrently(&live, articles, 4), articles.size());
    done.store(true);
    checkpointer.join();
    EXPECT_GT(checkpoints.load(), 0u);
    live_bytes = GraphBytes(live);
  }
  Nous recovered(&kb_, AlwaysOptions(dir));
  auto stats = recovered.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->last_seq, articles.size());
  EXPECT_EQ(Documents(recovered), articles.size());
  EXPECT_EQ(GraphBytes(recovered), live_bytes);
}

}  // namespace
}  // namespace nous
