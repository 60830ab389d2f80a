// Fault-tolerant WAL-shipping replication (DESIGN.md §5.15): a leader
// streams committed WAL batches and checkpoint images to followers,
// which replay them through the durability path into bit-identical
// KGs. Robustness is proven the same way as the WAL's (§5.10): every
// framing property is swept byte-by-byte, and deterministic NOUS_FAULTS
// chaos — dropped frames, corrupted frames, failing sockets, killed
// processes — must always end in convergence, never divergence.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/nous.h"
#include "corpus/article_generator.h"
#include "corpus/world_model.h"
#include "durability/fs_util.h"
#include "durability/wal.h"
#include "kb/kb_generator.h"
#include "replication/follower.h"
#include "replication/leader.h"
#include "replication/protocol.h"

namespace nous {
namespace {

class FaultGuard {
 public:
  FaultGuard() { FaultInjector::Global().Reset(); }
  ~FaultGuard() { FaultInjector::Global().Reset(); }
};

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "nous_replication_" + name;
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  for (const char* file :
       {"/wal.log", "/checkpoint.nous", "/checkpoint.nous.tmp"}) {
    EXPECT_TRUE(RemoveFile(dir + file).ok());
  }
  return dir;
}

// ---------------------------------------------------------------------------
// Frame protocol

std::vector<ReplFrame> SampleFrames() {
  std::vector<ReplFrame> frames;
  ReplFrame hello;
  hello.type = ReplFrameType::kHello;
  hello.seq = 7;
  hello.aux = kHelloForceImage;
  hello.payload = EncodeHelloPayload(42);
  frames.push_back(hello);
  ReplFrame batch;
  batch.type = ReplFrameType::kWalBatch;
  batch.seq = 8;
  batch.aux = 12;
  batch.payload = std::string("bin\0ary\xff payload", 16);
  frames.push_back(batch);
  ReplFrame checkpoint;
  checkpoint.type = ReplFrameType::kCheckpoint;
  checkpoint.seq = 9;
  checkpoint.aux = 13;
  checkpoint.payload = std::string(3000, 'q');
  frames.push_back(checkpoint);
  ReplFrame heartbeat;
  heartbeat.type = ReplFrameType::kHeartbeat;
  heartbeat.seq = 9;
  heartbeat.aux = 13;
  frames.push_back(heartbeat);
  return frames;
}

std::string EncodeAll(const std::vector<ReplFrame>& frames) {
  std::string wire;
  for (const ReplFrame& frame : frames) wire += EncodeReplFrame(frame);
  return wire;
}

TEST(ReplProtocolTest, RoundTripsAllFrameTypesThroughArbitraryChunking) {
  const std::vector<ReplFrame> frames = SampleFrames();
  const std::string wire = EncodeAll(frames);
  // Feed the stream one byte at a time: the parser must never need
  // frame-aligned input.
  ReplFrameParser parser;
  std::vector<ReplFrame> decoded;
  for (size_t i = 0; i < wire.size(); ++i) {
    parser.Append(wire.data() + i, 1);
    for (;;) {
      ReplFrame frame;
      auto have = parser.Next(&frame);
      ASSERT_TRUE(have.ok()) << have.status();
      if (!*have) break;
      decoded.push_back(std::move(frame));
    }
  }
  ASSERT_EQ(decoded.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(decoded[i].type, frames[i].type);
    EXPECT_EQ(decoded[i].seq, frames[i].seq);
    EXPECT_EQ(decoded[i].aux, frames[i].aux);
    EXPECT_EQ(decoded[i].payload, frames[i].payload);
  }
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(ReplProtocolTest, TruncationAtEveryByteNeverYieldsAPartialFrame) {
  const std::vector<ReplFrame> frames = SampleFrames();
  const std::string wire = EncodeAll(frames);
  // Frame boundaries, so we know how many complete frames each prefix
  // holds.
  std::vector<size_t> ends;
  {
    size_t off = 0;
    for (const ReplFrame& frame : frames) {
      off += kReplFrameHeaderBytes + frame.payload.size();
      ends.push_back(off);
    }
  }
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    ReplFrameParser parser;
    parser.Append(wire.data(), cut);
    size_t decoded = 0;
    for (;;) {
      ReplFrame frame;
      auto have = parser.Next(&frame);
      // A clean truncation is always "need more bytes" — never
      // corruption, never an invented frame.
      ASSERT_TRUE(have.ok()) << "cut=" << cut << ": " << have.status();
      if (!*have) break;
      ++decoded;
    }
    const size_t complete = static_cast<size_t>(
        std::count_if(ends.begin(), ends.end(),
                      [cut](size_t end) { return end <= cut; }));
    EXPECT_EQ(decoded, complete) << "cut=" << cut;
  }
}

TEST(ReplProtocolTest, EverydSingleBitFlipIsDetectedNeverSilentlyAccepted) {
  ReplFrame frame;
  frame.type = ReplFrameType::kWalBatch;
  frame.seq = 1234;
  frame.aux = 99;
  frame.payload = "the payload under test";
  const std::string wire = EncodeReplFrame(frame);
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = wire;
      corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1 << bit));
      ReplFrameParser parser;
      parser.Append(corrupted.data(), corrupted.size());
      ReplFrame out;
      auto have = parser.Next(&out);
      // Acceptable outcomes: corruption detected (error), or the flip
      // landed in the length field and the parser is still waiting for
      // bytes that will never come. NEVER a successfully decoded frame
      // — that would be silent corruption of a replica.
      if (have.ok()) {
        EXPECT_FALSE(*have)
            << "byte " << byte << " bit " << bit
            << ": single-bit flip decoded as a valid frame";
      }
    }
  }
}

TEST(ReplProtocolTest, OversizedDeclaredLengthIsCorruptionNotAWait) {
  ReplFrame frame;
  frame.type = ReplFrameType::kHeartbeat;
  frame.seq = 1;
  std::string wire = EncodeReplFrame(frame);
  // Patch the length field (offset 21) to just past the cap.
  const uint32_t huge = kMaxReplPayloadBytes + 1;
  std::memcpy(&wire[21], &huge, sizeof(huge));
  ReplFrameParser parser;
  parser.Append(wire.data(), wire.size());
  ReplFrame out;
  auto have = parser.Next(&out);
  ASSERT_FALSE(have.ok());
  EXPECT_EQ(have.status().code(), StatusCode::kDataLoss);
}

TEST(ReplProtocolTest, HelloPayloadRoundTripsKgVersion) {
  EXPECT_EQ(DecodeHelloKgVersion(EncodeHelloPayload(0)), 0u);
  EXPECT_EQ(DecodeHelloKgVersion(EncodeHelloPayload(77)), 77u);
  EXPECT_EQ(DecodeHelloKgVersion(EncodeHelloPayload(~0ull)), ~0ull);
  // Absent or short payloads (older peers) read as "unknown".
  EXPECT_EQ(DecodeHelloKgVersion(""), 0u);
  EXPECT_EQ(DecodeHelloKgVersion("abc"), 0u);
}

// ---------------------------------------------------------------------------
// WAL tail reader

TEST(WalTailReaderTest, FollowsAppendsPastCleanEndOfLog) {
  std::string dir = FreshDir("tail_appends");
  std::string path = dir + "/wal.log";
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path, WalOptions{}).ok());
  ASSERT_TRUE(writer.Append(1, "one").ok());
  ASSERT_TRUE(writer.Append(2, "two").ok());

  WalTailReader tail;
  tail.Open(path);
  auto event = tail.Next();
  ASSERT_TRUE(event.ok());
  ASSERT_EQ(event->kind, WalTailReader::EventKind::kRecord);
  EXPECT_EQ(event->record.seq, 1u);
  EXPECT_EQ(event->record.payload, "one");
  event = tail.Next();
  ASSERT_TRUE(event.ok());
  ASSERT_EQ(event->kind, WalTailReader::EventKind::kRecord);
  EXPECT_EQ(event->record.seq, 2u);

  // Clean end of log: not an error, just "nothing yet".
  event = tail.Next();
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->kind, WalTailReader::EventKind::kEndOfLog);

  // A record appended after EOF must be picked up by re-polling.
  ASSERT_TRUE(writer.Append(3, "three").ok());
  event = tail.Next();
  ASSERT_TRUE(event.ok());
  ASSERT_EQ(event->kind, WalTailReader::EventKind::kRecord);
  EXPECT_EQ(event->record.seq, 3u);
  EXPECT_EQ(event->record.payload, "three");
  ASSERT_TRUE(writer.Close().ok());
}

TEST(WalTailReaderTest, MissingFileIsEndOfLogUntilItAppears) {
  std::string dir = FreshDir("tail_missing");
  std::string path = dir + "/wal.log";
  WalTailReader tail;
  tail.Open(path);
  auto event = tail.Next();
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->kind, WalTailReader::EventKind::kEndOfLog);

  WalWriter writer;
  ASSERT_TRUE(writer.Open(path, WalOptions{}).ok());
  ASSERT_TRUE(writer.Append(1, "late").ok());
  event = tail.Next();
  ASSERT_TRUE(event.ok());
  ASSERT_EQ(event->kind, WalTailReader::EventKind::kRecord);
  EXPECT_EQ(event->record.payload, "late");
  ASSERT_TRUE(writer.Close().ok());
}

TEST(WalTailReaderTest, FileSwapReportsResetThenReadsTheNewLog) {
  std::string dir = FreshDir("tail_swap");
  std::string path = dir + "/wal.log";
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, WalOptions{}).ok());
    ASSERT_TRUE(writer.Append(1, "old").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  WalTailReader tail;
  tail.Open(path);
  ASSERT_EQ(tail.Next()->kind, WalTailReader::EventKind::kRecord);
  ASSERT_EQ(tail.Next()->kind, WalTailReader::EventKind::kEndOfLog);

  // A checkpoint resets the WAL: new file, new inode, seqs restart.
  ASSERT_TRUE(RemoveFile(path).ok());
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, WalOptions{}).ok());
    ASSERT_TRUE(writer.Append(5, "new").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto event = tail.Next();
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->kind, WalTailReader::EventKind::kReset);
  event = tail.Next();
  ASSERT_TRUE(event.ok());
  ASSERT_EQ(event->kind, WalTailReader::EventKind::kRecord);
  EXPECT_EQ(event->record.seq, 5u);
  EXPECT_EQ(event->record.payload, "new");
}

TEST(WalTailReaderTest, TornTrailingFrameIsEndOfLogNotAnError) {
  std::string dir = FreshDir("tail_torn");
  std::string path = dir + "/wal.log";
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, WalOptions{}).ok());
    ASSERT_TRUE(writer.Append(1, "whole").ok());
    ASSERT_TRUE(writer.Append(2, "will be torn").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  // Chop mid-way through the second frame: an in-flight append the
  // writer has not finished yet, from the tail reader's perspective.
  std::string torn = contents->substr(0, contents->size() - 5);
  ASSERT_TRUE(RemoveFile(path).ok());
  ASSERT_TRUE(AtomicWriteFile(path, torn).ok());

  WalTailReader tail;
  tail.Open(path);
  auto event = tail.Next();
  ASSERT_TRUE(event.ok());
  ASSERT_EQ(event->kind, WalTailReader::EventKind::kRecord);
  EXPECT_EQ(event->record.seq, 1u);
  event = tail.Next();
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->kind, WalTailReader::EventKind::kEndOfLog);
}

// ---------------------------------------------------------------------------
// Leader/follower end-to-end

class ReplicationFixture : public ::testing::Test {
 protected:
  ReplicationFixture()
      : world_(WorldModel::BuildDroneWorld(WorldConfig())),
        kb_(BuildCuratedKb(world_, Ontology::DroneDefault(), Coverage())) {}

  static DroneWorldConfig WorldConfig() {
    DroneWorldConfig config;
    config.num_companies = 10;
    config.num_people = 6;
    config.num_products = 6;
    config.num_events = 36;
    config.seed = 17;
    return config;
  }
  static KbCoverage Coverage() {
    KbCoverage coverage;
    coverage.entity_coverage = 0.6;
    coverage.fact_coverage = 0.9;
    return coverage;
  }
  Nous::Options DurableOptions(const std::string& dir) {
    Nous::Options options;
    options.pipeline.lda.iterations = 10;
    options.pipeline.bpr.epochs = 2;
    options.pipeline.miner.min_support = 3;
    // Small enough that the fixture's batches slide the miner window,
    // so image equality covers a window that has expired edges.
    options.pipeline.miner_window_edges = 16;
    options.pipeline.num_threads = 2;
    options.durability.dir = dir;
    options.durability.fsync_policy = FsyncPolicy::kNever;  // speed
    options.durability.checkpoint_interval_batches = 0;
    return options;
  }

  std::unique_ptr<Nous> MakeDurableNous(const std::string& dir) {
    auto nous = std::make_unique<Nous>(&kb_, DurableOptions(dir));
    auto recovered = nous->Recover();
    EXPECT_TRUE(recovered.ok()) << recovered.status();
    return nous;
  }

  std::vector<std::vector<Article>> MakeBatches(size_t count,
                                                size_t batch_size = 3) {
    CorpusConfig config;
    config.pronoun_rate = 0.2;
    std::vector<Article> articles =
        ArticleGenerator(&world_, config).GenerateArticles();
    EXPECT_GE(articles.size(), count * batch_size);
    std::vector<std::vector<Article>> batches;
    for (size_t start = 0;
         start + batch_size <= articles.size() && batches.size() < count;
         start += batch_size) {
      batches.emplace_back(articles.begin() + start,
                           articles.begin() + start + batch_size);
    }
    return batches;
  }

  static std::string GraphBytes(Nous& nous) {
    ReaderMutexLock lock(nous.kg_mutex());
    BinaryWriter w;
    nous.graph().SaveBinary(&w);
    return w.Take();
  }

  static size_t AcceptedTriples(Nous& nous) {
    ReaderMutexLock lock(nous.kg_mutex());
    return nous.stats().accepted_triples;
  }

  /// The served answer to "show patterns", rendered.
  static std::string ServedPatterns(Nous& nous) {
    std::shared_ptr<const KgSnapshot> snapshot;
    auto answer = nous.Ask("show patterns", &snapshot);
    EXPECT_TRUE(answer.ok()) << answer.status();
    return answer.ok() ? answer->Render(snapshot->graph()) : std::string();
  }

  /// Leader and follower hold the same state: the same KG bytes, the
  /// same full pipeline image (miner window included), and the same
  /// served patterns.
  static void ExpectSameState(Nous& leader, Nous& follower) {
    EXPECT_EQ(GraphBytes(leader), GraphBytes(follower));
    EXPECT_EQ(leader.pipeline().SaveState(), follower.pipeline().SaveState());
    std::string patterns = ServedPatterns(leader);
    EXPECT_NE(patterns.find("support="), std::string::npos) << patterns;
    EXPECT_EQ(patterns, ServedPatterns(follower));
  }

  /// Polls until the follower's durable (seq, kg_version) equals the
  /// leader's. Convergence on both is the bounded-staleness invariant:
  /// equal seq alone would miss version-only divergence (Finalize).
  static bool WaitConverged(Nous& leader, Nous& follower,
                            int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (leader.last_durable_seq() > 0 &&
          follower.last_durable_seq() == leader.last_durable_seq() &&
          follower.durable_kg_version() == leader.durable_kg_version()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  template <typename Pred>
  static bool WaitFor(Pred pred, int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  ReplicationFollower::Options FollowOptions(uint16_t port) {
    ReplicationFollower::Options options;
    options.port = port;
    options.reconnect_initial_ms = 20;
    options.reconnect_max_ms = 200;
    return options;
  }

  WorldModel world_;
  CuratedKb kb_;
};

TEST_F(ReplicationFixture, LiveStreamingConvergesBitIdentically) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("live_leader"));
  auto follower_nous = MakeDurableNous(FreshDir("live_follower"));
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());

  for (const auto& batch : MakeBatches(4)) {
    ASSERT_TRUE(leader_nous->IngestBatch(batch).ok());
  }
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  ASSERT_GT(AcceptedTriples(*leader_nous),
            DurableOptions("").pipeline.miner_window_edges);
  ExpectSameState(*leader_nous, *follower_nous);
  EXPECT_GE(follower.View().frames_applied, 1u);
}

TEST_F(ReplicationFixture, LateJoinerCatchesUpFromTheWal) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("late_leader"));
  // All four batches are committed before the follower exists; with
  // no checkpoint in between they are all still in the WAL.
  for (const auto& batch : MakeBatches(4)) {
    ASSERT_TRUE(leader_nous->IngestBatch(batch).ok());
  }
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());

  auto follower_nous = MakeDurableNous(FreshDir("late_follower"));
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  EXPECT_EQ(GraphBytes(*leader_nous), GraphBytes(*follower_nous));
  // The WAL bridged the whole gap: batches, not an image.
  EXPECT_GE(follower.View().frames_applied, 4u);
}

TEST_F(ReplicationFixture, CheckpointedAwayHistoryForcesAnImageResync) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("image_leader"));
  for (const auto& batch : MakeBatches(3)) {
    ASSERT_TRUE(leader_nous->IngestBatch(batch).ok());
  }
  // Finalize checkpoints and resets the WAL: the batches are no longer
  // replayable from the log, so a fresh follower needs the image.
  leader_nous->Finalize();
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());

  auto follower_nous = MakeDurableNous(FreshDir("image_follower"));
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  ASSERT_GT(AcceptedTriples(*leader_nous),
            DurableOptions("").pipeline.miner_window_edges);
  ExpectSameState(*leader_nous, *follower_nous);
  EXPECT_GE(follower.View().checkpoints_applied, 1u);
}

TEST_F(ReplicationFixture, IngestedAdhocIdsConvergeOnFollowers) {
  // A leader batch carrying an "adhoc_N" id raises the ad-hoc counter
  // on the leader as it does on the follower that applies the batch,
  // so their images stay byte-identical and both hand out N+1 next.
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("adhoc_leader"));
  auto follower_nous = MakeDurableNous(FreshDir("adhoc_follower"));
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());

  auto batches = MakeBatches(4);
  batches[0][1].id = "adhoc_41";
  for (const auto& batch : batches) {
    ASSERT_TRUE(leader_nous->IngestBatch(batch).ok());
  }
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  ExpectSameState(*leader_nous, *follower_nous);
  EXPECT_EQ(leader_nous->pipeline().ReserveAdhocId(), "adhoc_42");
  EXPECT_EQ(follower_nous->pipeline().ReserveAdhocId(), "adhoc_42");
}

TEST_F(ReplicationFixture, FinalizePropagatesToFollowers) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("fin_leader"));
  auto follower_nous = MakeDurableNous(FreshDir("fin_follower"));
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());

  auto batches = MakeBatches(4);
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(leader_nous->IngestBatch(batches[i]).ok());
    if (i == 1) {
      leader_nous->Finalize();
      // The leader coalesces images: a follower that connects late
      // could receive both Finalize states as one. Converging here
      // makes each Finalize image one the follower has to apply.
      ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
    }
  }
  // Finalize mutates state without a WAL record (training, pattern
  // render) and bumps kg_version; followers get it as a checkpoint
  // image. Converged versions prove the image arrived.
  leader_nous->Finalize();
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  EXPECT_EQ(GraphBytes(*leader_nous), GraphBytes(*follower_nous));
  EXPECT_GE(follower.View().checkpoints_applied, 2u);
}

TEST_F(ReplicationFixture, DroppedFramesAreDetectedAndResynced) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("drop_leader"));
  auto follower_nous = MakeDurableNous(FreshDir("drop_follower"));
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());
  // The 2nd data frame the leader sends vanishes on the wire while
  // the leader's cursor still advances — a real gap the follower must
  // notice via the seq discontinuity.
  FaultInjector::Global().Arm("repl_frame_drop", FaultKind::kFail, 2);
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());

  for (const auto& batch : MakeBatches(4)) {
    ASSERT_TRUE(leader_nous->IngestBatch(batch).ok());
  }
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  EXPECT_EQ(GraphBytes(*leader_nous), GraphBytes(*follower_nous));
  const ReplicationView view = follower.View();
  EXPECT_GE(view.gaps + view.reconnects, 1u)
      << "the drop should have forced at least one resync";
}

TEST_F(ReplicationFixture, CorruptedFramesAreRejectedAndResynced) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("corrupt_leader"));
  auto follower_nous = MakeDurableNous(FreshDir("corrupt_follower"));
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());
  FaultInjector::Global().Arm("repl_frame_corrupt", FaultKind::kFail, 2);
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());

  for (const auto& batch : MakeBatches(4)) {
    ASSERT_TRUE(leader_nous->IngestBatch(batch).ok());
  }
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  EXPECT_EQ(GraphBytes(*leader_nous), GraphBytes(*follower_nous));
  EXPECT_GE(follower.View().corrupt_frames, 1u);
}

TEST_F(ReplicationFixture, SocketFaultsReconnectAndConverge) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("sock_leader"));
  auto follower_nous = MakeDurableNous(FreshDir("sock_follower"));
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());
  // Socket-level failures on both directions of the link.
  FaultInjector::Global().Arm("repl_send", FaultKind::kFail, 3);
  FaultInjector::Global().Arm("repl_recv", FaultKind::kFail, 5);
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());

  for (const auto& batch : MakeBatches(4)) {
    ASSERT_TRUE(leader_nous->IngestBatch(batch).ok());
  }
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  EXPECT_EQ(GraphBytes(*leader_nous), GraphBytes(*follower_nous));
}

TEST_F(ReplicationFixture, DroppedAcceptIsRetriedByTheFollower) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("accept_leader"));
  ASSERT_TRUE(leader_nous->IngestBatch(MakeBatches(1)[0]).ok());
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());
  // The first accepted connection is dropped on the floor; the
  // follower's backoff loop must try again.
  FaultInjector::Global().Arm("repl_accept", FaultKind::kFail, 1);
  auto follower_nous = MakeDurableNous(FreshDir("accept_follower"));
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  EXPECT_EQ(GraphBytes(*leader_nous), GraphBytes(*follower_nous));
}

TEST_F(ReplicationFixture, FollowerRestartResumesFromItsDurableState) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("frestart_leader"));
  const std::string follower_dir = FreshDir("frestart_follower");
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());

  auto batches = MakeBatches(6, 2);
  {
    auto follower_nous = MakeDurableNous(follower_dir);
    ReplicationFollower follower(follower_nous.get(),
                                 FollowOptions(leader.port()));
    ASSERT_TRUE(follower.Start().ok());
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(leader_nous->IngestBatch(batches[i]).ok());
    }
    ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
    // Make the follower's progress durable before "crashing" it, as a
    // real follower's checkpoint-on-drain would.
    ASSERT_TRUE(follower_nous->Checkpoint().ok());
  }  // follower process "dies"

  // The leader keeps committing while the follower is down.
  for (size_t i = 3; i < 6; ++i) {
    ASSERT_TRUE(leader_nous->IngestBatch(batches[i]).ok());
  }

  // Restart: a new process recovers the follower's durable state and
  // resumes from its last applied position.
  auto follower_nous = MakeDurableNous(follower_dir);
  EXPECT_EQ(follower_nous->last_durable_seq(), 3u);
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  EXPECT_EQ(GraphBytes(*leader_nous), GraphBytes(*follower_nous));
}

TEST_F(ReplicationFixture, LeaderCrashRecoveryReconvergesFollowers) {
  FaultGuard faults;
  const std::string leader_dir = FreshDir("lrestart_leader");
  auto follower_nous = MakeDurableNous(FreshDir("lrestart_follower"));
  std::unique_ptr<ReplicationFollower> follower;
  auto batches = MakeBatches(6, 2);

  {
    auto leader_nous = MakeDurableNous(leader_dir);
    ReplicationLeader leader(leader_nous.get(), {});
    ASSERT_TRUE(leader.Start().ok());
    follower = std::make_unique<ReplicationFollower>(
        follower_nous.get(), FollowOptions(leader.port()));
    ASSERT_TRUE(follower->Start().ok());
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(leader_nous->IngestBatch(batches[i]).ok());
    }
    ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
    follower->Stop();
  }  // leader "dies" without Finalize — its WAL is all it leaves

  // Restart path mirrors nous_server: recover, Finalize (which
  // re-trains state and bumps kg_version with no WAL record), serve.
  auto leader_nous = MakeDurableNous(leader_dir);
  EXPECT_EQ(leader_nous->last_durable_seq(), 3u);
  leader_nous->Finalize();
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());

  // New follower session against the reborn leader, same follower KG.
  follower = std::make_unique<ReplicationFollower>(
      follower_nous.get(), FollowOptions(leader.port()));
  ASSERT_TRUE(follower->Start().ok());
  // The follower sits at the same seq but an older kg_version; the
  // Hello version check must force an image, not leave it stale.
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  EXPECT_EQ(GraphBytes(*leader_nous), GraphBytes(*follower_nous));
  EXPECT_GE(follower->View().checkpoints_applied, 1u);

  // And the recovered leader keeps streaming live commits.
  for (size_t i = 3; i < 6; ++i) {
    ASSERT_TRUE(leader_nous->IngestBatch(batches[i]).ok());
  }
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  EXPECT_EQ(GraphBytes(*leader_nous), GraphBytes(*follower_nous));
}

TEST_F(ReplicationFixture, SlowFollowerIsShedNotAllowedToStallIngest) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("slow_leader"));
  auto follower_nous = MakeDurableNous(FreshDir("slow_follower"));
  ReplicationLeader::Options leader_options;
  leader_options.queue_capacity = 2;
  ReplicationLeader leader(leader_nous.get(), leader_options);
  ASSERT_TRUE(leader.Start().ok());
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());

  auto batches = MakeBatches(6, 2);
  ASSERT_TRUE(leader_nous->IngestBatch(batches[0]).ok());
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));

  // Every send now stalls: the session thread wedges mid-frame while
  // commits keep landing in its (capacity-2) queue.
  FaultInjector::Global().Arm("repl_send", FaultKind::kDelay, 1,
                              /*sticky=*/true, /*arg=*/1500);
  const auto ingest_start = std::chrono::steady_clock::now();
  for (size_t i = 1; i < 6; ++i) {
    ASSERT_TRUE(leader_nous->IngestBatch(batches[i]).ok());
  }
  const auto ingest_elapsed =
      std::chrono::steady_clock::now() - ingest_start;

  ASSERT_TRUE(WaitFor([&] {
    return leader.View().overflow_disconnects >= 1;
  })) << "the wedged follower should have been shed";
  // The shed is the point: committing 5 batches must not have waited
  // on the wedged socket (5 sends at 1.5s each would be 7.5s).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(ingest_elapsed)
                .count(),
            6);

  // Link heals; the shed follower reconnects and catches up.
  FaultInjector::Global().Reset();
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));
  EXPECT_EQ(GraphBytes(*leader_nous), GraphBytes(*follower_nous));
}

TEST_F(ReplicationFixture, TwoFollowersBothConverge) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("two_leader"));
  auto follower_a = MakeDurableNous(FreshDir("two_follower_a"));
  auto follower_b = MakeDurableNous(FreshDir("two_follower_b"));
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());
  ReplicationFollower repl_a(follower_a.get(), FollowOptions(leader.port()));
  ReplicationFollower repl_b(follower_b.get(), FollowOptions(leader.port()));
  ASSERT_TRUE(repl_a.Start().ok());
  ASSERT_TRUE(repl_b.Start().ok());

  for (const auto& batch : MakeBatches(4)) {
    ASSERT_TRUE(leader_nous->IngestBatch(batch).ok());
  }
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_a));
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_b));
  const std::string golden = GraphBytes(*leader_nous);
  EXPECT_EQ(golden, GraphBytes(*follower_a));
  EXPECT_EQ(golden, GraphBytes(*follower_b));
}

TEST_F(ReplicationFixture, RandomizedChaosAlwaysEndsInBitIdentity) {
  // Different fault ordinals each round land drops/corruption/socket
  // failures on different frames of the stream — handshake, catch-up,
  // live, checkpoint. Whatever they hit, the invariant is the same:
  // the follower ends bit-identical, never silently diverged.
  for (uint64_t round = 1; round <= 3; ++round) {
    FaultGuard faults;
    auto leader_nous =
        MakeDurableNous(FreshDir(StrFormat("chaos_leader_%llu",
                                           (unsigned long long)round)));
    auto follower_nous =
        MakeDurableNous(FreshDir(StrFormat("chaos_follower_%llu",
                                           (unsigned long long)round)));
    ReplicationLeader leader(leader_nous.get(), {});
    ASSERT_TRUE(leader.Start().ok());
    FaultInjector::Global().Arm("repl_frame_drop", FaultKind::kFail,
                                1 + round);
    FaultInjector::Global().Arm("repl_frame_corrupt", FaultKind::kFail,
                                3 + round);
    FaultInjector::Global().Arm("repl_recv", FaultKind::kFail, 2 + round);
    FaultInjector::Global().Arm("repl_send", FaultKind::kFail, 6 + round);
    ReplicationFollower follower(follower_nous.get(),
                                 FollowOptions(leader.port()));
    ASSERT_TRUE(follower.Start().ok());

    auto batches = MakeBatches(5, 2);
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_TRUE(leader_nous->IngestBatch(batches[i]).ok());
      if (i == 2) leader_nous->Finalize();
    }
    ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous))
        << "round " << round;
    EXPECT_EQ(GraphBytes(*leader_nous), GraphBytes(*follower_nous))
        << "round " << round;
  }
}

TEST_F(ReplicationFixture, TelemetryReportsLagAndLeaderPosition) {
  FaultGuard faults;
  auto leader_nous = MakeDurableNous(FreshDir("telemetry_leader"));
  auto follower_nous = MakeDurableNous(FreshDir("telemetry_follower"));
  ReplicationLeader leader(leader_nous.get(), {});
  ASSERT_TRUE(leader.Start().ok());
  ReplicationFollower follower(follower_nous.get(),
                               FollowOptions(leader.port()));
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(leader_nous->IngestBatch(MakeBatches(1)[0]).ok());
  ASSERT_TRUE(WaitConverged(*leader_nous, *follower_nous));

  // Heartbeats carry the leader's position; once converged the lag is
  // exactly zero.
  ASSERT_TRUE(WaitFor([&] {
    const ReplicationView view = follower.View();
    return view.leader_kg_version == leader_nous->durable_kg_version() &&
           view.lag_versions == 0 && view.connected;
  }));
  const ReplicationView leader_view = leader.View();
  EXPECT_EQ(leader_view.role, "leader");
  EXPECT_EQ(leader_view.followers, 1u);
  EXPECT_EQ(leader_view.last_seq, leader_nous->last_durable_seq());
  EXPECT_EQ(follower.View().role, "follower");
}

TEST_F(ReplicationFixture, NonDurableNousRefusesReplication) {
  Nous::Options options;
  options.pipeline.lda.iterations = 3;
  Nous nous(&kb_, options);
  ReplicationLeader leader(&nous, {});
  EXPECT_EQ(leader.Start().code(), StatusCode::kFailedPrecondition);
  ReplicationFollower follower(&nous, FollowOptions(1));
  EXPECT_EQ(follower.Start().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace nous
