#include "replication/follower.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace nous {

ReplicationFollower::ReplicationFollower(Nous* nous, Options options)
    : nous_(nous), options_(std::move(options)), rng_(options_.jitter_seed) {
  if (options_.reconnect_initial_ms <= 0) options_.reconnect_initial_ms = 50;
  if (options_.reconnect_max_ms < options_.reconnect_initial_ms) {
    options_.reconnect_max_ms = options_.reconnect_initial_ms;
  }
  if (options_.heartbeat_stall_limit <= 0) {
    options_.heartbeat_stall_limit = 10;
  }
}

ReplicationFollower::~ReplicationFollower() { Stop(); }

Status ReplicationFollower::Start() {
  if (started_) {
    return Status::FailedPrecondition(
        "replication follower already started");
  }
  if (!nous_->durable()) {
    return Status::FailedPrecondition(
        "replication follower requires a durable Nous (call Recover "
        "first)");
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  started_ = true;
  return Status::Ok();
}

void ReplicationFollower::Stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  {
    MutexLock lock(conn_mutex_);
    if (active_conn_ != nullptr) active_conn_->Shutdown();
  }
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

void ReplicationFollower::Backoff(int attempt) {
  const double base = std::min<double>(
      static_cast<double>(options_.reconnect_max_ms),
      static_cast<double>(options_.reconnect_initial_ms) *
          static_cast<double>(1ull << std::min(attempt, 16)));
  // Jitter in [0.5, 1.0)x so a fleet of followers does not reconnect
  // in lockstep after a leader restart.
  const int delay_ms =
      std::max(1, static_cast<int>(base * (0.5 + rng_.UniformDouble() / 2)));
  int remaining = delay_ms;
  while (remaining > 0 && running_.load(std::memory_order_acquire)) {
    const int slice = std::min(remaining, 50);
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    remaining -= slice;
  }
}

void ReplicationFollower::Run() {
  bool force_image = false;
  int attempt = 0;
  while (running_.load(std::memory_order_acquire)) {
    const uint64_t seq_before = nous_->last_durable_seq();
    const uint64_t applied_before =
        frames_applied_.load(std::memory_order_relaxed) +
        checkpoints_applied_.load(std::memory_order_relaxed);
    RunSession(&force_image);
    if (!running_.load(std::memory_order_acquire)) break;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    const bool progressed =
        nous_->last_durable_seq() > seq_before ||
        frames_applied_.load(std::memory_order_relaxed) +
                checkpoints_applied_.load(std::memory_order_relaxed) >
            applied_before;
    attempt = progressed ? 0 : attempt + 1;
    Backoff(attempt);
  }
}

void ReplicationFollower::RunSession(bool* force_image) {
  Result<TcpConn> connected =
      TcpConn::Connect(options_.host, options_.port,
                       options_.connect_timeout_ms);
  if (!connected.ok()) return;
  TcpConn conn = std::move(*connected);
  conn.SetIoDeadline(options_.io_timeout_ms).ok();
  {
    MutexLock lock(conn_mutex_);
    active_conn_ = &conn;
  }
  // Ensure active_conn_ is cleared on every exit path below.
  struct ConnGuard {
    ReplicationFollower* self;
    ~ConnGuard() {
      MutexLock lock(self->conn_mutex_);
      self->active_conn_ = nullptr;
    }
  } guard{this};

  // Handshake: stream magic, then Hello with our resume position.
  ReplFrame hello;
  hello.type = ReplFrameType::kHello;
  hello.seq = nous_->last_durable_seq();
  hello.aux = *force_image ? kHelloForceImage : 0;
  hello.payload = EncodeHelloPayload(nous_->durable_kg_version());
  std::string handshake(kReplStreamMagic, sizeof(kReplStreamMagic));
  handshake += EncodeReplFrame(hello);
  if (!conn.SendAll(handshake).ok()) return;
  connected_.store(true, std::memory_order_release);

  ReplFrameParser parser;
  char buffer[64 * 1024];
  int idle_heartbeats = 0;
  int diverged_heartbeats = 0;
  while (running_.load(std::memory_order_acquire)) {
    Result<size_t> received = conn.Recv(buffer, sizeof(buffer));
    if (!received.ok() || *received == 0) break;
    parser.Append(buffer, *received);
    bool drop_connection = false;
    for (;;) {
      ReplFrame frame;
      Result<bool> have = parser.Next(&frame);
      if (!have.ok()) {
        // Framing/CRC violation: the stream cannot be trusted past
        // this point. Drop it and resync from our applied seq.
        corrupt_frames_.fetch_add(1, std::memory_order_relaxed);
        drop_connection = true;
        break;
      }
      if (!*have) break;

      switch (frame.type) {
        case ReplFrameType::kWalBatch: {
          const uint64_t applied = nous_->last_durable_seq();
          if (frame.seq <= applied) break;  // duplicate after resume
          if (frame.seq > applied + 1) {
            // Frames went missing (dropped upstream). Reconnect and
            // re-request from our applied position.
            gaps_.fetch_add(1, std::memory_order_relaxed);
            drop_connection = true;
            break;
          }
          Status status = nous_->ApplyReplicatedBatch(
              frame.seq, frame.payload, frame.aux);
          if (status.code() == StatusCode::kDataLoss) {
            // Applied but diverged: our KG version disagrees with the
            // leader's. Only a full image can fix this.
            NOUS_LOG(Warning)
                << "replication: replica diverged, forcing image resync: "
                << status.ToString();
            *force_image = true;
            drop_connection = true;
            break;
          }
          if (!status.ok()) {
            NOUS_LOG(Warning) << "replication: batch apply failed: "
                              << status.ToString();
            drop_connection = true;
            break;
          }
          frames_applied_.fetch_add(1, std::memory_order_relaxed);
          *force_image = false;
          idle_heartbeats = 0;
          break;
        }
        case ReplFrameType::kCheckpoint: {
          // The leader sends an image only when this session needs one
          // (handshake or a catch-up the WAL cannot bridge), so every
          // image is applied — even one behind our seq, from a leader
          // that lost its unsynced WAL tail.
          Status status =
              nous_->ApplyReplicatedCheckpoint(frame.seq, frame.payload);
          if (!status.ok()) {
            NOUS_LOG(Warning) << "replication: checkpoint apply failed: "
                              << status.ToString();
            drop_connection = true;
            break;
          }
          checkpoints_applied_.fetch_add(1, std::memory_order_relaxed);
          resyncs_.fetch_add(1, std::memory_order_relaxed);
          *force_image = false;
          idle_heartbeats = 0;
          break;
        }
        case ReplFrameType::kHeartbeat: {
          leader_seq_.store(frame.seq, std::memory_order_release);
          leader_kg_version_.store(frame.aux, std::memory_order_release);
          if (frame.seq > nous_->last_durable_seq()) {
            // The leader is ahead but nothing reaches us between
            // heartbeats: its data sends are being eaten. Recycle.
            if (++idle_heartbeats >= options_.heartbeat_stall_limit) {
              gaps_.fetch_add(1, std::memory_order_relaxed);
              drop_connection = true;
            }
          } else if (frame.seq == nous_->last_durable_seq() &&
                     frame.aux != 0 &&
                     frame.aux != nous_->durable_kg_version()) {
            // Same seq, different version: our history forked from the
            // leader's (catch-up frames carry no version to
            // cross-check). Each side publishes seq and version as two
            // atomics, so one mismatch can be a torn read: require a
            // streak.
            if (++diverged_heartbeats >= options_.heartbeat_stall_limit) {
              NOUS_LOG(Warning)
                  << "replication: same-seq version mismatch on "
                  << diverged_heartbeats
                  << " consecutive heartbeats, forcing image resync";
              *force_image = true;
              drop_connection = true;
            }
          } else {
            idle_heartbeats = 0;
            diverged_heartbeats = 0;
          }
          break;
        }
        case ReplFrameType::kHello:
          // Leaders never send Hello; a peer that does is not ours.
          drop_connection = true;
          break;
      }
      if (drop_connection) break;
    }
    if (drop_connection) break;
  }

  connected_.store(false, std::memory_order_release);
  conn.Shutdown();
}

ReplicationView ReplicationFollower::View() const {
  ReplicationView view;
  view.role = "follower";
  view.connected = connected_.load(std::memory_order_acquire);
  view.last_seq = nous_->last_durable_seq();
  view.kg_version = nous_->durable_kg_version();
  view.leader_seq = leader_seq_.load(std::memory_order_acquire);
  view.leader_kg_version =
      leader_kg_version_.load(std::memory_order_acquire);
  view.lag_versions = view.leader_kg_version > view.kg_version
                          ? view.leader_kg_version - view.kg_version
                          : 0;
  view.frames_applied = frames_applied_.load(std::memory_order_relaxed);
  view.checkpoints_applied =
      checkpoints_applied_.load(std::memory_order_relaxed);
  view.reconnects = reconnects_.load(std::memory_order_relaxed);
  view.resyncs = resyncs_.load(std::memory_order_relaxed);
  view.gaps = gaps_.load(std::memory_order_relaxed);
  view.corrupt_frames = corrupt_frames_.load(std::memory_order_relaxed);
  return view;
}

}  // namespace nous
