#ifndef NOUS_REPLICATION_FOLLOWER_H_
#define NOUS_REPLICATION_FOLLOWER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/nous.h"
#include "replication/protocol.h"
#include "replication/socket.h"
#include "replication/telemetry.h"

namespace nous {

/// WAL-shipping follower (DESIGN.md §5.15): maintains a connection to
/// the leader, replays shipped WAL records through the local
/// durability path (log-before-apply, same as the leader), and
/// installs full checkpoint images when the leader sends one. The
/// local Nous keeps publishing lock-free snapshots, so queries serve
/// with zero coordination against the replication thread.
///
/// Robustness contract:
///  - Any framing/CRC violation, seq gap, or KG-version divergence
///    drops the connection; the next Hello resumes from the last
///    *applied* seq (or demands a full image after divergence), so a
///    dropped or corrupted frame can delay convergence but never
///    poison the replica.
///  - Reconnects use jittered exponential backoff, interruptible by
///    Stop() within ~50ms.
///  - A leader that heartbeats ahead of us without ever delivering
///    data (its sends are being dropped) is detected after
///    `heartbeat_stall_limit` idle heartbeats and the link recycled.
class ReplicationFollower : public ReplicationTelemetry {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    int connect_timeout_ms = 2000;
    int io_timeout_ms = 5000;
    int reconnect_initial_ms = 50;
    int reconnect_max_ms = 2000;
    /// Consecutive heartbeats showing the leader ahead with no data
    /// arriving before the link is declared wedged and recycled.
    int heartbeat_stall_limit = 10;
    /// Seed for the reconnect jitter (deterministic in tests).
    uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;
  };

  /// `nous` must be durable (Recover() succeeded) and outlive this.
  ReplicationFollower(Nous* nous, Options options);
  ~ReplicationFollower() override;

  ReplicationFollower(const ReplicationFollower&) = delete;
  ReplicationFollower& operator=(const ReplicationFollower&) = delete;

  /// Starts the replication thread (connect + apply loop).
  Status Start();

  /// Stops and joins the replication thread. Idempotent.
  void Stop();

  // ReplicationTelemetry.
  ReplicationView View() const override;

 private:
  void Run();
  /// One connection lifetime: handshake, then apply frames until the
  /// stream breaks. `force_image` carries divergence state across
  /// reconnects (in: demand an image in the Hello; out: set when the
  /// session proved local state diverged).
  void RunSession(bool* force_image);
  /// Interruptible jittered-exponential-backoff sleep.
  void Backoff(int attempt);

  Nous* nous_;
  Options options_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::thread thread_;
  Rng rng_;  // only touched by the replication thread

  /// The live connection, for Stop() to shut down from outside.
  AnnotatedMutex conn_mutex_;
  TcpConn* active_conn_ GUARDED_BY(conn_mutex_) = nullptr;

  std::atomic<bool> connected_{false};
  std::atomic<uint64_t> leader_seq_{0};
  std::atomic<uint64_t> leader_kg_version_{0};
  std::atomic<uint64_t> frames_applied_{0};
  std::atomic<uint64_t> checkpoints_applied_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> resyncs_{0};
  std::atomic<uint64_t> gaps_{0};
  std::atomic<uint64_t> corrupt_frames_{0};
};

}  // namespace nous

#endif  // NOUS_REPLICATION_FOLLOWER_H_
