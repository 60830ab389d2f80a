#ifndef NOUS_REPLICATION_LEADER_H_
#define NOUS_REPLICATION_LEADER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/nous.h"
#include "replication/protocol.h"
#include "replication/socket.h"
#include "replication/telemetry.h"

namespace nous {

/// WAL-shipping leader (DESIGN.md §5.15): accepts follower
/// connections on a loopback port and streams every durable commit
/// (article batches and finalizes alike) to each of them — live frames
/// taken from a per-follower queue fed by the Nous commit hook,
/// historical frames read back from the WAL file (catch-up), and a full
/// image only when neither holds the records a follower needs.
///
/// Robustness contract:
///  - Ingest never blocks on a follower. OnCommit only enqueues
///    pre-encoded frames into bounded per-session queues; a
///    queue that fills (slow or wedged follower) is cleared and the
///    session disconnected (overflow_disconnects in the telemetry) —
///    the follower reconnects and catches up from the WAL.
///  - A follower whose Hello seq the leader cannot bridge from its
///    queue or WAL (records checkpointed away before the session
///    started, or the follower is *ahead* of a leader that lost
///    unsynced WAL tail in a crash) gets a full image, captured
///    consistently from memory.
///  - Session threads never touch Nous ingest paths; they read the
///    WAL file and lock-free atomics only.
class ReplicationLeader : public CommitListener, public ReplicationTelemetry {
 public:
  struct Options {
    /// Loopback port to listen on (0 = ephemeral; see port()).
    uint16_t port = 0;
    /// Idle interval after which a session sends a heartbeat.
    int heartbeat_ms = 200;
    /// Max frames queued per follower before it is disconnected.
    size_t queue_capacity = 1024;
    /// Per-socket send/recv deadline.
    int io_timeout_ms = 5000;
  };

  /// `nous` must be durable (Recover() succeeded) and outlive this.
  ReplicationLeader(Nous* nous, Options options);
  ~ReplicationLeader() override;

  ReplicationLeader(const ReplicationLeader&) = delete;
  ReplicationLeader& operator=(const ReplicationLeader&) = delete;

  /// Binds the port, registers the commit hook, starts accepting.
  Status Start();

  /// Unregisters the commit hook, disconnects every follower, joins
  /// all threads. Idempotent; also run by the destructor.
  void Stop();

  uint16_t port() const { return listener_.port(); }

  // CommitListener (called under the Nous ingest mutex — enqueue only).
  void OnCommit(uint64_t seq, const std::string& payload,
                uint64_t kg_version) override;

  // ReplicationTelemetry.
  ReplicationView View() const override;

 private:
  /// One pre-encoded kWalBatch frame waiting in a session queue.
  struct QueueItem {
    uint64_t seq = 0;
    std::shared_ptr<const std::string> wire;
  };

  struct Session {
    TcpConn conn;
    std::thread thread;
    AnnotatedMutex mutex;
    std::condition_variable cv;
    std::deque<QueueItem> queue GUARDED_BY(mutex);
    bool stop GUARDED_BY(mutex) = false;
    /// Set when the queue overflowed; the serving loop disconnects.
    bool overflowed GUARDED_BY(mutex) = false;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeFollower(Session* session);
  /// Handshake: stream magic then the Hello frame, under a deadline.
  Status ReadHello(Session* session, ReplFrame* hello);
  /// Sends one data frame (kWalBatch/kCheckpoint), applying the
  /// repl_frame_drop / repl_frame_corrupt fault points. A dropped
  /// frame reports success — that is the point: the leader believes
  /// it sent it, and the follower must detect the gap.
  Status SendDataFrame(Session* session, const std::string& wire);
  /// Enqueues a pre-encoded frame on every live session, disconnecting
  /// sessions whose queue is full.
  void Broadcast(QueueItem item);
  void ReapFinishedSessions() REQUIRES(sessions_mutex_);

  Nous* nous_;
  Options options_;
  std::string wal_path_;
  TcpListener listener_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::thread accept_thread_;

  AnnotatedMutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_
      GUARDED_BY(sessions_mutex_);

  std::atomic<uint64_t> followers_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> checkpoints_sent_{0};
  std::atomic<uint64_t> overflow_disconnects_{0};
};

}  // namespace nous

#endif  // NOUS_REPLICATION_LEADER_H_
