#include "replication/leader.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "durability/wal.h"

namespace nous {

ReplicationLeader::ReplicationLeader(Nous* nous, Options options)
    : nous_(nous),
      options_(std::move(options)),
      wal_path_(nous->options().durability.dir + "/wal.log") {
  if (options_.heartbeat_ms <= 0) options_.heartbeat_ms = 200;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
}

ReplicationLeader::~ReplicationLeader() { Stop(); }

Status ReplicationLeader::Start() {
  if (started_) {
    return Status::FailedPrecondition("replication leader already started");
  }
  if (!nous_->durable()) {
    return Status::FailedPrecondition(
        "replication leader requires a durable Nous (call Recover first)");
  }
  NOUS_RETURN_IF_ERROR(listener_.Listen(options_.port));
  running_.store(true, std::memory_order_release);
  nous_->SetCommitListener(this);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  NOUS_LOG(Info) << "replication leader listening on 127.0.0.1:"
                 << listener_.port();
  return Status::Ok();
}

void ReplicationLeader::Stop() {
  if (!started_) return;
  // Unhook first: SetCommitListener blocks on the ingest mutex, so
  // once it returns no commit thread can touch the session queues.
  nous_->SetCommitListener(nullptr);
  running_.store(false, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  MutexLock lock(sessions_mutex_);
  for (auto& session : sessions_) {
    {
      MutexLock session_lock(session->mutex);
      session->stop = true;
    }
    session->cv.notify_all();
    session->conn.Shutdown();  // wakes a blocked Recv/SendAll
  }
  for (auto& session : sessions_) {
    if (session->thread.joinable()) session->thread.join();
  }
  sessions_.clear();
  started_ = false;
}

void ReplicationLeader::OnCommit(uint64_t seq, const std::string& payload,
                                 uint64_t kg_version) {
  ReplFrame frame;
  frame.type = ReplFrameType::kWalBatch;
  frame.seq = seq;
  frame.aux = kg_version;
  frame.payload = payload;
  QueueItem item;
  item.seq = seq;
  item.wire = std::make_shared<const std::string>(EncodeReplFrame(frame));
  Broadcast(std::move(item));
}

void ReplicationLeader::Broadcast(QueueItem item) {
  MutexLock lock(sessions_mutex_);
  for (auto& session : sessions_) {
    if (session->done.load(std::memory_order_acquire)) continue;
    bool overflowed = false;
    {
      MutexLock session_lock(session->mutex);
      if (session->stop || session->overflowed) continue;
      if (session->queue.size() >= options_.queue_capacity) {
        // Slow follower: shed it rather than stall or grow without
        // bound. It reconnects and catches up from the WAL.
        session->queue.clear();
        session->overflowed = true;
        overflowed = true;
      } else {
        session->queue.push_back(item);
      }
    }
    session->cv.notify_all();
    if (overflowed) {
      overflow_disconnects_.fetch_add(1, std::memory_order_relaxed);
      session->conn.Shutdown();
    }
  }
}

void ReplicationLeader::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    Result<TcpConn> conn = listener_.Accept(100);
    if (!conn.ok()) {
      if (running_.load(std::memory_order_acquire)) {
        NOUS_LOG(Warning) << "replication accept failed: "
                          << conn.status().ToString();
      }
      return;
    }
    MutexLock lock(sessions_mutex_);
    ReapFinishedSessions();
    if (!conn->valid() || !running_.load(std::memory_order_acquire)) {
      continue;  // timeout / dropped accept: poll again
    }
    auto session = std::make_unique<Session>();
    session->conn = std::move(*conn);
    Session* raw = session.get();
    session->thread = std::thread([this, raw] { ServeFollower(raw); });
    sessions_.push_back(std::move(session));
  }
}

void ReplicationLeader::ReapFinishedSessions() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

Status ReplicationLeader::ReadHello(Session* session, ReplFrame* hello) {
  char buffer[4096];
  std::string preamble;
  ReplFrameParser parser;
  bool magic_checked = false;
  for (;;) {
    NOUS_ASSIGN_OR_RETURN(size_t n,
                          session->conn.Recv(buffer, sizeof(buffer)));
    if (n == 0) {
      return Status::Unavailable("peer closed during replication handshake");
    }
    if (!magic_checked) {
      preamble.append(buffer, n);
      if (preamble.size() < sizeof(kReplStreamMagic)) continue;
      if (std::memcmp(preamble.data(), kReplStreamMagic,
                      sizeof(kReplStreamMagic)) != 0) {
        return Status::InvalidArgument("not a NOUS replication stream");
      }
      magic_checked = true;
      parser.Append(preamble.data() + sizeof(kReplStreamMagic),
                    preamble.size() - sizeof(kReplStreamMagic));
    } else {
      parser.Append(buffer, n);
    }
    ReplFrame frame;
    NOUS_ASSIGN_OR_RETURN(bool have, parser.Next(&frame));
    if (!have) continue;
    if (frame.type != ReplFrameType::kHello) {
      return Status::InvalidArgument(
          "replication handshake: expected Hello frame");
    }
    *hello = std::move(frame);
    return Status::Ok();
  }
}

Status ReplicationLeader::SendDataFrame(Session* session,
                                        const std::string& wire) {
  FaultInjector& faults = FaultInjector::Global();
  if (auto fault = faults.Hit("repl_frame_drop")) {
    if (fault->kind == FaultKind::kFail) {
      // Silently swallow the frame. The leader's cursor still
      // advances — exactly the failure the follower's seq-gap
      // detection exists to catch.
      return Status::Ok();
    }
  }
  if (auto fault = faults.Hit("repl_frame_corrupt")) {
    if (fault->kind == FaultKind::kFail) {
      std::string corrupted = wire;
      corrupted[corrupted.size() / 2] ^= 0x20;
      return session->conn.SendAll(corrupted);
    }
  }
  Status status = session->conn.SendAll(wire);
  if (status.ok()) {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(wire.size(), std::memory_order_relaxed);
  }
  return status;
}

void ReplicationLeader::ServeFollower(Session* session) {
  session->conn.SetIoDeadline(options_.io_timeout_ms).ok();
  ReplFrame hello;
  Status handshake = ReadHello(session, &hello);
  if (!handshake.ok()) {
    session->conn.Shutdown();
    session->done.store(true, std::memory_order_release);
    return;
  }
  followers_.fetch_add(1, std::memory_order_relaxed);

  // The follower resumes after everything it already applied. A
  // follower *ahead* of us means we lost unsynced WAL tail in a crash
  // — its state is unreachable from ours, so re-image it. So is a
  // follower at our seq but on a different kg_version: every mutation
  // is a record, so equal seqs with unequal versions mean the two
  // histories forked.
  uint64_t sent = hello.seq;
  const uint64_t hello_kgv = DecodeHelloKgVersion(hello.payload);
  bool need_image = (hello.aux & kHelloForceImage) != 0 ||
                    sent > nous_->last_durable_seq() ||
                    (hello_kgv != 0 && sent == nous_->last_durable_seq() &&
                     hello_kgv != nous_->durable_kg_version());

  WalTailReader tail;
  tail.Open(wal_path_);
  // Consecutive rounds in which neither the live queue nor the WAL
  // file had the next record: a gap in the file, or end of log with
  // the follower behind. A streak means the records were checkpointed
  // away before this session queued them — send an image.
  int stalled_rounds = 0;

  while (running_.load(std::memory_order_acquire)) {
    {
      MutexLock lock(session->mutex);
      if (session->stop || session->overflowed) break;
    }
    if (stalled_rounds > 3) {
      need_image = true;
      stalled_rounds = 0;
    }

    if (need_image) {
      Result<Nous::ReplicationImage> image =
          nous_->CaptureReplicationImage();
      if (!image.ok()) break;
      ReplFrame frame;
      frame.type = ReplFrameType::kCheckpoint;
      frame.seq = image->seq;
      frame.aux = image->kg_version;
      frame.payload = std::move(image->state);
      if (!SendDataFrame(session, EncodeReplFrame(frame)).ok()) break;
      checkpoints_sent_.fetch_add(1, std::memory_order_relaxed);
      sent = frame.seq;
      need_image = false;
      stalled_rounds = 0;
      continue;
    }

    // The live queue first: it holds every record committed since this
    // session was accepted, in seq order, so it bridges WAL resets.
    std::shared_ptr<const std::string> queued;
    {
      MutexLock lock(session->mutex);
      std::deque<QueueItem>& queue = session->queue;
      while (!queue.empty() && queue.front().seq <= sent) queue.pop_front();
      if (!queue.empty() && queue.front().seq == sent + 1) {
        queued = std::move(queue.front().wire);
        queue.pop_front();
      }
    }
    if (queued != nullptr) {
      if (!SendDataFrame(session, *queued).ok()) break;
      ++sent;
      stalled_rounds = 0;
      continue;
    }

    // Then catch up from the WAL file. A kReset (a checkpoint rewrote
    // the log) rereads it from the top.
    Result<WalTailReader::Event> event = tail.Next();
    if (!event.ok()) break;
    if (event->kind == WalTailReader::EventKind::kReset) continue;
    if (event->kind == WalTailReader::EventKind::kRecord) {
      WalRecord& rec = event->record;
      if (rec.seq <= sent) continue;  // already shipped
      if (rec.seq > sent + 1) {
        // The records bridging the gap were checkpointed away; the
        // queue may still have them.
        ++stalled_rounds;
        continue;
      }
      ReplFrame frame;
      frame.type = ReplFrameType::kWalBatch;
      frame.seq = rec.seq;
      // Historical frame: the KG version it produced is unknowable
      // from the log alone; 0 = "do not cross-check". Divergence is
      // still caught by the next live frame or heartbeat.
      frame.aux = 0;
      frame.payload = std::move(rec.payload);
      if (!SendDataFrame(session, EncodeReplFrame(frame)).ok()) break;
      sent = rec.seq;
      stalled_rounds = 0;
      continue;
    }

    // End of log: wait for the queue, then heartbeat. The durable seq
    // is read *before* waiting: if the follower was behind it, the
    // next record was in neither the queue nor the WAL, and this
    // round counts as stalled.
    const bool behind = sent < nous_->last_durable_seq();
    {
      UniqueLock lock(session->mutex);
      if (session->queue.empty() && !session->stop && !session->overflowed) {
        // When behind, wait only a sliver: it lets an in-flight
        // enqueue land before the next round.
        session->cv.wait_for(
            lock.std_lock(),
            std::chrono::milliseconds(behind ? 10 : options_.heartbeat_ms));
      }
      if (session->stop || session->overflowed) break;
    }
    if (behind) {
      ++stalled_rounds;
      continue;
    }
    // Tell the follower where we are, after every wait (so also under
    // steady commits), so it can measure lag and detect a silently
    // broken link.
    ReplFrame heartbeat;
    heartbeat.type = ReplFrameType::kHeartbeat;
    heartbeat.seq = nous_->last_durable_seq();
    heartbeat.aux = nous_->durable_kg_version();
    if (!session->conn.SendAll(EncodeReplFrame(heartbeat)).ok()) break;
  }

  followers_.fetch_sub(1, std::memory_order_relaxed);
  session->conn.Shutdown();
  session->done.store(true, std::memory_order_release);
}

ReplicationView ReplicationLeader::View() const {
  ReplicationView view;
  view.role = "leader";
  view.connected = true;
  view.last_seq = nous_->last_durable_seq();
  view.kg_version = nous_->durable_kg_version();
  view.followers = followers_.load(std::memory_order_relaxed);
  view.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  view.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  view.checkpoints_sent =
      checkpoints_sent_.load(std::memory_order_relaxed);
  view.overflow_disconnects =
      overflow_disconnects_.load(std::memory_order_relaxed);
  return view;
}

}  // namespace nous
