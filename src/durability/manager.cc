#include "durability/manager.h"

#include <algorithm>

#include "common/logging.h"
#include "durability/fs_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nous {

namespace {

Counter* WalRecords() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_wal_records_total", "WAL records appended");
  return c;
}
Counter* WalBytes() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_wal_bytes_total", "WAL payload bytes appended");
  return c;
}
Counter* WalAppendFailures() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_wal_append_failures_total",
      "WAL appends that failed (batch not acknowledged)");
  return c;
}
Counter* Checkpoints() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_checkpoint_total", "Checkpoints written");
  return c;
}
Counter* CheckpointFailures() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_checkpoint_failures_total", "Checkpoint writes that failed");
  return c;
}
Counter* RecoveryDropped() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "nous_recovery_dropped_records_total",
      "Torn/corrupt WAL tail records dropped during recovery");
  return c;
}
}  // namespace

DurabilityManager::DurabilityManager(DurabilityOptions options)
    : options_(std::move(options)) {}

DurabilityManager::~DurabilityManager() { Close().ok(); }

std::string DurabilityManager::wal_path() const {
  return options_.dir + "/wal.log";
}

std::string DurabilityManager::checkpoint_path() const {
  return options_.dir + "/checkpoint.nous";
}

Result<DurabilityManager::RecoveredState> DurabilityManager::Recover() {
  NOUS_SPAN("recover");
  NOUS_RETURN_IF_ERROR(EnsureDirectory(options_.dir));
  RecoveredState state;

  if (FileExists(checkpoint_path())) {
    NOUS_ASSIGN_OR_RETURN(state.checkpoint,
                          ReadCheckpointFile(checkpoint_path()));
    state.has_checkpoint = true;
  }

  NOUS_ASSIGN_OR_RETURN(WalReadResult scan, WalReader::ReadAll(wal_path()));
  state.dropped_records = scan.dropped_records;
  state.dropped_bytes = scan.dropped_bytes;
  if (scan.dropped_bytes > 0) {
    NOUS_LOG(Warning) << "WAL recovery dropped " << scan.dropped_records
                      << " torn/corrupt tail record(s), "
                      << scan.dropped_bytes << " byte(s); truncating "
                      << wal_path() << " to " << scan.valid_bytes
                      << " bytes";
    RecoveryDropped()->Increment(
        std::max<uint64_t>(scan.dropped_records, 1));
    if (FileExists(wal_path())) {
      NOUS_RETURN_IF_ERROR(TruncateFile(wal_path(), scan.valid_bytes));
    }
  }

  const uint64_t floor_seq =
      state.has_checkpoint ? state.checkpoint.last_applied_seq : 0;
  for (WalRecord& record : scan.records) {
    // Records at or below the checkpoint seq survive a crash between
    // checkpoint rename and WAL reset; they are already applied.
    if (record.seq > floor_seq) state.replay.push_back(std::move(record));
  }
  std::stable_sort(state.replay.begin(), state.replay.end(),
                   [](const WalRecord& a, const WalRecord& b) {
                     return a.seq < b.seq;
                   });
  return state;
}

Status DurabilityManager::OpenWal(uint64_t last_applied_seq) {
  NOUS_RETURN_IF_ERROR(EnsureDirectory(options_.dir));
  WalOptions wal_options;
  wal_options.fsync_policy = options_.fsync_policy;
  wal_options.fsync_interval_records = options_.fsync_interval_records;
  NOUS_RETURN_IF_ERROR(wal_.Open(wal_path(), wal_options));
  last_logged_seq_.store(last_applied_seq, std::memory_order_release);
  batches_since_checkpoint_ = 0;
  MutexLock lock(sync_mutex_);
  durable_upto_ = last_applied_seq;
  return Status::Ok();
}

Result<uint64_t> DurabilityManager::LogBatch(std::string_view payload) {
  if (!wal_.is_open()) {
    return Status::FailedPrecondition("durability: WAL not open");
  }
  if (options_.fsync_policy == FsyncPolicy::kAlways) {
    NOUS_RETURN_IF_ERROR(StickyError());
  }
  const uint64_t seq = last_logged_seq() + 1;
  Status status = wal_.Append(seq, payload);
  if (!status.ok()) {
    WalAppendFailures()->Increment();
    return status;
  }
  last_logged_seq_.store(seq, std::memory_order_release);
  ++batches_since_checkpoint_;
  WalRecords()->Increment();
  WalBytes()->Increment(payload.size());
  return seq;
}

Status DurabilityManager::StickyError() {
  MutexLock lock(sync_mutex_);
  return sync_error_;
}

Status DurabilityManager::WaitDurable(uint64_t seq) {
  if (options_.fsync_policy != FsyncPolicy::kAlways) return Status::Ok();
  for (;;) {
    uint64_t target = 0;
    {
      UniqueLock lock(sync_mutex_);
      while (durable_upto_ < seq && sync_error_.ok() && sync_in_flight_) {
        sync_cv_.wait(lock.std_lock());
      }
      if (durable_upto_ >= seq) return Status::Ok();
      if (!sync_error_.ok()) return sync_error_;
      // Leader: one fsync covers every record already in the file,
      // including the ones other writers appended while we waited.
      sync_in_flight_ = true;
      target = last_logged_seq();
    }
    Status status = wal_.SyncData();
    {
      MutexLock lock(sync_mutex_);
      sync_in_flight_ = false;
      if (status.ok()) {
        durable_upto_ = std::max(durable_upto_, target);
      } else if (sync_error_.ok()) {
        sync_error_ = status;
      }
    }
    sync_cv_.notify_all();
  }
}

bool DurabilityManager::ShouldCheckpoint() const {
  return options_.checkpoint_interval_batches > 0 &&
         batches_since_checkpoint_ >= options_.checkpoint_interval_batches;
}

Status DurabilityManager::WriteCheckpoint(std::string state) {
  NOUS_SPAN_VAR(span, "checkpoint");
  span.Attr("state_bytes", state.size());
  if (options_.fsync_policy == FsyncPolicy::kAlways) {
    NOUS_RETURN_IF_ERROR(StickyError());
  }
  CheckpointData data;
  data.last_applied_seq = last_logged_seq();
  data.state = std::move(state);
  Status status = WriteCheckpointFile(checkpoint_path(), data);
  if (!status.ok()) {
    CheckpointFailures()->Increment();
    return status;
  }

  // The checkpoint is on stable storage and covers every logged
  // record: release their waiters, then wait out any in-flight group
  // fsync so the WAL fd can be swapped under it.
  UniqueLock lock(sync_mutex_);
  while (sync_in_flight_) sync_cv_.wait(lock.std_lock());
  durable_upto_ = data.last_applied_seq;
  sync_cv_.notify_all();

  // The WAL restarts empty. A crash between these steps is safe:
  // stale records carry seq <= last_applied_seq and are skipped on
  // replay.
  const bool was_open = wal_.is_open();
  if (was_open) NOUS_RETURN_IF_ERROR(wal_.Close());
  NOUS_RETURN_IF_ERROR(RemoveFile(wal_path()));
  NOUS_RETURN_IF_ERROR(FsyncParentDir(wal_path()));
  if (was_open) {
    WalOptions wal_options;
    wal_options.fsync_policy = options_.fsync_policy;
    wal_options.fsync_interval_records = options_.fsync_interval_records;
    NOUS_RETURN_IF_ERROR(wal_.Open(wal_path(), wal_options));
  }
  batches_since_checkpoint_ = 0;
  Checkpoints()->Increment();
  return Status::Ok();
}

Status DurabilityManager::InstallCheckpoint(uint64_t last_applied_seq,
                                            std::string state) {
  last_logged_seq_.store(last_applied_seq, std::memory_order_release);
  return WriteCheckpoint(std::move(state));
}

Status DurabilityManager::Close() {
  if (!wal_.is_open()) return Status::Ok();
  return wal_.Close();
}

}  // namespace nous
