#ifndef NOUS_DURABILITY_MANAGER_H_
#define NOUS_DURABILITY_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"

namespace nous {

/// Knobs for crash-safe ingest (Nous::Options::durability).
struct DurabilityOptions {
  /// Directory holding wal.log + checkpoint.nous. Created on demand.
  std::string dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;
  /// WAL appends between fsyncs under kInterval.
  size_t fsync_interval_records = 16;
  /// Logged batches between automatic checkpoints (0 = checkpoint only
  /// when Nous::Checkpoint() is called).
  size_t checkpoint_interval_batches = 0;
};

/// Owns the WAL + checkpoint files of one durable NOUS instance and
/// the sequencing between them. The protocol (DESIGN.md §5.10):
///
///   ingest:     LogBatch(encode(batch))   -- log before apply
///               pipeline.IngestBatch(...) -- apply
///               WaitDurable(seq)           -- kAlways: group fsync,
///                                             off the ingest mutex
///               ack                        -- only after all three
///   checkpoint: WriteCheckpoint(pipeline.SaveState())
///               -> atomically replaces checkpoint.nous, then resets
///                  the WAL (records <= last_applied_seq are dead)
///   recovery:   Recover() -> checkpoint payload + WAL records with
///               seq > checkpoint.last_applied_seq, torn tail dropped
///               and the file truncated to its valid prefix.
///
/// Group commit (FsyncPolicy::kAlways, DESIGN.md §5.16): LogBatch only
/// appends. A writer then releases its ingest mutex and calls
/// WaitDurable(seq); the first waiter that finds no fsync in flight
/// runs one fsync covering every record appended so far, advances
/// durable_upto, and wakes the rest. A failed fsync is sticky: every
/// later LogBatch, WaitDurable and checkpoint fails until a fresh
/// Recover(). kInterval and kNever fsync inside LogBatch as before and
/// WaitDurable returns at once.
///
/// Synchronization: Nous serializes every call except WaitDurable
/// under its ingest mutex (acquired before the pipeline's kg_mutex).
/// The group-commit state lives under sync_mutex_, which nests inside
/// the ingest mutex (lock order: ingest mutex -> sync_mutex_) and is
/// never held across a group fsync (only WriteCheckpoint holds it
/// while it swaps the WAL file).
class DurabilityManager {
 public:
  explicit DurabilityManager(DurabilityOptions options);
  ~DurabilityManager();

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// What a crashed instance left behind.
  struct RecoveredState {
    bool has_checkpoint = false;
    CheckpointData checkpoint;
    /// WAL records to replay, already filtered to
    /// seq > checkpoint.last_applied_seq and in seq order.
    std::vector<WalRecord> replay;
    /// Frames dropped from the torn/corrupt WAL tail.
    uint64_t dropped_records = 0;
    uint64_t dropped_bytes = 0;
  };

  /// Scans checkpoint + WAL, truncates any torn WAL tail to its valid
  /// prefix, and returns what survived. Call before OpenWal. A corrupt
  /// checkpoint is an error (stale-but-intact beats silently wrong);
  /// a torn WAL tail is not (it was never acknowledged).
  Result<RecoveredState> Recover();

  /// Opens the WAL for append; subsequent LogBatch calls are numbered
  /// from `last_applied_seq + 1`.
  Status OpenWal(uint64_t last_applied_seq);

  /// Appends one encoded batch and applies the fsync policy (kAlways
  /// defers the fsync to WaitDurable). On success returns the batch's
  /// sequence number; on failure nothing was committed and the caller
  /// must not acknowledge the batch.
  Result<uint64_t> LogBatch(std::string_view payload)
      EXCLUDES(sync_mutex_);

  /// Blocks until every record up to `seq` is fsynced (kAlways), then
  /// returns OK — or the sticky fsync error if a group fsync failed
  /// before covering `seq`. Returns OK at once under kInterval and
  /// kNever. The only call that may run concurrently with the others.
  Status WaitDurable(uint64_t seq) EXCLUDES(sync_mutex_);

  /// True when checkpoint_interval_batches have been logged since the
  /// last checkpoint.
  bool ShouldCheckpoint() const;

  /// Atomically persists `state` (a KgPipeline::SaveState payload)
  /// covering everything logged so far, then resets the WAL to empty.
  /// Holds sync_mutex_ (after any in-flight group fsync finishes)
  /// while it swaps the WAL file, and marks every logged record
  /// durable: the checkpoint covers them.
  Status WriteCheckpoint(std::string state) EXCLUDES(sync_mutex_);

  /// Installs a checkpoint image received from elsewhere (replication:
  /// a leader's full image covering `last_applied_seq`). Re-anchors the
  /// local sequence counter to the image, persists it, and resets the
  /// WAL — after this, LogBatch numbers from last_applied_seq + 1.
  Status InstallCheckpoint(uint64_t last_applied_seq, std::string state)
      EXCLUDES(sync_mutex_);

  Status Close();

  uint64_t last_logged_seq() const {
    return last_logged_seq_.load(std::memory_order_acquire);
  }
  std::string wal_path() const;
  std::string checkpoint_path() const;
  const DurabilityOptions& options() const { return options_; }

 private:
  /// The sticky group-commit error (OK while none happened).
  Status StickyError() EXCLUDES(sync_mutex_);

  DurabilityOptions options_;
  /// Appended to under the ingest mutex; a group-commit leader fsyncs
  /// it concurrently (WalWriter::SyncData touches no append state).
  /// Closed and reopened only under sync_mutex_ with no fsync in
  /// flight.
  WalWriter wal_;
  /// Written under the ingest mutex after the record is in the file;
  /// a group-commit leader reads it to learn what its fsync covers.
  std::atomic<uint64_t> last_logged_seq_{0};
  uint64_t batches_since_checkpoint_ = 0;

  AnnotatedMutex sync_mutex_;
  std::condition_variable sync_cv_;
  /// Every record with seq <= durable_upto_ is on stable storage.
  uint64_t durable_upto_ GUARDED_BY(sync_mutex_) = 0;
  /// A group-commit leader is inside fsync (with sync_mutex_ released).
  bool sync_in_flight_ GUARDED_BY(sync_mutex_) = false;
  Status sync_error_ GUARDED_BY(sync_mutex_);
};

}  // namespace nous

#endif  // NOUS_DURABILITY_MANAGER_H_
