#ifndef NOUS_DURABILITY_WAL_H_
#define NOUS_DURABILITY_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace nous {

/// When the WAL forces appended records to stable storage.
enum class FsyncPolicy {
  kAlways,    ///< every record fsynced before it is acknowledged; the
              ///< owner group-commits (WalWriter::Append does not sync)
  kInterval,  ///< fsync every `fsync_interval_records` appends
  kNever,     ///< rely on the OS page cache (tests / throwaway runs)
};

struct WalOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;
  /// Appends between fsyncs under kInterval (>= 1).
  size_t fsync_interval_records = 16;
};

/// One committed record recovered from the log.
struct WalRecord {
  uint64_t seq = 0;
  std::string payload;
};

/// What WalReader::ReadAll saw, including how much tail it dropped.
struct WalReadResult {
  std::vector<WalRecord> records;
  /// Byte offset of the end of the last intact record — the safe
  /// truncation point before re-opening the log for append.
  uint64_t valid_bytes = 0;
  /// Bytes past valid_bytes that failed framing or CRC checks.
  uint64_t dropped_bytes = 0;
  /// Frames discarded from the tail (0 or 1 under the torn-write
  /// model; >1 only if the file was corrupted mid-stream, in which
  /// case everything after the corruption is dropped too).
  uint64_t dropped_records = 0;
};

/// Append-only, CRC-framed write-ahead log.
///
/// Layout: an 8-byte file magic, then a sequence of frames
///   [u32 frame-magic][u64 seq][u32 payload-len][u32 crc][payload]
/// where crc = CRC-32C(payload, seeded with CRC-32C(seq||len)), so a
/// bit flip anywhere in the header or payload fails verification.
/// Readers stop at the first bad frame and report the dropped tail —
/// a torn final write is data the writer never acknowledged, so
/// dropping it preserves exactly the committed prefix.
///
/// Fault points (see FaultInjector): "wal_append" (kFail: nothing
/// written; kTorn: a prefix of the frame hits the file, then error),
/// "wal_fsync" (kFail), "wal_close" (kTruncate: arg bytes chopped
/// after close — simulates a crash with unsynced page cache).
///
/// Not internally synchronized: NOUS serializes appends under the
/// pipeline's ingest commit lock; only SyncData() may overlap them.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for append, creating it (with the file magic) when
  /// absent. An existing file is trusted as-is: recovery must have
  /// already truncated any torn tail (WalReader::ReadAll +
  /// TruncateFile(valid_bytes)).
  Status Open(const std::string& path, const WalOptions& options);

  /// Appends one record and applies the fsync policy. On any error the
  /// record is NOT committed — the caller must not acknowledge the
  /// batch, and the file may hold a torn frame that the next
  /// recovery's CRC scan will drop.
  Status Append(uint64_t seq, std::string_view payload);

  /// Forces everything appended so far to stable storage.
  Status Sync();

  /// Sync() without the kInterval bookkeeping, so it may run
  /// concurrently with Append() on another thread (group commit). The
  /// caller must keep Open()/Close() from racing it.
  Status SyncData();

  /// Syncs (best effort) and closes the file. Idempotent.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  /// Records appended since Open (not counting pre-existing ones).
  uint64_t appended_records() const { return appended_records_; }

 private:
  int fd_ = -1;
  std::string path_;
  WalOptions options_;
  uint64_t appended_records_ = 0;
  size_t records_since_sync_ = 0;
};

/// Reads every intact record of a WAL file. Never fails on torn or
/// corrupt tails — those are reported in the result; only I/O errors
/// or a bad file magic produce an error Status. A missing file reads
/// as an empty log.
class WalReader {
 public:
  static Result<WalReadResult> ReadAll(const std::string& path);
};

/// Incremental WAL follower: reads frames as the writer appends them,
/// treating clean end-of-log as "poll again later" rather than done.
/// This is the leader-side source for WAL shipping — it never holds
/// any lock the writer needs, it just re-reads the growing file.
///
/// The reader survives WAL *resets* (checkpointing deletes and
/// recreates wal.log): each Next() compares the path's current inode
/// against the open fd and reports kReset when the file was swapped
/// or truncated under it, so the caller can decide whether to re-read
/// from the top or resync from a checkpoint image.
class WalTailReader {
 public:
  enum class EventKind {
    kRecord,    ///< `record` holds the next intact frame
    kEndOfLog,  ///< no complete frame past the current offset — poll later
    kReset,     ///< the file vanished, shrank, or was replaced — reopened
                ///< from the top on the next call
  };

  struct Event {
    EventKind kind = EventKind::kEndOfLog;
    WalRecord record;
  };

  WalTailReader() = default;
  ~WalTailReader();
  WalTailReader(const WalTailReader&) = delete;
  WalTailReader& operator=(const WalTailReader&) = delete;

  /// Points the reader at a WAL path. The file need not exist yet.
  void Open(const std::string& path);

  /// Advances by at most one frame. Only I/O errors fail; torn tails
  /// and swapped files are Events, not errors.
  Result<Event> Next();

  void Close();

  /// Byte offset of the next unread frame in the current file.
  uint64_t offset() const { return offset_; }

 private:
  std::string path_;
  int fd_ = -1;
  uint64_t inode_ = 0;
  uint64_t offset_ = 0;
};

/// 8-byte magic at offset 0 of every WAL file.
extern const char kWalFileMagic[8];
/// Per-frame magic word.
constexpr uint32_t kWalFrameMagic = 0x4C41574Eu;  // "NWAL" little-endian

}  // namespace nous

#endif  // NOUS_DURABILITY_WAL_H_
