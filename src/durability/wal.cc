#include "durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "durability/fs_util.h"
#include "obs/trace.h"

namespace nous {

const char kWalFileMagic[8] = {'N', 'O', 'U', 'S', 'W', 'A', 'L', '1'};

namespace {

std::string Errno(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

/// CRC over the frame: payload chained onto the (seq, len) header
/// words, so header corruption is as detectable as payload corruption.
uint32_t FrameCrc(uint64_t seq, uint32_t len, std::string_view payload) {
  BinaryWriter header;
  header.U64(seq);
  header.U32(len);
  uint32_t crc = Crc32c(header.data());
  return Crc32c(payload.data(), payload.size(), crc);
}

Status WriteAllFd(int fd, const char* data, size_t size,
                  const std::string& path) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("write", path));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

WalWriter::~WalWriter() { Close().ok(); }

Status WalWriter::Open(const std::string& path, const WalOptions& options) {
  if (is_open()) {
    return Status::FailedPrecondition("WAL already open: " + path_);
  }
  options_ = options;
  if (options_.fsync_interval_records == 0) {
    options_.fsync_interval_records = 1;
  }
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) return Status::Internal(Errno("open", path));
  fd_ = fd;
  path_ = path;
  appended_records_ = 0;
  records_since_sync_ = 0;
  // The file needs the magic if it is new OR empty — recovery truncates
  // a log whose tail tore inside the magic itself down to zero bytes,
  // and appending frames to a magic-less file would poison every later
  // read. A partial magic (0 < size < 8) is started over the same way.
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    Status status = Status::Internal(Errno("fstat", path_));
    Close().ok();
    return status;
  }
  if (st.st_size < static_cast<off_t>(sizeof(kWalFileMagic))) {
    Status status;
    if (st.st_size > 0 && ::ftruncate(fd_, 0) != 0) {
      status = Status::Internal(Errno("ftruncate", path_));
    }
    if (status.ok()) {
      status = WriteAllFd(fd_, kWalFileMagic, sizeof(kWalFileMagic),
                          path_);
    }
    if (status.ok()) status = Sync();
    if (!status.ok()) {
      Close().ok();
      return status;
    }
  }
  return Status::Ok();
}

Status WalWriter::Append(uint64_t seq, std::string_view payload) {
  if (!is_open()) return Status::FailedPrecondition("WAL not open");
  // Covers frame build + write + the fsync policy (Sync() nests its
  // own wal_fsync span under this one).
  NOUS_SPAN_VAR(span, "wal_append");
  span.Attr("bytes", payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  BinaryWriter frame;
  frame.U32(kWalFrameMagic);
  frame.U64(seq);
  frame.U32(len);
  frame.U32(FrameCrc(seq, len, payload));
  frame.Raw(payload.data(), payload.size());

  size_t persist = frame.size();
  Status injected;
  if (auto fault = FaultInjector::Global().Hit("wal_append")) {
    switch (fault->kind) {
      case FaultKind::kFail:
        return Status::Internal("fault injected: wal_append fail");
      case FaultKind::kTorn:
        persist = fault->arg > 0 ? std::min<size_t>(
                                       static_cast<size_t>(fault->arg),
                                       frame.size())
                                 : frame.size() / 2;
        injected = Status::Internal("fault injected: wal_append torn");
        break;
      default:
        break;
    }
  }

  NOUS_RETURN_IF_ERROR(WriteAllFd(fd_, frame.data().data(), persist, path_));
  if (!injected.ok()) return injected;  // torn frame is on disk, unacked

  ++appended_records_;
  ++records_since_sync_;
  switch (options_.fsync_policy) {
    case FsyncPolicy::kAlways:
      // Group commit: the owner fsyncs before acknowledging, once for
      // every record appended meanwhile (DurabilityManager::WaitDurable).
      return Status::Ok();
    case FsyncPolicy::kInterval:
      if (records_since_sync_ >= options_.fsync_interval_records) {
        return Sync();
      }
      return Status::Ok();
    case FsyncPolicy::kNever:
      return Status::Ok();
  }
  return Status::Ok();
}

Status WalWriter::Sync() {
  NOUS_RETURN_IF_ERROR(SyncData());
  records_since_sync_ = 0;
  return Status::Ok();
}

Status WalWriter::SyncData() {
  if (!is_open()) return Status::FailedPrecondition("WAL not open");
  NOUS_SPAN("wal_fsync");
  if (auto fault = FaultInjector::Global().Hit("wal_fsync")) {
    if (fault->kind == FaultKind::kFail) {
      return Status::Internal("fault injected: wal_fsync fail");
    }
    if (fault->kind == FaultKind::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fault->arg));
    }
  }
  if (::fsync(fd_) != 0) return Status::Internal(Errno("fsync", path_));
  return Status::Ok();
}

Status WalWriter::Close() {
  if (!is_open()) return Status::Ok();
  Status status;
  if (options_.fsync_policy != FsyncPolicy::kNever) {
    status = Sync();
  }
  ::close(fd_);
  fd_ = -1;
  if (auto fault = FaultInjector::Global().Hit("wal_close")) {
    if (fault->kind == FaultKind::kTruncate && fault->arg > 0) {
      struct stat st;
      if (::stat(path_.c_str(), &st) == 0) {
        uint64_t size = static_cast<uint64_t>(st.st_size);
        uint64_t chop = std::min<uint64_t>(
            static_cast<uint64_t>(fault->arg), size);
        TruncateFile(path_, size - chop).ok();
      }
    }
  }
  return status;
}

Result<WalReadResult> WalReader::ReadAll(const std::string& path) {
  WalReadResult result;
  if (!FileExists(path)) return result;
  NOUS_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  if (contents.size() < sizeof(kWalFileMagic)) {
    // A file this short cannot hold the magic the writer fsyncs at
    // creation; treat it as an empty log with a dropped tail.
    result.dropped_bytes = contents.size();
    return result;
  }
  if (std::memcmp(contents.data(), kWalFileMagic, sizeof(kWalFileMagic)) !=
      0) {
    return Status::DataLoss("not a NOUS WAL file: " + path);
  }

  BinaryReader reader(contents);
  reader.Skip(sizeof(kWalFileMagic)).ok();
  result.valid_bytes = reader.offset();

  while (!reader.AtEnd()) {
    uint32_t magic = 0;
    uint64_t seq = 0;
    uint32_t len = 0;
    uint32_t crc = 0;
    if (!reader.U32(&magic).ok() || magic != kWalFrameMagic ||
        !reader.U64(&seq).ok() || !reader.U32(&len).ok() ||
        !reader.U32(&crc).ok() || reader.remaining() < len) {
      break;  // torn or corrupt frame header: everything after is tail
    }
    std::string_view payload(contents.data() + reader.offset(), len);
    if (FrameCrc(seq, len, payload) != crc) break;
    reader.Skip(len).ok();
    WalRecord record;
    record.seq = seq;
    record.payload.assign(payload);
    result.records.push_back(std::move(record));
    result.valid_bytes = reader.offset();
  }

  result.dropped_bytes = contents.size() - result.valid_bytes;
  result.dropped_records = result.dropped_bytes > 0 ? 1 : 0;
  return result;
}

WalTailReader::~WalTailReader() { Close(); }

void WalTailReader::Open(const std::string& path) {
  Close();
  path_ = path;
}

void WalTailReader::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inode_ = 0;
  offset_ = 0;
}

Result<WalTailReader::Event> WalTailReader::Next() {
  Event event;
  if (path_.empty()) {
    return Status::FailedPrecondition("WalTailReader not opened");
  }

  // (1) Lazily (re)open and verify the file magic.
  if (fd_ < 0) {
    int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return event;  // not created yet: end of log
      return Status::Internal(Errno("open", path_));
    }
    char magic[sizeof(kWalFileMagic)];
    ssize_t n = ::pread(fd, magic, sizeof(magic), 0);
    if (n < 0) {
      Status status = Status::Internal(Errno("pread", path_));
      ::close(fd);
      return status;
    }
    if (static_cast<size_t>(n) < sizeof(magic)) {
      // Magic not fully written yet; try again later.
      ::close(fd);
      return event;
    }
    if (std::memcmp(magic, kWalFileMagic, sizeof(magic)) != 0) {
      ::close(fd);
      event.kind = EventKind::kReset;
      return event;
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      Status status = Status::Internal(Errno("fstat", path_));
      ::close(fd);
      return status;
    }
    fd_ = fd;
    inode_ = static_cast<uint64_t>(st.st_ino);
    offset_ = sizeof(kWalFileMagic);
  }

  // (2) Detect the writer swapping the file (checkpoint resets delete
  // and recreate wal.log) or truncating under us.
  struct stat by_name {};
  if (::stat(path_.c_str(), &by_name) != 0 ||
      static_cast<uint64_t>(by_name.st_ino) != inode_) {
    ::close(fd_);
    fd_ = -1;
    inode_ = 0;
    offset_ = 0;
    event.kind = EventKind::kReset;
    return event;
  }
  struct stat by_fd {};
  if (::fstat(fd_, &by_fd) != 0) {
    return Status::Internal(Errno("fstat", path_));
  }
  const uint64_t size = static_cast<uint64_t>(by_fd.st_size);
  if (size < offset_) {
    ::close(fd_);
    fd_ = -1;
    inode_ = 0;
    offset_ = 0;
    event.kind = EventKind::kReset;
    return event;
  }

  // (3) Try to read one frame header at the current offset.
  constexpr size_t kHeader = 4 + 8 + 4 + 4;  // magic + seq + len + crc
  char header[kHeader];
  ssize_t n = ::pread(fd_, header, kHeader, static_cast<off_t>(offset_));
  if (n < 0) return Status::Internal(Errno("pread", path_));
  if (static_cast<size_t>(n) < kHeader) return event;  // mid-append
  uint32_t magic = 0;
  uint64_t seq = 0;
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&seq, header + 4, 8);
  std::memcpy(&len, header + 12, 4);
  std::memcpy(&crc, header + 16, 4);
  if (magic != kWalFrameMagic) {
    // Garbage where a frame should start: the tail was torn or the
    // file corrupted. Treat like a swap — reopen and let the caller
    // decide how far to trust the log.
    ::close(fd_);
    fd_ = -1;
    inode_ = 0;
    offset_ = 0;
    event.kind = EventKind::kReset;
    return event;
  }
  if (offset_ + kHeader + len > size) {
    // Declared payload extends past the current end: either the append
    // is still in flight (poll again) or the length word is corrupt.
    // A cap guards against waiting forever on a corrupt length.
    if (len > (1u << 30)) {
      ::close(fd_);
      fd_ = -1;
      inode_ = 0;
      offset_ = 0;
      event.kind = EventKind::kReset;
      return event;
    }
    return event;
  }

  // (4) Read and verify the payload.
  std::string payload(len, '\0');
  size_t got = 0;
  while (got < len) {
    ssize_t r = ::pread(fd_, payload.data() + got, len - got,
                        static_cast<off_t>(offset_ + kHeader + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("pread", path_));
    }
    if (r == 0) return event;  // shrank mid-read; re-check next call
    got += static_cast<size_t>(r);
  }
  if (FrameCrc(seq, len, payload) != crc) {
    if (size > offset_ + kHeader + len) {
      // Bytes exist past this frame, so it is not a trailing torn
      // write still in flight — the log is corrupt here.
      ::close(fd_);
      fd_ = -1;
      inode_ = 0;
      offset_ = 0;
      event.kind = EventKind::kReset;
      return event;
    }
    return event;  // trailing partial write; poll again
  }

  // (5) Intact frame.
  event.kind = EventKind::kRecord;
  event.record.seq = seq;
  event.record.payload = std::move(payload);
  offset_ += kHeader + len;
  return event;
}

}  // namespace nous
