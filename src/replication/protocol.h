#ifndef NOUS_REPLICATION_PROTOCOL_H_
#define NOUS_REPLICATION_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace nous {

/// Length-prefixed binary framing for WAL shipping (DESIGN.md §5.15).
/// Wire layout of one frame, all integers little-endian:
///
///   [u32 frame-magic][u8 type][u64 seq][u64 aux][u32 len][u32 crc]
///   [payload: len bytes]
///
/// crc = CRC-32C(payload, seeded with CRC-32C(type||seq||aux||len)),
/// mirroring the WAL's chained-header scheme: a bit flip anywhere in
/// the frame — header or payload — fails verification. The stream
/// carries no resync markers; on any framing or CRC failure the
/// receiver drops the connection and resyncs from its last applied
/// seq (the transport is TCP, so mid-stream corruption means a bug or
/// injected fault, not routine loss).
enum class ReplFrameType : uint8_t {
  /// follower -> leader, once per connection: seq = last applied seq,
  /// aux = flags (kHelloForceImage requests a full checkpoint image),
  /// payload = EncodeHelloPayload (the follower's kg_version, so a
  /// leader at the same seq but a different version — a forked
  /// history — can detect the divergence and re-image instead of
  /// silently serving heartbeats forever).
  kHello = 1,
  /// leader -> follower: one committed WAL record (an article batch
  /// or a finalize). seq = WAL seq, payload = the exact WAL payload
  /// (wal_codec bytes), aux = the leader's kg_version after applying
  /// this record, or 0 when unknown (historical catch-up frames).
  kWalBatch = 2,
  /// leader -> follower: a full catch-up image, sent only when neither
  /// the session queue nor the WAL holds the records the follower
  /// needs. seq = the WAL seq the image covers, aux = its kg_version,
  /// payload = the KgPipeline::SaveState bytes.
  kCheckpoint = 3,
  /// leader -> follower, on idle: seq = leader's last committed seq,
  /// aux = leader's kg_version, empty payload. Lets followers report
  /// lag and detect a stalled (frame-dropping) link.
  kHeartbeat = 4,
};

/// Hello aux flag: the follower's state diverged (or it never had
/// any); the leader must send a full checkpoint image before WAL
/// frames.
constexpr uint64_t kHelloForceImage = 1;

/// Per-frame magic word ("NRPF" little-endian).
constexpr uint32_t kReplFrameMagic = 0x4650524Eu;
/// 8-byte preamble the follower sends before its Hello, so a stray
/// client speaking another protocol is rejected before frame parsing.
extern const char kReplStreamMagic[8];
/// Upper bound on a frame payload; a declared length beyond it is
/// corruption, not a frame worth waiting for.
constexpr uint32_t kMaxReplPayloadBytes = 1u << 30;

struct ReplFrame {
  ReplFrameType type = ReplFrameType::kHeartbeat;
  uint64_t seq = 0;
  uint64_t aux = 0;
  std::string payload;
};

/// Serialized frame header size in bytes (magic + type + seq + aux +
/// len + crc).
constexpr size_t kReplFrameHeaderBytes = 4 + 1 + 8 + 8 + 4 + 4;

/// Encodes one frame to its wire form.
std::string EncodeReplFrame(const ReplFrame& frame);

/// Hello payload: the follower's durable kg_version as fixed64.
std::string EncodeHelloPayload(uint64_t kg_version);
/// Extracts the kg_version from a Hello payload; 0 (never a live
/// version) when the payload is absent or malformed — older or foreign
/// peers simply skip the same-seq divergence check.
uint64_t DecodeHelloKgVersion(std::string_view payload);

/// Incremental frame parser over an arbitrarily-chunked byte stream.
/// Feed bytes with Append, then drain frames with Next until it
/// reports "need more". Any framing violation (bad magic, bad type,
/// oversized length, CRC mismatch) is DataLoss: the stream cannot be
/// trusted past that point and the connection must be dropped.
class ReplFrameParser {
 public:
  void Append(const char* data, size_t size) {
    buffer_.append(data, size);
  }

  /// Ok(true): *frame holds the next complete frame. Ok(false): the
  /// buffered bytes end mid-frame; append more and retry. Error:
  /// corruption (parser state is poisoned; drop the connection).
  Result<bool> Next(ReplFrame* frame);

  /// Bytes buffered but not yet consumed by Next.
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
};

}  // namespace nous

#endif  // NOUS_REPLICATION_PROTOCOL_H_
