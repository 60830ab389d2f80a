#include "durability/wal_codec.h"

#include "common/binary_io.h"

namespace nous {

namespace {
/// Payload version; bump on any layout change. v2 added the kind
/// byte; v1 payloads (article batches without it) are DataLoss.
constexpr uint32_t kRecordVersion = 2;

BinaryWriter RecordHeader(WalRecordKind kind) {
  BinaryWriter writer;
  writer.U32(kRecordVersion);
  writer.U8(static_cast<uint8_t>(kind));
  return writer;
}
}  // namespace

std::string EncodeArticleBatch(const Article* articles, size_t count) {
  BinaryWriter writer = RecordHeader(WalRecordKind::kArticleBatch);
  writer.U64(count);
  for (size_t i = 0; i < count; ++i) {
    const Article& a = articles[i];
    writer.Str(a.id);
    writer.U32(static_cast<uint32_t>(a.date.year));
    writer.U8(static_cast<uint8_t>(a.date.month));
    writer.U8(static_cast<uint8_t>(a.date.day));
    writer.Str(a.source);
    writer.Str(a.text);
  }
  return writer.Take();
}

std::string EncodeFinalizeRecord() {
  return RecordHeader(WalRecordKind::kFinalize).Take();
}

Result<WalRecordBody> DecodeWalRecord(std::string_view payload) {
  BinaryReader reader(payload);
  uint32_t version = 0;
  NOUS_RETURN_IF_ERROR(reader.U32(&version));
  if (version != kRecordVersion) {
    return Status::DataLoss("WAL record version " + std::to_string(version) +
                            " unsupported (expected " +
                            std::to_string(kRecordVersion) + ")");
  }
  uint8_t kind = 0;
  NOUS_RETURN_IF_ERROR(reader.U8(&kind));
  WalRecordBody body;
  body.kind = static_cast<WalRecordKind>(kind);
  if (body.kind == WalRecordKind::kArticleBatch) {
    uint64_t count = 0;
    NOUS_RETURN_IF_ERROR(reader.Count(&count, 8 + 6 + 16));
    body.articles.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Article a;
      NOUS_RETURN_IF_ERROR(reader.Str(&a.id));
      uint32_t year = 0;
      uint8_t month = 0, day = 0;
      NOUS_RETURN_IF_ERROR(reader.U32(&year));
      NOUS_RETURN_IF_ERROR(reader.U8(&month));
      NOUS_RETURN_IF_ERROR(reader.U8(&day));
      a.date.year = static_cast<int>(year);
      a.date.month = month;
      a.date.day = day;
      NOUS_RETURN_IF_ERROR(reader.Str(&a.source));
      NOUS_RETURN_IF_ERROR(reader.Str(&a.text));
      body.articles.push_back(std::move(a));
    }
  } else if (body.kind != WalRecordKind::kFinalize) {
    return Status::DataLoss("WAL record kind " + std::to_string(kind) +
                            " unknown");
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("WAL record has trailing bytes");
  }
  return body;
}

}  // namespace nous
