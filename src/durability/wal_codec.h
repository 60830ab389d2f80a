#ifndef NOUS_DURABILITY_WAL_CODEC_H_
#define NOUS_DURABILITY_WAL_CODEC_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "corpus/article_generator.h"

namespace nous {

/// What one WAL record asks the pipeline to do. A payload is
/// `[u32 version][u8 kind]` then the kind's body. The two values
/// differ in two bits, so no single bit flip turns one into the other.
enum class WalRecordKind : uint8_t {
  kArticleBatch = 1,  ///< u64 count, then the articles
  kFinalize = 2,      ///< no body: KgPipeline::Finalize()
};

/// A decoded WAL payload. `articles` is empty for kFinalize.
struct WalRecordBody {
  WalRecordKind kind = WalRecordKind::kArticleBatch;
  std::vector<Article> articles;
};

/// Serializes one ingest batch for the WAL. Only the fields the
/// pipeline reads during ingest are kept (id, date, source, text);
/// gold annotations are evaluation-only and deliberately dropped —
/// replaying a recovered WAL through KgPipeline::IngestBatch
/// reproduces the KG without them.
std::string EncodeArticleBatch(const Article* articles, size_t count);

inline std::string EncodeArticleBatch(const std::vector<Article>& articles) {
  return EncodeArticleBatch(articles.data(), articles.size());
}

/// The 5-byte payload of a finalize record.
std::string EncodeFinalizeRecord();

/// Inverse of both encoders. Rejects malformed payloads with
/// DataLoss/OutOfRange instead of crashing (a CRC-valid frame can
/// still be version-skewed): any version but the current one, an
/// unknown kind, a short body or trailing bytes.
Result<WalRecordBody> DecodeWalRecord(std::string_view payload);

}  // namespace nous

#endif  // NOUS_DURABILITY_WAL_CODEC_H_
