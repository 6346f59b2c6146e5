#include "codec/log_codec.h"

#include "codec/encoding.h"
#include "codec/row_codec.h"
#include "codec/value_codec.h"

namespace txrep::codec {

namespace {

/// Bit layout of the per-transaction trace flag byte; the remaining bits are
/// reserved and must decode as zero.
constexpr uint8_t kTraceSampledFlag = 0x01;

}  // namespace

void AppendLogTransaction(std::string& dst, const rel::LogTransaction& txn) {
  AppendVarint64(dst, txn.lsn);
  AppendVarint64(dst, ZigZagEncode(txn.commit_micros));
  AppendVarint64(dst, txn.trace.trace_id);
  dst.push_back(
      static_cast<char>(txn.trace.sampled ? kTraceSampledFlag : 0));
  AppendVarint64(dst, txn.ops.size());
  for (const rel::LogOp& op : txn.ops) {
    dst.push_back(static_cast<char>(op.type));
    AppendLengthPrefixed(dst, op.table);
    AppendValue(dst, op.pk);
    AppendLengthPrefixed(dst, EncodeRow(op.after));
  }
}

Result<rel::LogTransaction> GetLogTransaction(std::string_view* src) {
  rel::LogTransaction txn;
  uint64_t num_ops = 0;
  uint64_t commit_raw = 0;
  if (!GetVarint64(src, &txn.lsn) || !GetVarint64(src, &commit_raw) ||
      !GetVarint64(src, &txn.trace.trace_id) || src->empty()) {
    return Status::Corruption("log codec: bad transaction header");
  }
  const auto trace_flags = static_cast<uint8_t>((*src)[0]);
  src->remove_prefix(1);
  if ((trace_flags & ~kTraceSampledFlag) != 0) {
    return Status::Corruption("log codec: bad trace flags " +
                              std::to_string(trace_flags));
  }
  txn.trace.sampled = (trace_flags & kTraceSampledFlag) != 0;
  if (!GetCount(src, &num_ops)) {
    return Status::Corruption("log codec: bad transaction header");
  }
  txn.commit_micros = ZigZagDecode(commit_raw);
  txn.ops.reserve(num_ops);
  for (uint64_t i = 0; i < num_ops; ++i) {
    if (src->empty()) return Status::Corruption("log codec: truncated op");
    rel::LogOp op;
    const auto raw_type = static_cast<uint8_t>((*src)[0]);
    src->remove_prefix(1);
    if (raw_type > static_cast<uint8_t>(rel::LogOpType::kDelete)) {
      return Status::Corruption("log codec: bad op type " +
                                std::to_string(raw_type));
    }
    op.type = static_cast<rel::LogOpType>(raw_type);
    std::string_view table;
    if (!GetLengthPrefixed(src, &table)) {
      return Status::Corruption("log codec: bad table name");
    }
    op.table.assign(table);
    if (!GetValue(src, &op.pk)) {
      return Status::Corruption("log codec: bad primary key");
    }
    std::string_view row_bytes;
    if (!GetLengthPrefixed(src, &row_bytes)) {
      return Status::Corruption("log codec: bad row bytes");
    }
    TXREP_ASSIGN_OR_RETURN(op.after, DecodeRow(row_bytes));
    txn.ops.push_back(std::move(op));
  }
  return txn;
}

std::string EncodeLogBatch(const std::vector<rel::LogTransaction>& batch) {
  std::string out;
  AppendVarint64(out, batch.size());
  for (const rel::LogTransaction& txn : batch) AppendLogTransaction(out, txn);
  AppendFixed64(out, Fnv1a(out));
  return out;
}

Result<std::vector<rel::LogTransaction>> DecodeLogBatch(
    std::string_view bytes) {
  if (bytes.size() < 8) {
    return Status::Corruption("log codec: batch shorter than its checksum");
  }
  std::string_view tail = bytes.substr(bytes.size() - 8);
  uint64_t stored = 0;
  GetFixed64(&tail, &stored);
  bytes.remove_suffix(8);
  if (stored != Fnv1a(bytes)) {
    return Status::Corruption("log codec: batch checksum mismatch");
  }
  uint64_t count = 0;
  if (!GetCount(&bytes, &count)) {
    return Status::Corruption("log codec: bad batch count");
  }
  std::vector<rel::LogTransaction> batch;
  batch.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TXREP_ASSIGN_OR_RETURN(rel::LogTransaction txn, GetLogTransaction(&bytes));
    batch.push_back(std::move(txn));
  }
  if (!bytes.empty()) {
    return Status::Corruption("log codec: trailing bytes");
  }
  return batch;
}

Result<LogBatchStats> ScanLogBatch(std::string_view bytes) {
  if (bytes.size() < 8) {
    return Status::Corruption("log codec: batch shorter than its checksum");
  }
  std::string_view tail = bytes.substr(bytes.size() - 8);
  uint64_t stored = 0;
  GetFixed64(&tail, &stored);
  bytes.remove_suffix(8);
  if (stored != Fnv1a(bytes)) {
    return Status::Corruption("log codec: batch checksum mismatch");
  }
  uint64_t count = 0;
  if (!GetVarint64(&bytes, &count)) {
    return Status::Corruption("log codec: bad batch count");
  }
  LogBatchStats stats;
  stats.txn_count = count;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t lsn = 0;
    uint64_t skipped = 0;
    uint64_t num_ops = 0;
    if (!GetVarint64(&bytes, &lsn) || !GetVarint64(&bytes, &skipped) ||
        !GetVarint64(&bytes, &skipped) || bytes.empty()) {
      return Status::Corruption("log codec: bad transaction header");
    }
    bytes.remove_prefix(1);  // Trace flag byte.
    if (!GetVarint64(&bytes, &num_ops)) {
      return Status::Corruption("log codec: bad transaction header");
    }
    if (i == 0 || lsn < stats.min_lsn) stats.min_lsn = lsn;
    if (lsn > stats.max_lsn) stats.max_lsn = lsn;
    for (uint64_t op = 0; op < num_ops; ++op) {
      if (bytes.empty()) return Status::Corruption("log codec: truncated op");
      bytes.remove_prefix(1);  // Op type byte.
      std::string_view skipped_bytes;
      rel::Value pk;
      if (!GetLengthPrefixed(&bytes, &skipped_bytes) ||  // Table name.
          !GetValue(&bytes, &pk) ||
          !GetLengthPrefixed(&bytes, &skipped_bytes)) {  // Row bytes.
        return Status::Corruption("log codec: bad op body");
      }
    }
  }
  if (!bytes.empty()) {
    return Status::Corruption("log codec: trailing bytes");
  }
  return stats;
}

}  // namespace txrep::codec
