#include "codec/row_codec.h"

#include <algorithm>

#include "codec/encoding.h"
#include "codec/value_codec.h"

namespace txrep::codec {

std::string EncodeRow(const rel::Row& row) {
  std::string out;
  AppendVarint64(out, row.size());
  for (const rel::Value& v : row) AppendValue(out, v);
  return out;
}

Result<rel::Row> DecodeRow(std::string_view bytes) {
  uint64_t arity = 0;
  if (!GetCount(&bytes, &arity)) {
    return Status::Corruption("row codec: bad arity");
  }
  rel::Row row;
  row.reserve(arity);
  for (uint64_t i = 0; i < arity; ++i) {
    rel::Value v;
    if (!GetValue(&bytes, &v)) {
      return Status::Corruption("row codec: bad value at position " +
                                std::to_string(i));
    }
    row.push_back(std::move(v));
  }
  if (!bytes.empty()) {
    return Status::Corruption("row codec: trailing bytes");
  }
  return row;
}

std::string EncodePostings(const std::vector<std::string>& row_keys) {
  std::vector<std::string> sorted = row_keys;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::string out;
  AppendVarint64(out, sorted.size());
  for (const std::string& key : sorted) AppendLengthPrefixed(out, key);
  return out;
}

Result<std::vector<std::string>> DecodePostings(std::string_view bytes) {
  uint64_t count = 0;
  if (!GetCount(&bytes, &count)) {
    return Status::Corruption("postings codec: bad count");
  }
  std::vector<std::string> keys;
  keys.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view key;
    if (!GetLengthPrefixed(&bytes, &key)) {
      return Status::Corruption("postings codec: bad entry " +
                                std::to_string(i));
    }
    keys.emplace_back(key);
  }
  if (!bytes.empty()) {
    return Status::Corruption("postings codec: trailing bytes");
  }
  return keys;
}

}  // namespace txrep::codec
