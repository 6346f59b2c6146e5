#include "codec/kv_keys.h"

#include "codec/value_codec.h"

namespace txrep::codec {

std::string RowKey(std::string_view table, const rel::Value& pk) {
  return KeyEscapeIdentifier(table) + "_" + KeyEncodeValue(pk);
}

std::string HashIndexKey(std::string_view table, std::string_view column,
                         const rel::Value& value) {
  return KeyEscapeIdentifier(table) + "_" + KeyEscapeIdentifier(column) + "_" +
         KeyEncodeValue(value);
}

std::string BlinkNodeKey(std::string_view table, std::string_view column,
                         uint64_t node_id) {
  return "!b_" + KeyEscapeIdentifier(table) + "_" +
         KeyEscapeIdentifier(column) + "_" + std::to_string(node_id);
}

std::string BlinkMetaKey(std::string_view table, std::string_view column) {
  return "!bmeta_" + KeyEscapeIdentifier(table) + "_" +
         KeyEscapeIdentifier(column);
}

}  // namespace txrep::codec
