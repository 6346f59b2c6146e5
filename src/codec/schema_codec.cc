#include "codec/schema_codec.h"

#include <vector>

#include "codec/encoding.h"

namespace txrep::codec {

namespace {

Status Corrupt(const char* what) {
  return Status::Corruption(std::string("catalog codec: ") + what);
}

}  // namespace

std::string EncodeCatalog(const rel::Catalog& catalog) {
  std::string out;
  const std::vector<std::string> names = catalog.TableNames();
  AppendVarint64(out, names.size());
  for (const std::string& name : names) {
    const rel::TableSchema& schema = **catalog.GetTable(name);
    AppendLengthPrefixed(out, schema.table_name());
    AppendVarint64(out, schema.num_columns());
    for (const rel::Column& column : schema.columns()) {
      AppendLengthPrefixed(out, column.name);
      out.push_back(static_cast<char>(column.type));
    }
    AppendVarint64(out, schema.pk_index());
    AppendVarint64(out, schema.hash_index_columns().size());
    for (size_t index : schema.hash_index_columns()) {
      AppendVarint64(out, index);
    }
    AppendVarint64(out, schema.range_index_columns().size());
    for (size_t index : schema.range_index_columns()) {
      AppendVarint64(out, index);
    }
  }
  AppendFixed64(out, Fnv1a(out));
  return out;
}

Result<rel::Catalog> DecodeCatalog(std::string_view bytes) {
  if (bytes.size() < 8) return Corrupt("short buffer");
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  std::string_view checksum_view = bytes.substr(bytes.size() - 8);
  uint64_t checksum = 0;
  if (!GetFixed64(&checksum_view, &checksum) || checksum != Fnv1a(body)) {
    return Corrupt("checksum mismatch");
  }

  std::string_view src = body;
  uint64_t num_tables = 0;
  if (!GetVarint64(&src, &num_tables)) return Corrupt("table count");
  rel::Catalog catalog;
  for (uint64_t t = 0; t < num_tables; ++t) {
    std::string_view name;
    if (!GetLengthPrefixed(&src, &name)) return Corrupt("table name");
    uint64_t num_columns = 0;
    if (!GetCount(&src, &num_columns)) return Corrupt("column count");
    std::vector<rel::Column> columns;
    columns.reserve(num_columns);
    for (uint64_t c = 0; c < num_columns; ++c) {
      std::string_view column_name;
      if (!GetLengthPrefixed(&src, &column_name)) return Corrupt("column name");
      if (src.empty()) return Corrupt("column type");
      const auto type = static_cast<uint8_t>(src[0]);
      src.remove_prefix(1);
      if (type > static_cast<uint8_t>(rel::ValueType::kString)) {
        return Corrupt("unknown column type");
      }
      columns.push_back(rel::Column{std::string(column_name),
                                    static_cast<rel::ValueType>(type)});
    }
    uint64_t pk_index = 0;
    if (!GetVarint64(&src, &pk_index)) return Corrupt("pk index");
    if (pk_index >= columns.size()) return Corrupt("pk index out of range");
    const std::string pk_column = columns[pk_index].name;
    TXREP_ASSIGN_OR_RETURN(
        rel::TableSchema schema,
        rel::TableSchema::Create(std::string(name), columns, pk_column));
    uint64_t num_hash = 0;
    if (!GetVarint64(&src, &num_hash)) return Corrupt("hash index count");
    for (uint64_t i = 0; i < num_hash; ++i) {
      uint64_t column = 0;
      if (!GetVarint64(&src, &column)) return Corrupt("hash index column");
      if (column >= columns.size()) return Corrupt("hash index out of range");
      TXREP_RETURN_IF_ERROR(schema.AddHashIndex(columns[column].name));
    }
    uint64_t num_range = 0;
    if (!GetVarint64(&src, &num_range)) return Corrupt("range index count");
    for (uint64_t i = 0; i < num_range; ++i) {
      uint64_t column = 0;
      if (!GetVarint64(&src, &column)) return Corrupt("range index column");
      if (column >= columns.size()) return Corrupt("range index out of range");
      TXREP_RETURN_IF_ERROR(schema.AddRangeIndex(columns[column].name));
    }
    TXREP_RETURN_IF_ERROR(catalog.AddTable(std::move(schema)));
  }
  if (!src.empty()) return Corrupt("trailing bytes");
  return catalog;
}

}  // namespace txrep::codec
