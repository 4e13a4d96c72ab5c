#include "src/storage/codec.h"

#include <utility>
#include <vector>

namespace mtdb::codec {

void AppendRow(std::string* out, const Row& row) {
  AppendU32(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) v.EncodeTo(out);
}

void AppendSchema(std::string* out, const TableSchema& schema) {
  AppendString(out, schema.name());
  AppendU32(out, static_cast<uint32_t>(schema.columns().size()));
  for (const Column& c : schema.columns()) {
    AppendString(out, c.name);
    AppendU8(out, static_cast<uint8_t>(c.type));
    AppendU8(out, c.not_null ? 1 : 0);
  }
  AppendU32(out, static_cast<uint32_t>(schema.primary_key_index()));
  AppendU32(out, static_cast<uint32_t>(schema.indexes().size()));
  for (const IndexDef& index : schema.indexes()) {
    AppendString(out, index.name);
    AppendU32(out, static_cast<uint32_t>(index.column_index));
  }
}

size_t BeginFrame(std::string* out) {
  size_t frame_start = out->size();
  AppendU32(out, 0);
  return frame_start;
}

uint32_t EndFrame(std::string* out, size_t frame_start) {
  uint32_t payload =
      static_cast<uint32_t>(out->size() - frame_start - kFrameHeaderBytes);
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    (*out)[frame_start + i] = static_cast<char>((payload >> (8 * i)) & 0xff);
  }
  return payload;
}

std::optional<std::string_view> SplitFrame(std::string_view buffer,
                                           size_t* frame_size) {
  if (buffer.size() < kFrameHeaderBytes) return std::nullopt;
  const size_t len = LoadU32(buffer.data());
  if (buffer.size() - kFrameHeaderBytes < len) return std::nullopt;
  *frame_size = kFrameHeaderBytes + len;
  return buffer.substr(kFrameHeaderBytes, len);
}

Row ReadRow(Cursor* in) {
  Row row;
  uint32_t arity = in->ReadCount();
  row.reserve(arity);
  for (uint32_t i = 0; i < arity && in->ok(); ++i) {
    row.push_back(in->ReadValue());
  }
  return row;
}

TableSchema ReadSchema(Cursor* in) {
  std::string name = in->ReadString();
  uint32_t num_columns = in->ReadCount();
  std::vector<Column> columns;
  columns.reserve(num_columns);
  for (uint32_t i = 0; i < num_columns && in->ok(); ++i) {
    Column c;
    c.name = in->ReadString();
    const uint8_t type = in->ReadU8();
    if (type > static_cast<uint8_t>(ColumnType::kString)) in->Fail();
    c.type = static_cast<ColumnType>(type);
    c.not_null = in->ReadU8() != 0;
    columns.push_back(std::move(c));
  }
  int pk = static_cast<int32_t>(in->ReadU32());
  TableSchema schema(std::move(name), std::move(columns), pk);
  uint32_t num_indexes = in->ReadCount();
  for (uint32_t i = 0; i < num_indexes && in->ok(); ++i) {
    std::string index_name = in->ReadString();
    int column_index = static_cast<int32_t>(in->ReadU32());
    if (column_index < 0 ||
        column_index >= static_cast<int>(schema.columns().size()) ||
        !schema.AddIndex(index_name, schema.columns()[column_index].name)
             .ok()) {
      in->Fail();
    }
  }
  return schema;
}

}  // namespace mtdb::codec
