#ifndef MTDB_STORAGE_CODEC_H_
#define MTDB_STORAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/storage/schema.h"
#include "src/storage/value.h"

// The one binary codec behind both the RPC wire format (net/codec.h) and the
// redo log (wal/wal.h). Integers are fixed-width little-endian; strings and
// repeated fields are u32-count-prefixed; SQL values use the tagged encoding
// of Value::EncodeTo. Both carry their messages in the same frame:
//
//   frame := u32 payload-length (little-endian) | payload
namespace mtdb::codec {

inline constexpr size_t kFrameHeaderBytes = 4;

// The fixed-width writers and the Cursor readers are inline: they sit in
// the per-value loops of every RPC and every log record.
inline void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

inline void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

inline void AppendString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void AppendRow(std::string* out, const Row& row);
void AppendSchema(std::string* out, const TableSchema& schema);

// Starts a frame at the end of *out (a length placeholder) and returns its
// offset; EndFrame patches the length in once the payload is appended and
// returns the payload size.
size_t BeginFrame(std::string* out);
uint32_t EndFrame(std::string* out, size_t frame_start);

// The little-endian u32 at p[0..3], such as a frame header's length.
inline uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

// If `buffer` starts with a complete frame, returns its payload and sets
// *frame_size to the bytes consumed (header + payload); otherwise nullopt.
std::optional<std::string_view> SplitFrame(std::string_view buffer,
                                           size_t* frame_size);

// Bounds-checked reader over an encoded payload. After the first failed read
// every subsequent read fails too, so decoders can read unconditionally and
// check ok() once.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size(); }
  // The bytes not consumed yet.
  std::string_view rest() const { return data_; }
  // Marks the payload malformed, as a failed read would.
  void Fail() { ok_ = false; }

  uint8_t ReadU8() {
    if (!Require(1)) return 0;
    uint8_t v = static_cast<uint8_t>(data_[0]);
    data_.remove_prefix(1);
    return v;
  }

  uint32_t ReadU32() {
    if (!Require(4)) return 0;
    uint32_t v = LoadU32(data_.data());
    data_.remove_prefix(4);
    return v;
  }

  uint64_t ReadU64() {
    if (!Require(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[i])) << (8 * i);
    }
    data_.remove_prefix(8);
    return v;
  }

  std::string ReadString() {
    uint32_t len = ReadU32();
    if (!Require(len)) return {};
    std::string s(data_.substr(0, len));
    data_.remove_prefix(len);
    return s;
  }

  Value ReadValue() {
    if (!ok_) return Value::Null();
    auto value = Value::DecodeFrom(&data_);
    if (!value.ok()) {
      ok_ = false;
      return Value::Null();
    }
    return *std::move(value);
  }

  // Reads a u32 element count, bounded by the bytes actually remaining so a
  // corrupt count cannot trigger a huge allocation (every element encodes to
  // at least one byte).
  uint32_t ReadCount() {
    uint32_t n = ReadU32();
    if (n > remaining()) ok_ = false;
    return ok_ ? n : 0;
  }

 private:
  bool Require(size_t n) {
    if (!ok_ || data_.size() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  bool ok_ = true;
};

Row ReadRow(Cursor* in);
// Fails the cursor on a column type past kString, an index column out of
// range, or an index the schema refuses.
TableSchema ReadSchema(Cursor* in);

}  // namespace mtdb::codec

#endif  // MTDB_STORAGE_CODEC_H_
