#include "src/storage/value.h"

#include <cstring>
#include <sstream>

#include "src/storage/codec.h"

namespace mtdb {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "INT";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kString:
      return "VARCHAR";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  // Rank: null=0, numeric=1, string=2.
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  int ra = rank(*this);
  int rb = rank(other);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) return 0;
  if (ra == 1) {
    // Compare exactly when both ints to avoid precision loss.
    if (is_int() && other.is_int()) {
      int64_t a = AsInt();
      int64_t b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  int cmp = AsString().compare(other.AsString());
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    std::ostringstream out;
    out << std::get<double>(data_);
    return out.str();
  }
  std::string out = "'";
  for (char c : AsString()) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  out += "'";
  return out;
}

std::string Value::ToDisplayString() const {
  if (is_string()) return AsString();
  return ToString();
}

size_t Value::ByteSize() const {
  if (is_null()) return 1;
  if (is_string()) return AsString().size() + sizeof(std::string);
  return 8;
}

std::string Value::LockKey() const {
  if (is_null()) return "~null";
  if (is_int()) return "i" + std::to_string(AsInt());
  if (is_double()) return "d" + std::to_string(std::get<double>(data_));
  return "s" + AsString();
}

namespace {

// Wire tags. Values are stable on the wire; append-only.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

}  // namespace

void Value::EncodeTo(std::string* out) const {
  if (is_null()) {
    codec::AppendU8(out, kTagNull);
  } else if (is_int()) {
    codec::AppendU8(out, kTagInt64);
    codec::AppendU64(out, static_cast<uint64_t>(AsInt()));
  } else if (is_double()) {
    codec::AppendU8(out, kTagDouble);
    uint64_t bits;
    double d = std::get<double>(data_);
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    codec::AppendU64(out, bits);
  } else {
    codec::AppendU8(out, kTagString);
    codec::AppendString(out, AsString());
  }
}

size_t Value::EncodedSize() const {
  if (is_null()) return 1;
  if (is_string()) return 5 + AsString().size();
  return 9;
}

Result<Value> Value::DecodeFrom(std::string_view* data) {
  codec::Cursor in(*data);
  const uint8_t tag = in.ReadU8();
  Value value;
  switch (tag) {
    case kTagNull:
      break;
    case kTagInt64:
      value.data_.emplace<int64_t>(static_cast<int64_t>(in.ReadU64()));
      break;
    case kTagDouble: {
      uint64_t bits = in.ReadU64();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      value.data_.emplace<double>(d);
      break;
    }
    case kTagString:
      value.data_.emplace<std::string>(in.ReadString());
      break;
    default:
      return Status::InvalidArgument("unknown value tag " +
                                     std::to_string(tag));
  }
  if (!in.ok()) return Status::InvalidArgument("truncated value");
  *data = in.rest();
  return value;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace mtdb
