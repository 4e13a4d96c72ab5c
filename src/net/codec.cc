#include "src/net/codec.h"

#include "src/obs/metrics.h"
#include "src/storage/codec.h"

namespace mtdb::net {

namespace {

// Payload tags distinguishing the two message directions.
constexpr uint8_t kRequestTag = 0xA1;
constexpr uint8_t kResponseTag = 0xA2;

// Bits of the request flags byte.
constexpr uint8_t kFlagReadOnly = 0x01;
constexpr uint8_t kFlagBegin = 0x02;
constexpr uint8_t kKnownFlags = kFlagReadOnly | kFlagBegin;

using codec::AppendRow;
using codec::AppendString;
using codec::AppendU32;
using codec::AppendU64;
using codec::AppendU8;
using codec::Cursor;
using codec::ReadRow;

void AppendQueryResult(std::string* out, const sql::QueryResult& result) {
  AppendU32(out, static_cast<uint32_t>(result.columns.size()));
  for (const std::string& c : result.columns) AppendString(out, c);
  AppendU32(out, static_cast<uint32_t>(result.rows.size()));
  for (const Row& row : result.rows) AppendRow(out, row);
  AppendU64(out, static_cast<uint64_t>(result.affected_rows));
}

sql::QueryResult ReadQueryResult(Cursor* in) {
  sql::QueryResult result;
  uint32_t columns = in->ReadCount();
  result.columns.reserve(columns);
  for (uint32_t i = 0; i < columns && in->ok(); ++i) {
    result.columns.push_back(in->ReadString());
  }
  uint32_t rows = in->ReadCount();
  result.rows.reserve(rows);
  for (uint32_t i = 0; i < rows && in->ok(); ++i) {
    result.rows.push_back(ReadRow(in));
  }
  result.affected_rows = static_cast<int64_t>(in->ReadU64());
  return result;
}

}  // namespace

std::string_view RpcTypeName(RpcType type) {
  switch (type) {
    case RpcType::kHealth: return "Health";
    case RpcType::kBegin: return "Begin";
    case RpcType::kPrepare: return "Prepare";
    case RpcType::kCommit: return "Commit";
    case RpcType::kCommitPrepared: return "CommitPrepared";
    case RpcType::kAbort: return "Abort";
    case RpcType::kCreateDatabase: return "CreateDatabase";
    case RpcType::kDropDatabase: return "DropDatabase";
    case RpcType::kHasDatabase: return "HasDatabase";
    case RpcType::kExecuteDdl: return "ExecuteDdl";
    case RpcType::kBulkLoad: return "BulkLoad";
    case RpcType::kDumpTable: return "DumpTable";
    case RpcType::kListPrepared: return "ListPrepared";
    case RpcType::kListActive: return "ListActive";
    case RpcType::kListTables: return "ListTables";
    case RpcType::kPrepareStatement: return "PrepareStatement";
    case RpcType::kExecutePrepared: return "ExecutePrepared";
    case RpcType::kStats: return "Stats";
    case RpcType::kSetQuota: return "SetQuota";
    case RpcType::kWalDeltaRead: return "WalDeltaRead";
    case RpcType::kWalDeltaApply: return "WalDeltaApply";
  }
  return "?";
}

namespace {

constexpr int kNumRpcTypes = static_cast<int>(RpcType::kWalDeltaApply) + 1;

// Per-type request byte counters, resolved once. Encoding is the one place
// that sees every outbound request regardless of transport.
obs::Counter* RequestBytesCounter(RpcType type) {
  static obs::Counter** counters = [] {
    auto** array = new obs::Counter*[kNumRpcTypes]();
    for (int i = 1; i < kNumRpcTypes; ++i) {
      std::string_view name = RpcTypeName(static_cast<RpcType>(i));
      if (name == "?") continue;
      array[i] = obs::MetricsRegistry::Global().GetCounter(
          "mtdb_rpc_request_bytes_total", {.operation = std::string(name)});
    }
    return array;
  }();
  int index = static_cast<int>(type);
  return index > 0 && index < kNumRpcTypes ? counters[index] : nullptr;
}

obs::Counter* ResponseBytesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "mtdb_rpc_response_bytes_total", {});
  return counter;
}

}  // namespace

void EncodeRequestFrame(const RpcRequest& request, std::string* out) {
  const size_t frame_start = codec::BeginFrame(out);
  AppendU8(out, kRequestTag);
  AppendU8(out, static_cast<uint8_t>(request.type));
  AppendU64(out, request.txn_id);
  AppendString(out, request.db_name);
  AppendString(out, request.table);
  AppendString(out, request.sql);
  AppendU32(out, static_cast<uint32_t>(request.params.size()));
  for (const Value& v : request.params) v.EncodeTo(out);
  AppendU32(out, static_cast<uint32_t>(request.rows.size()));
  for (const Row& row : request.rows) AppendRow(out, row);
  AppendU64(out, static_cast<uint64_t>(request.per_row_delay_us));
  AppendU64(out, static_cast<uint64_t>(request.debug_delay_us));
  AppendU64(out, request.trace_id);
  AppendU8(out, (request.read_only ? kFlagReadOnly : 0) |
                    (request.begin ? kFlagBegin : 0));
  AppendU64(out, request.wal_cursor);
  AppendU32(out, static_cast<uint32_t>(request.lines.size()));
  for (const std::string& line : request.lines) AppendString(out, line);
  const uint32_t payload = codec::EndFrame(out, frame_start);
  obs::Increment(RequestBytesCounter(request.type),
                 static_cast<int64_t>(payload) + 4);
}

void EncodeResponseFrame(const RpcResponse& response, std::string* out) {
  const size_t frame_start = codec::BeginFrame(out);
  AppendU8(out, kResponseTag);
  AppendU8(out, static_cast<uint8_t>(response.code));
  AppendString(out, response.message);
  AppendQueryResult(out, response.result);
  AppendU32(out, static_cast<uint32_t>(response.txn_ids.size()));
  for (uint64_t id : response.txn_ids) AppendU64(out, id);
  AppendU32(out, static_cast<uint32_t>(response.names.size()));
  for (const std::string& name : response.names) AppendString(out, name);
  AppendU64(out, static_cast<uint64_t>(response.server_duration_us));
  AppendU64(out, static_cast<uint64_t>(response.retry_after_us));
  AppendU64(out, response.snapshot_ts);
  AppendU64(out, response.wal_lsn);
  const uint32_t payload = codec::EndFrame(out, frame_start);
  obs::Increment(ResponseBytesCounter(), static_cast<int64_t>(payload) + 4);
}

std::optional<std::string_view> ExtractFrame(std::string_view buffer,
                                             size_t* frame_size,
                                             Status* error) {
  *error = Status::OK();
  if (buffer.size() < codec::kFrameHeaderBytes) return std::nullopt;
  uint32_t len = codec::LoadU32(buffer.data());
  if (len > kMaxFrameBytes) {
    *error = Status::InvalidArgument("frame length " + std::to_string(len) +
                                     " exceeds limit");
    return std::nullopt;
  }
  return codec::SplitFrame(buffer, frame_size);
}

Result<RpcRequest> DecodeRequest(std::string_view payload) {
  Cursor in(payload);
  if (in.ReadU8() != kRequestTag) {
    return Status::InvalidArgument("not a request frame");
  }
  RpcRequest request;
  uint8_t type = in.ReadU8();
  if (RpcTypeName(static_cast<RpcType>(type)) == "?") {
    return Status::InvalidArgument("unknown request type " +
                                   std::to_string(type));
  }
  request.type = static_cast<RpcType>(type);
  request.txn_id = in.ReadU64();
  request.db_name = in.ReadString();
  request.table = in.ReadString();
  request.sql = in.ReadString();
  uint32_t params = in.ReadCount();
  request.params.reserve(params);
  for (uint32_t i = 0; i < params && in.ok(); ++i) {
    request.params.push_back(in.ReadValue());
  }
  uint32_t rows = in.ReadCount();
  request.rows.reserve(rows);
  for (uint32_t i = 0; i < rows && in.ok(); ++i) {
    request.rows.push_back(ReadRow(&in));
  }
  request.per_row_delay_us = static_cast<int64_t>(in.ReadU64());
  request.debug_delay_us = static_cast<int64_t>(in.ReadU64());
  request.trace_id = in.ReadU64();
  uint8_t flags = in.ReadU8();
  if ((flags & ~kKnownFlags) != 0) {
    return Status::InvalidArgument("unknown request flags " +
                                   std::to_string(flags));
  }
  request.read_only = (flags & kFlagReadOnly) != 0;
  request.begin = (flags & kFlagBegin) != 0;
  request.wal_cursor = in.ReadU64();
  uint32_t lines = in.ReadCount();
  request.lines.reserve(lines);
  for (uint32_t i = 0; i < lines && in.ok(); ++i) {
    request.lines.push_back(in.ReadString());
  }
  if (!in.ok()) return Status::InvalidArgument("truncated request frame");
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after request frame");
  }
  return request;
}

Result<RpcResponse> DecodeResponse(std::string_view payload) {
  Cursor in(payload);
  if (in.ReadU8() != kResponseTag) {
    return Status::InvalidArgument("not a response frame");
  }
  RpcResponse response;
  uint8_t code = in.ReadU8();
  if (code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code));
  }
  response.code = static_cast<StatusCode>(code);
  response.message = in.ReadString();
  response.result = ReadQueryResult(&in);
  uint32_t txns = in.ReadCount();
  response.txn_ids.reserve(txns);
  for (uint32_t i = 0; i < txns && in.ok(); ++i) {
    response.txn_ids.push_back(in.ReadU64());
  }
  uint32_t names = in.ReadCount();
  response.names.reserve(names);
  for (uint32_t i = 0; i < names && in.ok(); ++i) {
    response.names.push_back(in.ReadString());
  }
  response.server_duration_us = static_cast<int64_t>(in.ReadU64());
  response.retry_after_us = static_cast<int64_t>(in.ReadU64());
  response.snapshot_ts = in.ReadU64();
  response.wal_lsn = in.ReadU64();
  if (!in.ok()) return Status::InvalidArgument("truncated response frame");
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after response frame");
  }
  return response;
}

}  // namespace mtdb::net
