#include "src/storage/wal/wal.h"

#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "src/storage/codec.h"
#include "src/storage/engine.h"

namespace mtdb {

namespace {

// The record payload inside each frame (u32 length | payload):
//
//   payload         := u8 type | body
//   kCreateDatabase := str database
//   kCreateTable    := str database | schema
//   kCreateIndex    := str database | str table | str index | str column
//   kDropDatabase   := str database
//   kDropTable      := str database | str table
//   row ops         := u64 txn | str database | str table | value pk | row
//   decisions       := u64 txn
//
// with the field encodings of storage/codec.h.

bool IsRowOp(WalRecordType type) {
  return type == WalRecordType::kInsert || type == WalRecordType::kUpdate ||
         type == WalRecordType::kDelete;
}

void AppendRowOpBody(std::string* out, uint64_t txn_id,
                     const std::string& database, const std::string& table,
                     const Value& primary_key, const Row& row) {
  codec::AppendU64(out, txn_id);
  codec::AppendString(out, database);
  codec::AppendString(out, table);
  primary_key.EncodeTo(out);
  codec::AppendRow(out, row);
}

void AppendPayload(std::string* out, const WalRecord& record) {
  codec::AppendU8(out, static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kCreateDatabase:
    case WalRecordType::kDropDatabase:
      codec::AppendString(out, record.database);
      break;
    case WalRecordType::kDropTable:
      codec::AppendString(out, record.database);
      codec::AppendString(out, record.table);
      break;
    case WalRecordType::kCreateTable:
      codec::AppendString(out, record.database);
      codec::AppendSchema(out, record.schema);
      break;
    case WalRecordType::kCreateIndex:
      codec::AppendString(out, record.database);
      codec::AppendString(out, record.table);
      codec::AppendString(out, record.index_name);
      codec::AppendString(out, record.column_name);
      break;
    case WalRecordType::kInsert:
    case WalRecordType::kUpdate:
    case WalRecordType::kDelete:
      AppendRowOpBody(out, record.txn_id, record.database, record.table,
                      record.primary_key, record.row);
      break;
    case WalRecordType::kPrepare:
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
      codec::AppendU64(out, record.txn_id);
      break;
  }
}

Result<WalRecord> DecodeRecord(std::string_view payload) {
  codec::Cursor in(payload);
  const uint8_t type = in.ReadU8();
  if (type > static_cast<uint8_t>(WalRecordType::kDropTable)) {
    return Status::InvalidArgument("unknown WAL record type " +
                                   std::to_string(type));
  }
  WalRecord record;
  record.type = static_cast<WalRecordType>(type);
  switch (record.type) {
    case WalRecordType::kCreateDatabase:
    case WalRecordType::kDropDatabase:
      record.database = in.ReadString();
      break;
    case WalRecordType::kDropTable:
      record.database = in.ReadString();
      record.table = in.ReadString();
      break;
    case WalRecordType::kCreateTable:
      record.database = in.ReadString();
      record.schema = codec::ReadSchema(&in);
      if (record.schema.primary_key_index() < 0 ||
          record.schema.primary_key_index() >=
              static_cast<int>(record.schema.num_columns())) {
        return Status::InvalidArgument("WAL schema has no primary key");
      }
      break;
    case WalRecordType::kCreateIndex:
      record.database = in.ReadString();
      record.table = in.ReadString();
      record.index_name = in.ReadString();
      record.column_name = in.ReadString();
      break;
    case WalRecordType::kInsert:
    case WalRecordType::kUpdate:
    case WalRecordType::kDelete:
      record.txn_id = in.ReadU64();
      record.database = in.ReadString();
      record.table = in.ReadString();
      record.primary_key = in.ReadValue();
      record.row = codec::ReadRow(&in);
      break;
    case WalRecordType::kPrepare:
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
      record.txn_id = in.ReadU64();
      break;
  }
  if (!in.ok()) return Status::InvalidArgument("truncated WAL record");
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after WAL record");
  }
  return record;
}

// The one log-file reader behind ReadAll, Recover and the delta read (frame
// policy on ReadAll in wal.h). When `payloads` is non-null it receives each
// record's encoded payload, index-aligned with the result.
Result<std::vector<WalRecord>> ReadFrames(const std::string& path,
                                          std::vector<std::string>* payloads) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("WAL file " + path);
  }
  std::string bytes;
  char buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(file);

  std::vector<WalRecord> records;
  std::string_view rest = bytes;
  size_t frame_size = 0;
  while (auto payload = codec::SplitFrame(rest, &frame_size)) {
    auto record = DecodeRecord(*payload);
    if (!record.ok()) {
      return Status::InvalidArgument(
          "WAL " + path + " record " + std::to_string(records.size() + 1) +
          ": " + record.status().message());
    }
    records.push_back(*std::move(record));
    if (payloads != nullptr) payloads->emplace_back(*payload);
    rest.remove_prefix(frame_size);
  }
  return records;
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::unique_ptr<wal::LogWriter> writer)
    : writer_(std::move(writer)) {}

WriteAheadLog::~WriteAheadLog() = default;

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, wal::LogWriterOptions options) {
  MTDB_ASSIGN_OR_RETURN(std::unique_ptr<wal::LogWriter> writer,
                        wal::LogWriter::Open(path, std::move(options)));
  return std::unique_ptr<WriteAheadLog>(new WriteAheadLog(std::move(writer)));
}

Status WriteAheadLog::AppendDdl(const WalRecord& record) {
  std::string frame;
  const size_t start = codec::BeginFrame(&frame);
  AppendPayload(&frame, record);
  codec::EndFrame(&frame, start);
  MTDB_ASSIGN_OR_RETURN(uint64_t lsn, writer_->Append(std::move(frame)));
  (void)lsn;
  // DDL is rare and structural: always durable before returning.
  return writer_->SyncAll();
}

Status WriteAheadLog::AppendRowOp(WalRecordType type, uint64_t txn_id,
                                  const std::string& database,
                                  const std::string& table,
                                  const Value& primary_key, const Row& row) {
  // Sized exactly up front: the log thread frees the record, and an
  // allocation grown by doubling measurably slowed bulk loads.
  size_t size = codec::kFrameHeaderBytes + 1 + 8 + 4 + database.size() + 4 +
                table.size() + primary_key.EncodedSize() + 4;
  for (const Value& value : row) size += value.EncodedSize();
  std::string frame;
  frame.reserve(size);
  const size_t start = codec::BeginFrame(&frame);
  codec::AppendU8(&frame, static_cast<uint8_t>(type));
  AppendRowOpBody(&frame, txn_id, database, table, primary_key, row);
  codec::EndFrame(&frame, start);
  // Enqueue only: the decision record appended after this one has a higher
  // LSN, so awaiting the decision covers every row image of the txn.
  MTDB_ASSIGN_OR_RETURN(uint64_t lsn, writer_->Append(std::move(frame)));
  (void)lsn;
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::AppendDecisionAsync(WalRecordType type,
                                                    uint64_t txn_id) {
  std::string frame;
  const size_t start = codec::BeginFrame(&frame);
  codec::AppendU8(&frame, static_cast<uint8_t>(type));
  codec::AppendU64(&frame, txn_id);
  codec::EndFrame(&frame, start);
  return writer_->Append(std::move(frame));
}

Status WriteAheadLog::AwaitDurable(uint64_t lsn) {
  return writer_->AwaitDurable(lsn);
}

Status WriteAheadLog::Sync() { return writer_->SyncAll(); }

Result<std::vector<WalRecord>> WriteAheadLog::ReadAll(
    const std::string& path) {
  return ReadFrames(path, nullptr);
}

Result<std::vector<std::string>> WriteAheadLog::ReadCommittedDeltaSince(
    const std::string& path, const std::string& database, uint64_t after_lsn,
    uint64_t* frontier) {
  std::vector<std::string> payloads;
  MTDB_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                        ReadFrames(path, &payloads));
  *frontier = static_cast<uint64_t>(records.size());
  std::map<uint64_t, uint64_t> commit_lsn;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].type == WalRecordType::kCommit) {
      commit_lsn[records[i].txn_id] = i + 1;
    }
  }
  std::vector<std::string> delta;
  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& record = records[i];
    uint64_t lsn = i + 1;
    switch (record.type) {
      case WalRecordType::kCreateDatabase:
      case WalRecordType::kCreateTable:
      case WalRecordType::kCreateIndex:
      case WalRecordType::kDropDatabase:
      case WalRecordType::kDropTable:
        // DDL is decision-free (synced immediately): keyed on its own LSN.
        if (record.database == database && lsn > after_lsn) {
          delta.push_back(std::move(payloads[i]));
        }
        break;
      case WalRecordType::kInsert:
      case WalRecordType::kUpdate:
      case WalRecordType::kDelete: {
        if (record.database != database) break;
        if (record.txn_id == 0) {
          // Pseudo-transaction 0 (bulk loads, replayed copies and deltas):
          // implicitly committed at append.
          if (lsn > after_lsn) delta.push_back(std::move(payloads[i]));
          break;
        }
        // Keyed on the transaction's COMMIT LSN: a transaction that was in
        // flight at the previous round's frontier had its op records below
        // the cursor, but its commit lands above it, so this round ships
        // the whole transaction exactly once.
        auto it = commit_lsn.find(record.txn_id);
        if (it != commit_lsn.end() && it->second > after_lsn) {
          delta.push_back(std::move(payloads[i]));
        }
        break;
      }
      case WalRecordType::kPrepare:
      case WalRecordType::kCommit:
      case WalRecordType::kAbort:
        // Decisions never ship: the commit filter has already applied them,
        // so the target replays the delta unconditionally in log order.
        break;
    }
  }
  return delta;
}

std::string WriteAheadLog::EncodeRecord(const WalRecord& record) {
  std::string payload;
  AppendPayload(&payload, record);
  return payload;
}

Status WriteAheadLog::Replay(const std::vector<WalRecord>& records,
                             Engine* engine) {
  for (const WalRecord& record : records) {
    Status status;
    // The state the record leads to may already hold: an object a
    // migration's bulk copy created, or one a drop already removed.
    StatusCode already = StatusCode::kAlreadyExists;
    switch (record.type) {
      case WalRecordType::kCreateDatabase:
        status = engine->CreateDatabase(record.database);
        break;
      case WalRecordType::kCreateTable:
        status = engine->CreateTable(record.database, record.schema);
        break;
      case WalRecordType::kCreateIndex:
        status = engine->CreateIndex(record.database, record.table,
                                     record.index_name, record.column_name);
        break;
      case WalRecordType::kInsert:
      case WalRecordType::kUpdate:
      case WalRecordType::kDelete:
        status = engine->ApplyRedoRow(record.database, record.table,
                                      record.type, record.primary_key,
                                      record.row);
        break;
      case WalRecordType::kDropDatabase:
        status = engine->DropDatabase(record.database);
        already = StatusCode::kNotFound;
        break;
      case WalRecordType::kDropTable:
        status = engine->DropTable(record.database, record.table);
        already = StatusCode::kNotFound;
        break;
      case WalRecordType::kPrepare:
      case WalRecordType::kCommit:
      case WalRecordType::kAbort:
        break;
    }
    if (!status.ok() && status.code() != already) return status;
  }
  // ApplyRedoRow only enqueued the row images: one barrier covers the run.
  return engine->wal() != nullptr ? engine->wal()->Sync() : Status::OK();
}

Status WriteAheadLog::ReplayEncoded(const std::vector<std::string>& encoded,
                                    Engine* engine) {
  std::vector<WalRecord> records;
  records.reserve(encoded.size());
  for (const std::string& payload : encoded) {
    MTDB_ASSIGN_OR_RETURN(WalRecord record, DecodeRecord(payload));
    records.push_back(std::move(record));
  }
  return Replay(records, engine);
}

Status WriteAheadLog::Recover(const std::string& path, Engine* engine) {
  MTDB_ASSIGN_OR_RETURN(std::vector<WalRecord> records, ReadAll(path));
  // Winners: transactions with a COMMIT record. A PREPARE without a later
  // COMMIT is a loser (the coordinator never decided commit). Transaction
  // id 0 — bulk loads and replayed row images (copies, deltas) — is always
  // a winner.
  std::map<uint64_t, bool> committed;
  committed[0] = true;
  for (const WalRecord& record : records) {
    if (record.type == WalRecordType::kCommit) {
      committed[record.txn_id] = true;
    } else if (record.type == WalRecordType::kAbort) {
      committed[record.txn_id] = false;
    }
  }
  std::erase_if(records, [&committed](const WalRecord& record) {
    if (!IsRowOp(record.type)) return false;
    auto it = committed.find(record.txn_id);
    return it == committed.end() || !it->second;
  });
  return Replay(records, engine);
}

}  // namespace mtdb
