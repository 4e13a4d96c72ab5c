#include "src/storage/dump.h"

#include <chrono>
#include <thread>
#include <utility>

namespace mtdb {

namespace {

// Snapshot of one table's rows; caller must already hold the S lock.
TableDump SnapshotTable(Engine* source, const std::string& db_name,
                        const std::string& table_name,
                        const DumpOptions& options) {
  Table* table = source->GetDatabase(db_name)->GetTable(table_name);
  TableDump dump;
  dump.schema = table->schema();
  for (auto& [pk, stored] : table->ScanAll()) {
    (void)pk;
    dump.rows.emplace_back(std::move(stored.values), stored.version);
    if (options.per_row_delay_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options.per_row_delay_us));
    }
  }
  return dump;
}

}  // namespace

Result<TableDump> DumpTable(Engine* source, const std::string& db_name,
                            const std::string& table_name,
                            uint64_t dump_txn_id, const DumpOptions& options) {
  MTDB_RETURN_IF_ERROR(source->Begin(dump_txn_id));
  Status lock_status = source->LockTableShared(dump_txn_id, db_name, table_name);
  if (!lock_status.ok()) {
    (void)source->Abort(dump_txn_id);
    return lock_status;
  }
  TableDump dump = SnapshotTable(source, db_name, table_name, options);
  MTDB_RETURN_IF_ERROR(source->Commit(dump_txn_id));
  return dump;
}

Result<std::vector<TableDump>> DumpDatabaseCoarse(
    Engine* source, const std::string& db_name, uint64_t dump_txn_id,
    const DumpOptions& options) {
  Database* db = source->GetDatabase(db_name);
  if (db == nullptr) return Status::NotFound("database " + db_name);
  MTDB_RETURN_IF_ERROR(source->Begin(dump_txn_id));
  // Acquire S locks on every table up front; hold them all until done.
  for (const std::string& table_name : db->TableNames()) {
    Status lock_status =
        source->LockTableShared(dump_txn_id, db_name, table_name);
    if (!lock_status.ok()) {
      (void)source->Abort(dump_txn_id);
      return lock_status;
    }
  }
  std::vector<TableDump> dumps;
  for (const std::string& table_name : db->TableNames()) {
    dumps.push_back(SnapshotTable(source, db_name, table_name, options));
  }
  MTDB_RETURN_IF_ERROR(source->Commit(dump_txn_id));
  return dumps;
}

Result<std::vector<std::string>> DumpRecords(Engine* source,
                                             const std::string& db_name,
                                             const std::string& table_name,
                                             uint64_t dump_txn_id,
                                             const DumpOptions& options) {
  std::vector<TableDump> dumps;
  if (table_name == "*") {
    MTDB_ASSIGN_OR_RETURN(
        dumps, DumpDatabaseCoarse(source, db_name, dump_txn_id, options));
  } else {
    MTDB_ASSIGN_OR_RETURN(
        TableDump dump,
        DumpTable(source, db_name, table_name, dump_txn_id, options));
    dumps.push_back(std::move(dump));
  }
  std::vector<std::string> records;
  for (TableDump& dump : dumps) {
    const std::string table = dump.schema.name();
    const int pk = dump.schema.primary_key_index();
    records.push_back(WriteAheadLog::EncodeRecord(
        {.type = WalRecordType::kCreateTable,
         .database = db_name,
         .schema = std::move(dump.schema)}));
    // The source versions stay behind: the target assigns its own.
    for (auto& [row, version] : dump.rows) {
      (void)version;
      records.push_back(WriteAheadLog::EncodeRecord(
          {.type = WalRecordType::kInsert,
           .txn_id = 0,
           .database = db_name,
           .table = table,
           .primary_key = row[pk],
           .row = std::move(row)}));
    }
  }
  return records;
}

}  // namespace mtdb
