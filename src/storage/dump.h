#ifndef MTDB_STORAGE_DUMP_H_
#define MTDB_STORAGE_DUMP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/storage/engine.h"

namespace mtdb {

// The off-the-shelf database copy tool of Section 3.2 (mysqldump in the
// paper's prototype): copies tables under table-granularity read locks.
//
// The crucial behaviour the correctness argument relies on: the tool obtains
// a read (S) lock on the table, copies the contents, and releases the lock at
// the end of the copy. The copy travels as redo-log records (DumpRecords)
// and is applied by WriteAheadLog::Replay, the routine behind recovery and
// migration deltas, so each copied row gets the target's own version.

struct TableDump {
  TableSchema schema;
  std::vector<std::pair<Row, uint64_t>> rows;  // (values, source version)
};

struct DumpOptions {
  // Artificial per-row copy cost, applied while the read lock is held. Models
  // the paper's observed ~2 minutes per 200 MB; scaled down in experiments.
  int64_t per_row_delay_us = 0;
};

// Copies a single table. Runs as its own read-only transaction `dump_txn_id`
// (must be fresh): Begin -> S lock -> snapshot -> Commit (releasing the lock).
Result<TableDump> DumpTable(Engine* source, const std::string& db_name,
                            const std::string& table_name,
                            uint64_t dump_txn_id,
                            const DumpOptions& options = {});

// Copies an entire database while holding S locks on *all* its tables for the
// whole duration (database-granularity copying — the low-concurrency variant
// compared in Figures 8/9). One dump per table, in name order.
Result<std::vector<TableDump>> DumpDatabaseCoarse(
    Engine* source, const std::string& db_name, uint64_t dump_txn_id,
    const DumpOptions& options = {});

// The copy tool's output as encoded WAL records (WriteAheadLog::EncodeRecord):
// for each table, its CREATE TABLE record (the schema carries its indexes)
// and one pseudo-transaction-0 INSERT per row. `table_name` "*" dumps every
// table under DumpDatabaseCoarse's locks, any other name just that table
// under DumpTable's. The target needs the database and replays the records
// with WriteAheadLog::Replay.
Result<std::vector<std::string>> DumpRecords(Engine* source,
                                             const std::string& db_name,
                                             const std::string& table_name,
                                             uint64_t dump_txn_id,
                                             const DumpOptions& options = {});

}  // namespace mtdb

#endif  // MTDB_STORAGE_DUMP_H_
