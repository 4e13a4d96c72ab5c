#ifndef MTDB_STORAGE_WAL_WAL_H_
#define MTDB_STORAGE_WAL_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/storage/schema.h"
#include "src/storage/value.h"
#include "src/storage/wal/log_writer.h"

namespace mtdb {

class Engine;

// Record kinds in the redo log.
enum class WalRecordType {
  kCreateDatabase,
  kCreateTable,
  kCreateIndex,
  kInsert,
  kUpdate,
  kDelete,
  kPrepare,
  kCommit,
  kAbort,
  kDropDatabase,
  kDropTable,
};

// One log record. Field usage depends on the type. (Members without another
// initializer are braced so designated initializers may omit them under
// -Wextra.)
struct WalRecord {
  WalRecordType type = WalRecordType::kCommit;
  uint64_t txn_id = 0;        // row ops, prepare, commit, abort
  std::string database{};     // DDL, row ops
  std::string table{};        // kCreateIndex, kDropTable, row ops
  TableSchema schema{};       // kCreateTable
  std::string index_name{};   // kCreateIndex
  std::string column_name{};  // kCreateIndex
  Value primary_key{};        // row ops
  Row row{};                  // after-image for insert/update
};

// A redo-only write-ahead log. The engine appends row after-images as
// statements execute and a COMMIT record at transaction commit; recovery
// replays the redo of committed transactions in log order, discarding
// losers. (The in-memory tables are the volatile buffer; this log is the
// persistent copy — a no-steal/redo-only regime, so no undo is ever needed
// at recovery time.)
//
// Each record is one frame of the shared binary codec (storage/codec.h),
// u32 length | payload, the framing the RPC wire uses; only wal.cc knows the
// payload layout. A record's LSN is its 1-based index in the file.
//
// Durability runs through the wal::LogWriter group-commit pipeline
// (log_writer.h): appends enqueue onto a bounded queue and return an LSN, a
// dedicated log thread coalesces queued records into one write+sync, and
// AwaitDurable(lsn) releases committers in LSN order.
//
// Thread-safe: concurrent appends are serialized by the pipeline's queue;
// record order in the file is LSN order.
class WriteAheadLog {
 public:
  // Opens (appending) or creates the log file and starts the log thread.
  static Result<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& path, wal::LogWriterOptions options = {});
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  const std::string& path() const { return writer_->path(); }

  // DDL is rare and structural: appended and synced before returning,
  // regardless of policy. `record` is a kCreate* or kDrop* record.
  Status AppendDdl(const WalRecord& record);
  // Row after-images are enqueued without waiting; the decision record that
  // follows them (same LSN order) carries their durability.
  Status AppendRowOp(WalRecordType type, uint64_t txn_id,
                     const std::string& database, const std::string& table,
                     const Value& primary_key, const Row& row);

  // Enqueues a PREPARE/COMMIT/ABORT record and returns its LSN without
  // waiting — the caller decides when (and whether) to AwaitDurable, which
  // is what lets Engine::Commit release locks before blocking on the sync.
  Result<uint64_t> AppendDecisionAsync(WalRecordType type, uint64_t txn_id);
  // Blocks until `lsn` (and everything before it) is durable under the
  // configured policy.
  Status AwaitDurable(uint64_t lsn);

  // Full durability barrier: everything appended so far is written+synced.
  Status Sync();

  int64_t records_written() const { return writer_->records_appended(); }

  // The underlying pipeline (sync counters, crash injection for tests).
  wal::LogWriter* writer() { return writer_.get(); }

  // Every record of a log file, in LSN order. Every reader of a log file
  // shares this frame policy: a length prefix that runs past end of file is
  // the torn tail a crash leaves and ends the log, whatever its value; a
  // complete frame that fails to decode is an error.
  static Result<std::vector<WalRecord>> ReadAll(const std::string& path);

  // Live-migration delta read. Returns, in log order, the encoded records a
  // migration target must replay to catch `database` up past the
  // `after_lsn` frontier:
  //   * DDL records (creates and drops) for the database with LSN >
  //     after_lsn, and
  //   * row-op records of transactions whose COMMIT record has LSN >
  //     after_lsn — the op records themselves may be older (a transaction
  //     in flight when the previous round read the log), which is why the
  //     filter keys on the decision LSN, not the op LSN. Pseudo-transaction
  //     0's records (bulk loads and replayed row images, implicitly
  //     committed) key on their own LSN.
  // Aborted and still-undecided transactions are excluded, so the returned
  // records are unconditionally applicable on the target. `frontier`
  // receives the LSN of the last complete record; passing it back as the
  // next round's after_lsn yields disjoint, gap-free rounds. Callers must
  // Sync() the live log first so enqueued records have reached the file.
  static Result<std::vector<std::string>> ReadCommittedDeltaSince(
      const std::string& path, const std::string& database,
      uint64_t after_lsn, uint64_t* frontier);

  // One record's payload, the unframed form ReadCommittedDeltaSince returns
  // and the copy tool's dump records (storage/dump.h) take.
  static std::string EncodeRecord(const WalRecord& record);

  // Applies records in order: DDL through the engine's catalog calls (an
  // object that already exists is kept — a migration's bulk copy may have
  // created it — and a drop of an object already gone is a no-op), row
  // images through Engine::ApplyRedoRow, which validates them against the
  // table's schema. Decision records are skipped: callers
  // pass only the row images of committed transactions. On an engine with
  // a WAL the applied records are logged there (DDL by the catalog calls,
  // row images under pseudo-transaction 0) and synced once at the end, so
  // a copy, a migration delta or a recovery is durable on its target.
  static Status Replay(const std::vector<WalRecord>& records, Engine* engine);
  // Replay of encoded records (a copy's dump records or a migration delta,
  // as they arrive over the wire). Every record is decoded first: if any
  // does not decode, fails with kInvalidArgument and applies nothing.
  static Status ReplayEncoded(const std::vector<std::string>& encoded,
                              Engine* engine);

  // Rebuilds engine state from a log: replays DDL and the row images of
  // committed transactions in log order. The engine must be fresh (no
  // databases).
  static Status Recover(const std::string& path, Engine* engine);

 private:
  explicit WriteAheadLog(std::unique_ptr<wal::LogWriter> writer);

  std::unique_ptr<wal::LogWriter> writer_;
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_WAL_WAL_H_
