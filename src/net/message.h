#ifndef MTDB_NET_MESSAGE_H_
#define MTDB_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/sql/query_result.h"
#include "src/storage/value.h"

namespace mtdb::net {

// Every controller->machine interaction, as a message type. Transactional
// requests (kBegin..kAbort) ride a per-session ordered channel; the rest are
// control-plane requests issued outside client transactions.
enum class RpcType : uint8_t {
  kHealth = 1,         // liveness probe
  kBegin = 2,          // start engine-side transaction txn_id
  // 3 is retired; the codec rejects it.
  kPrepare = 4,        // 2PC phase 1 (the vote is the response Status)
  kCommit = 5,         // one-phase commit (read-only / single participant)
  kCommitPrepared = 6, // 2PC phase 2
  kAbort = 7,
  kCreateDatabase = 8,
  kDropDatabase = 9,
  kHasDatabase = 10,   // catalog probe (recovery target selection)
  kExecuteDdl = 11,    // DDL statement, run outside client transactions
  kBulkLoad = 12,      // non-transactional bulk insert (setup / data gen)
  kDumpTable = 13,     // copy tool: one table ("*" = all) as WAL records
  // 14 and 15 are retired; the codec rejects them.
  kListPrepared = 16,  // prepared txn ids (process-pair takeover)
  kListActive = 17,    // active txn ids (process-pair takeover)
  kListTables = 18,    // table names of one database (recovery work list)
  // Nothing sends 19, which machines refuse; 19 and 20 keep their names
  // because per-type metrics are reported under them.
  kPrepareStatement = 19,
  kExecutePrepared = 20,   // run one SQL statement (text + '?' params)
  kStats = 21,             // metrics dump (text exposition in the message)
  kSetQuota = 22,          // install a QoS quota for db_name on the machine
  kWalDeltaRead = 23,      // live migration: committed WAL delta since cursor
  kWalDeltaApply = 24,     // replay WAL records: a copy or a migration delta
};

// "?" for a number no type is assigned to.
std::string_view RpcTypeName(RpcType type);

// A decoded request. One struct covers every RpcType; unused fields stay at
// their defaults and encode to nothing beyond their presence tags.
struct RpcRequest {
  RpcType type = RpcType::kHealth;
  uint64_t txn_id = 0;            // transactional ops, kDumpTable (dump txn)
  std::string db_name;            // everything except kHealth/kList*
  std::string table;              // kBulkLoad / kDumpTable
  std::string sql;                // kExecutePrepared / kExecuteDdl
  // kExecutePrepared ('?' binding); kSetQuota carries the quota triple
  // [rate_tps (double), burst (double), weight (int)] here.
  std::vector<Value> params;
  std::vector<Row> rows;          // kBulkLoad
  int64_t per_row_delay_us = 0;   // kDumpTable copy-cost model
  // Test instrumentation: extra service delay applied before execution (the
  // controller's latency injector rides the wire so fault schedules stay
  // deterministic across transports).
  int64_t debug_delay_us = 0;
  // Distributed-tracing correlation id minted by the issuing Connection;
  // 0 means "not part of a traced transaction".
  uint64_t trace_id = 0;
  // kBegin: start the transaction in read-only snapshot mode — reads come
  // from the MVCC snapshot without lock-manager traffic, writes are
  // rejected. Always on the wire; old-format frames fail decoding.
  bool read_only = false;
  // kExecutePrepared: begin txn_id (in read_only mode) before
  // running the statement — a Begin piggybacked on the first read to a
  // machine, QoS admission included. Rides the read_only byte as a flag
  // bit; a frame with any other bit set fails decoding.
  bool begin = false;
  // kWalDeltaRead: ship committed records for db_name past this source-WAL
  // frontier (LSN). UINT64_MAX is a capability probe: no records, frontier
  // only. Always on the wire, like read_only.
  uint64_t wal_cursor = 0;
  // kWalDeltaApply: encoded WAL records to replay (as returned by
  // kDumpTable or kWalDeltaRead), one opaque byte string each.
  std::vector<std::string> lines;
};

// A decoded response. `code`/`message` carry the operation Status; payload
// fields are filled per request type.
struct RpcResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  sql::QueryResult result;         // kExecutePrepared / kExecuteDdl
  std::vector<uint64_t> txn_ids;   // kListPrepared / kListActive
  // kListTables; the encoded WAL records of kDumpTable and kWalDeltaRead.
  std::vector<std::string> names;
  // Service time measured machine-side (dispatch entry to reply), echoed to
  // the client so traces can split client-observed latency into transport
  // vs execution. -1 when the server predates the field or never measured.
  int64_t server_duration_us = -1;
  // Backoff hint accompanying a kResourceExhausted code: how long the
  // caller should wait before retrying the same machine, in microseconds.
  // 0 (the default, and the value on every non-throttled response) means
  // "no hint". Always on the wire, like trace_id/server_duration_us.
  int64_t retry_after_us = 0;
  // kBegin (or an execute carrying `begin`) on a read-only transaction: the
  // engine-local MVCC snapshot timestamp assigned to it (0 for read-write
  // begins and every other response). Always on the wire, like
  // retry_after_us.
  uint64_t snapshot_ts = 0;
  // kWalDeltaRead: the source-WAL frontier (LSN of the last complete record)
  // the returned delta catches the caller up to; feed it back as the next
  // round's wal_cursor. 0 elsewhere. Always on the wire, like snapshot_ts.
  uint64_t wal_lsn = 0;

  bool ok() const { return code == StatusCode::kOk; }
  Status ToStatus() const {
    return ok() ? Status::OK() : Status(code, message);
  }
  static RpcResponse FromStatus(const Status& status) {
    RpcResponse response;
    response.code = status.code();
    response.message = status.message();
    return response;
  }
};

}  // namespace mtdb::net

#endif  // MTDB_NET_MESSAGE_H_
