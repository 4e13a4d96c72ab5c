#include "src/net/machine_service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "src/cluster/machine.h"
#include "src/common/clock.h"
#include "src/net/codec.h"
#include "src/obs/metrics.h"
#include "src/sql/executor.h"
#include "src/sql/parser.h"
#include "src/storage/dump.h"
#include "src/storage/wal/wal.h"

namespace mtdb::net {

namespace {

// Server-side per-type service-time histograms, resolved once.
Histogram* ServerLatencyFor(RpcType type) {
  constexpr int kNumTypes = static_cast<int>(RpcType::kWalDeltaApply) + 1;
  static Histogram** table = [] {
    auto** entries = new Histogram*[kNumTypes]();
    for (int i = 1; i < kNumTypes; ++i) {
      std::string_view name = RpcTypeName(static_cast<RpcType>(i));
      if (name == "?") continue;
      entries[i] = obs::MetricsRegistry::Global().GetHistogram(
          "mtdb_rpc_server_us", {.operation = std::string(name)});
    }
    return entries;
  }();
  int index = static_cast<int>(type);
  return index > 0 && index < kNumTypes ? table[index] : nullptr;
}

bool IsTransactional(RpcType type) {
  switch (type) {
    case RpcType::kBegin:
    case RpcType::kExecutePrepared:
    case RpcType::kPrepare:
    case RpcType::kCommit:
    case RpcType::kCommitPrepared:
    case RpcType::kAbort:
      return true;
    default:
      return false;
  }
}

void SleepMicros(int64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

MachineService::MachineService(Machine* machine) : machine_(machine) {}

RpcResponse MachineService::Dispatch(const RpcRequest& request) {
  // The fail-stop model: a failed machine answers nothing but health probes.
  // (The liveness probe must keep answering so monitoring can distinguish
  // "machine declared failed" from "network partition".)
  if (request.type == RpcType::kHealth) {
    return RpcResponse::FromStatus(
        machine_->failed() ? Status::Unavailable("machine failed")
                           : Status::OK());
  }
  // Stats stay readable on failed machines too: post-mortem counters are
  // exactly what an operator wants from a dead machine.
  if (request.type == RpcType::kStats) {
    RpcResponse response;
    response.message = obs::MetricsRegistry::Global().TextDump();
    return response;
  }
  if (machine_->failed()) {
    return RpcResponse::FromStatus(Status::Unavailable("machine failed"));
  }
  int64_t start_us = NowMicros();
  RpcResponse response = IsTransactional(request.type)
                             ? DispatchTransactional(request)
                             : DispatchControl(request);
  int64_t elapsed_us = NowMicros() - start_us;
  response.server_duration_us = elapsed_us;
  obs::Observe(ServerLatencyFor(request.type), elapsed_us);
  return response;
}

RpcResponse MachineService::AdmitAndBegin(Engine* engine,
                                          const RpcRequest& request) {
  // QoS admission gates the transaction here, before any engine state
  // exists: an over-quota tenant or a shedding machine answers with a fast
  // kResourceExhausted + retry_after_us instead of queueing work.
  // Everything after the begin (executes, 2PC completions) belongs to an
  // already-admitted transaction and is never throttled, so a quota can
  // never cut a replicated write off on a subset of replicas.
  qos::AdmitDecision decision = machine_->AdmitBegin(request.db_name);
  if (!decision.admitted) {
    RpcResponse response = RpcResponse::FromStatus(Status::ResourceExhausted(
        machine_->shedding() ? "machine overloaded, shedding load"
                             : "tenant over admission quota"));
    response.retry_after_us = decision.retry_after_us;
    return response;
  }
  uint64_t snapshot_ts = 0;
  RpcResponse response = RpcResponse::FromStatus(
      engine->Begin(request.txn_id, request.read_only, &snapshot_ts));
  response.snapshot_ts = snapshot_ts;
  return response;
}

RpcResponse MachineService::DispatchTransactional(const RpcRequest& request) {
  auto engine = machine_->engine();
  switch (request.type) {
    case RpcType::kBegin:
      return AdmitAndBegin(engine.get(), request);
    case RpcType::kExecutePrepared: {
      // Resolve the plan (a plan-cache hit, or a parse+plan of the text)
      // before the latency model, so cached statements skip straight to
      // the op slot. A piggybacked begin runs only after the plan resolved:
      // a statement that fails to plan leaves no transaction behind.
      auto plan_or = engine->GetPlan(request.db_name, request.sql);
      if (!plan_or.ok()) return RpcResponse::FromStatus(plan_or.status());
      uint64_t snapshot_ts = 0;
      if (request.begin) {
        RpcResponse begun = AdmitAndBegin(engine.get(), request);
        if (!begun.ok()) return begun;
        snapshot_ts = begun.snapshot_ts;
      }
      // Test-only injected latency is applied *before* taking an op slot,
      // matching the pre-RPC execution path so Table 1 anomaly schedules
      // stay deterministic.
      SleepMicros(request.debug_delay_us);
      qos::WeightedFairQueue::Guard guard(machine_->fair_queue(),
                                          request.db_name);
      int64_t execute_start_us = NowMicros();
      SleepMicros(machine_->base_op_latency_us());
      sql::SqlExecutor executor(engine.get());
      auto result = executor.ExecutePlan(request.txn_id, request.db_name,
                                         **plan_or, request.params);
      machine_->RecordExecuteLatency(NowMicros() - execute_start_us);
      if (!result.ok()) return RpcResponse::FromStatus(result.status());
      RpcResponse response;
      response.result = std::move(*result);
      response.snapshot_ts = snapshot_ts;
      return response;
    }
    case RpcType::kPrepare:
      return RpcResponse::FromStatus(engine->Prepare(request.txn_id));
    case RpcType::kCommit:
      return RpcResponse::FromStatus(engine->Commit(request.txn_id));
    case RpcType::kCommitPrepared:
      return RpcResponse::FromStatus(engine->CommitPrepared(request.txn_id));
    case RpcType::kAbort:
      return RpcResponse::FromStatus(engine->Abort(request.txn_id));
    default:
      return RpcResponse::FromStatus(Status::Internal(
          "non-transactional request in transactional dispatch"));
  }
}

RpcResponse MachineService::DispatchControl(const RpcRequest& request) {
  auto engine = machine_->engine();
  switch (request.type) {
    case RpcType::kCreateDatabase:
      return RpcResponse::FromStatus(engine->CreateDatabase(request.db_name));
    case RpcType::kDropDatabase:
      return RpcResponse::FromStatus(engine->DropDatabase(request.db_name));
    case RpcType::kHasDatabase:
      return RpcResponse::FromStatus(
          engine->HasDatabase(request.db_name)
              ? Status::OK()
              : Status::NotFound("no database " + request.db_name));
    case RpcType::kExecuteDdl: {
      auto stmt_or = sql::Parse(request.sql);
      if (!stmt_or.ok()) return RpcResponse::FromStatus(stmt_or.status());
      sql::SqlExecutor executor(engine.get());
      auto result = executor.Execute(/*txn_id=*/0, request.db_name, *stmt_or);
      if (!result.ok()) return RpcResponse::FromStatus(result.status());
      RpcResponse response;
      response.result = std::move(*result);
      return response;
    }
    case RpcType::kBulkLoad:
      return RpcResponse::FromStatus(
          engine->BulkInsert(request.db_name, request.table, request.rows));
    case RpcType::kDumpTable: {
      DumpOptions options;
      options.per_row_delay_us = request.per_row_delay_us;
      auto records_or = DumpRecords(engine.get(), request.db_name,
                                    request.table, request.txn_id, options);
      if (!records_or.ok()) return RpcResponse::FromStatus(records_or.status());
      RpcResponse response;
      response.names = std::move(*records_or);
      return response;
    }
    case RpcType::kListPrepared: {
      RpcResponse response;
      response.txn_ids = engine->PreparedTxnIds();
      return response;
    }
    case RpcType::kListActive: {
      RpcResponse response;
      response.txn_ids = engine->ActiveTxnIds();
      return response;
    }
    case RpcType::kSetQuota: {
      // Quota triple rides the params vector:
      // [rate_tps (double), burst (double), weight (int)].
      if (request.params.size() != 3 || !request.params[0].is_numeric() ||
          !request.params[1].is_numeric() || !request.params[2].is_numeric()) {
        return RpcResponse::FromStatus(
            Status::InvalidArgument("malformed quota params"));
      }
      qos::QuotaSpec spec;
      spec.rate_tps = request.params[0].AsDouble();
      spec.burst = request.params[1].AsDouble();
      spec.weight = static_cast<int>(request.params[2].is_int()
                                         ? request.params[2].AsInt()
                                         : request.params[2].AsDouble());
      machine_->SetQuota(request.db_name, spec);
      return RpcResponse();
    }
    case RpcType::kWalDeltaRead: {
      WriteAheadLog* log = engine->wal();
      if (log == nullptr) {
        // Doubles as the migrator's capability probe: a WAL-less source
        // cannot serve deltas, so the migration falls back to frozen copy.
        return RpcResponse::FromStatus(
            Status::FailedPrecondition("source machine has no WAL"));
      }
      // Push enqueued records to the file so the frontier covers them.
      Status sync_status = log->Sync();
      if (!sync_status.ok()) return RpcResponse::FromStatus(sync_status);
      uint64_t frontier = 0;
      if (request.wal_cursor == UINT64_MAX) {
        // Probe round: frontier only, no records.
        auto probe_or = WriteAheadLog::ReadCommittedDeltaSince(
            log->path(), request.db_name, UINT64_MAX, &frontier);
        if (!probe_or.ok()) return RpcResponse::FromStatus(probe_or.status());
        RpcResponse response;
        response.wal_lsn = frontier;
        return response;
      }
      auto lines_or = WriteAheadLog::ReadCommittedDeltaSince(
          log->path(), request.db_name, request.wal_cursor, &frontier);
      if (!lines_or.ok()) return RpcResponse::FromStatus(lines_or.status());
      RpcResponse response;
      response.names = std::move(*lines_or);
      response.wal_lsn = frontier;
      return response;
    }
    case RpcType::kWalDeltaApply:
      // A copy's dump records or a migration delta; a malformed record
      // fails the call with the engine untouched.
      return RpcResponse::FromStatus(
          WriteAheadLog::ReplayEncoded(request.lines, engine.get()));
    case RpcType::kListTables: {
      Database* db = engine->GetDatabase(request.db_name);
      if (db == nullptr) {
        return RpcResponse::FromStatus(
            Status::NotFound("no database " + request.db_name));
      }
      RpcResponse response;
      response.names = db->TableNames();
      return response;
    }
    case RpcType::kPrepareStatement:  // retired: machines keep no handles
    default:
      return RpcResponse::FromStatus(Status::InvalidArgument(
          "unhandled rpc type " +
          std::to_string(static_cast<int>(request.type))));
  }
}

}  // namespace mtdb::net
