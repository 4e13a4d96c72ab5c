#include "src/cluster/recovery.h"

#include <algorithm>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/net/machine_client.h"
#include "src/obs/metrics.h"
#include "src/platform/mutex.h"

namespace mtdb {

namespace {

// Dump transactions get ids far away from client transaction ids; every
// copy, recovery or migration, draws from this one sequence.
constexpr uint64_t kDumpTxnBase = 1ull << 48;
std::atomic<uint64_t> dump_txn_seq{0};

}  // namespace

Result<int64_t> CopyReplica(ClusterController* controller,
                            const std::string& db_name, int source, int target,
                            CopyGranularity granularity, bool algorithm1,
                            int64_t per_row_delay_us) {
  net::MachineClient* client = controller->machine_client();
  // Algorithm 1: writes to `window` are rejected from here until its tables
  // are marked copied. Writes routed before the window opened must reach
  // the engines before the dump's snapshot, or the copy would miss them.
  auto open_window = [&](const std::string& window) -> Status {
    if (!algorithm1) return Status::OK();
    MTDB_RETURN_IF_ERROR(controller->SetCopyInProgress(db_name, window));
    controller->WaitForQuiescentWrites(db_name, window);
    return Status::OK();
  };
  MTDB_RETURN_IF_ERROR(client->CreateDatabase(target, db_name));
  // One window per table, or "*" for the whole kDatabase copy.
  std::vector<std::string> windows = {"*"};
  if (granularity == CopyGranularity::kTable) {
    MTDB_ASSIGN_OR_RETURN(windows, client->ListTables(source, db_name));
  }
  int64_t bytes = 0;
  for (const std::string& window : windows) {
    MTDB_RETURN_IF_ERROR(open_window(window));
    MTDB_ASSIGN_OR_RETURN(
        std::vector<std::string> records,
        client->DumpTable(source, db_name, window,
                          kDumpTxnBase + dump_txn_seq.fetch_add(1),
                          per_row_delay_us));
    for (const std::string& record : records) {
      bytes += static_cast<int64_t>(record.size());
    }
    MTDB_RETURN_IF_ERROR(client->WalDeltaApply(target, db_name, records));
    if (!algorithm1) continue;
    std::vector<std::string> copied = {window};
    if (window == "*") {
      MTDB_ASSIGN_OR_RETURN(copied, client->ListTables(target, db_name));
    }
    for (const std::string& table : copied) {
      MTDB_RETURN_IF_ERROR(controller->MarkTableCopied(db_name, table));
    }
  }
  return bytes;
}

Result<int> RecoveryManager::ChooseTarget(const std::string& db_name) {
  std::vector<int> replicas = controller_->ReplicasOf(db_name);
  net::MachineClient* client = controller_->machine_client();
  for (int id : controller_->MachineIds()) {
    Machine* m = controller_->machine(id);
    if (m == nullptr || m->failed()) continue;
    if (std::count(replicas.begin(), replicas.end(), id) > 0) continue;
    // The machine must not already hold a stale copy of this database. Only
    // a definite "not found" answer makes it usable: an unreachable machine
    // is no recovery target either.
    if (client->HasDatabase(id, db_name).code() != StatusCode::kNotFound) {
      continue;
    }
    return id;
  }
  return Status::ResourceExhausted("no machine available to host " + db_name);
}

RecoveryResult RecoveryManager::RecoverDatabase(const std::string& db_name,
                                                int target_machine) {
  RecoveryResult result;
  result.database = db_name;
  result.target_machine = target_machine;
  Stopwatch watch;

  // Source: any alive current replica.
  int source = -1;
  for (int id : controller_->ReplicasOf(db_name)) {
    Machine* m = controller_->machine(id);
    if (m != nullptr && !m->failed()) {
      source = id;
      break;
    }
  }
  if (source < 0) {
    result.status = Status::Unavailable("no alive replica of " + db_name);
    return result;
  }
  result.source_machine = source;

  Status status = controller_->BeginCopy(db_name, target_machine);
  if (status.ok()) {
    active_copies_.fetch_add(1);
    status = CopyReplica(controller_, db_name, source, target_machine,
                         options_.granularity, /*algorithm1=*/true,
                         EffectivePerRowDelay())
                 .status();
    active_copies_.fetch_sub(1);
    if (status.ok()) {
      status = controller_->CompleteCopy(db_name);
    } else {
      (void)controller_->AbandonCopy(db_name);
    }
  }
  result.status = status;
  result.duration_us = watch.ElapsedMicros();
  obs::Observe(obs::MetricsRegistry::Global().GetHistogram(
                   "mtdb_recovery_copy_us", {.database = db_name}),
               result.duration_us);
  return result;
}

std::vector<RecoveryResult> RecoveryManager::RecoverAll(int target_replicas) {
  // Work list: databases with fewer than target_replicas alive replicas.
  std::vector<std::string> to_recover;
  for (const std::string& db_name : controller_->DatabaseNames()) {
    int alive = 0;
    for (int id : controller_->ReplicasOf(db_name)) {
      Machine* m = controller_->machine(id);
      if (m != nullptr && !m->failed()) ++alive;
    }
    if (alive < target_replicas && alive > 0) to_recover.push_back(db_name);
  }

  std::vector<RecoveryResult> results(to_recover.size());
  std::atomic<size_t> next{0};
  // Serializes target selection to avoid collisions.
  platform::Mutex target_mu{"cluster/Recovery::target_mu"};
  auto worker = [&] {
    while (true) {
      size_t i = next.fetch_add(1);
      if (i >= to_recover.size()) return;
      const std::string& db_name = to_recover[i];
      int target = -1;
      {
        platform::Guard lock(target_mu);
        auto target_or = ChooseTarget(db_name);
        if (!target_or.ok()) {
          results[i].database = db_name;
          results[i].status = target_or.status();
          continue;
        }
        target = *target_or;
      }
      results[i] = RecoverDatabase(db_name, target);
    }
  };
  int threads = std::max(1, options_.recovery_threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return results;
}

}  // namespace mtdb
