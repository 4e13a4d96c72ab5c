#include "src/cluster/rebalance/tenant_migrator.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/cluster/machine.h"
#include "src/cluster/recovery.h"
#include "src/common/clock.h"
#include "src/net/machine_client.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace mtdb::rebalance {

namespace {

struct Metrics {
  obs::Counter* started;
  obs::Counter* completed;
  obs::Counter* aborted;
  obs::Counter* bytes_copied;
  obs::Counter* delta_rounds;
  Histogram* cutover_pause_us;
};

Metrics& GlobalMetrics() {
  static Metrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    Metrics m;
    m.started = registry.GetCounter("mtdb_rebalance_migrations_started_total",
                                    {});
    m.completed = registry.GetCounter(
        "mtdb_rebalance_migrations_completed_total", {});
    m.aborted = registry.GetCounter("mtdb_rebalance_migrations_aborted_total",
                                    {});
    m.bytes_copied = registry.GetCounter("mtdb_rebalance_bytes_copied_total",
                                         {});
    m.delta_rounds = registry.GetCounter("mtdb_rebalance_delta_rounds_total",
                                         {});
    m.cutover_pause_us = registry.GetHistogram("mtdb_rebalance_cutover_pause_us",
                                               {});
    return m;
  }();
  return metrics;
}

void RecordPhaseSpan(uint64_t trace_id, int machine_id,
                     const std::string& phase, int64_t start_us) {
  obs::TraceSpan span;
  span.trace_id = trace_id;
  span.machine_id = machine_id;
  span.operation = "migrate:" + phase;
  span.start_us = start_us;
  span.client_duration_us = NowMicros() - start_us;
  obs::TraceCollector::Global().RecordSpan(span);
}

}  // namespace

void RegisterRebalanceMetrics() { (void)GlobalMetrics(); }

TenantMigrator::TenantMigrator(ClusterController* controller,
                               MigratorOptions options)
    : controller_(controller), options_(options) {
  RegisterRebalanceMetrics();
}

Status TenantMigrator::Migrate(const MigrationPlan& plan) {
  obs::Increment(GlobalMetrics().started);
  // Validate and claim in one catalog critical section: at most one
  // migration per tenant, never concurrent with a recovery copy, and only
  // between machines that actually make sense for the current placement.
  Status claim = Status::OK();
  Status found = controller_->tenant_catalog()->With(
      plan.database, [&](catalog::TenantRecord& record) {
        if (record.migration.active()) {
          claim = Status::FailedPrecondition("migration already active for " +
                                             plan.database);
          return;
        }
        if (record.copy.active) {
          claim = Status::FailedPrecondition("recovery copy active for " +
                                             plan.database);
          return;
        }
        if (std::find(record.replicas.begin(), record.replicas.end(),
                      plan.source_machine) == record.replicas.end()) {
          claim = Status::FailedPrecondition(
              plan.database + " has no replica on machine " +
              std::to_string(plan.source_machine));
          return;
        }
        if (std::find(record.replicas.begin(), record.replicas.end(),
                      plan.target_machine) != record.replicas.end()) {
          claim = Status::FailedPrecondition(
              plan.database + " already placed on machine " +
              std::to_string(plan.target_machine));
          return;
        }
        record.migration.phase = MigrationPhase::kBulkCopy;
        record.migration.source_machine = plan.source_machine;
        record.migration.target_machine = plan.target_machine;
        record.migration.wal_cursor = 0;
        record.migration.started_us = NowMicros();
      });
  if (found.ok() && claim.ok()) {
    Machine* target = controller_->machine(plan.target_machine);
    if (target == nullptr || target->failed()) {
      claim = Status::FailedPrecondition("migration target not alive");
    }
  }
  if (!found.ok() || !claim.ok()) {
    // Nothing claimed (or claim failed validation): no partial state beyond
    // the possibly-set phase to roll back.
    if (found.ok() && !claim.ok()) ClearMigrationState(plan.database);
    obs::Increment(GlobalMetrics().aborted);
    return found.ok() ? claim : found;
  }

  // Capability probe: can the source serve WAL deltas? UINT64_MAX returns
  // the current frontier without shipping lines. That pre-dump frontier is
  // where the delta starts: everything committed before it is covered by
  // the dump too, and replaying the overlap is idempotent (upserts), so
  // nothing is lost. A WAL-less source answers kFailedPrecondition: with
  // no delta to tail, the tenant is frozen before the copy instead of
  // after it, and the delta rounds are skipped — same sequence, longer
  // pause.
  net::MachineClient* client = controller_->machine_client();
  uint64_t wal_cursor = 0;
  auto probe = client->WalDeltaRead(plan.source_machine, plan.database,
                                    UINT64_MAX, &wal_cursor);
  bool frozen = !probe.ok();
  if (frozen && probe.status().code() != StatusCode::kFailedPrecondition) {
    return Abort(plan, probe.status());
  }
  uint64_t trace_id = obs::TraceCollector::Global().StartTrace(0);
  int64_t phase_start_us = NowMicros();
  int64_t cutover_start_us = phase_start_us;
  if (frozen) {
    Status drained = FreezeAndDrain(plan.database);
    if (!drained.ok()) return Abort(plan, drained, trace_id);
  }
  // Bulk copy. A live source serves reads AND writes throughout.
  auto copied = CopyReplica(controller_, plan.database, plan.source_machine,
                            plan.target_machine, CopyGranularity::kTable,
                            /*algorithm1=*/false, options_.per_row_delay_us);
  if (!copied.ok()) return Abort(plan, copied.status(), trace_id);
  obs::Increment(GlobalMetrics().bytes_copied, *copied);

  if (!frozen) {
    RecordPhaseSpan(trace_id, plan.source_machine, "bulk_copy",
                    phase_start_us);
    // Delta catch-up: ship the committed suffix until a round comes back
    // small. The source serves normally the whole time.
    Status advanced = controller_->tenant_catalog()->With(
        plan.database, [&](catalog::TenantRecord& record) {
          record.migration.phase = MigrationPhase::kDeltaCatchup;
          record.migration.wal_cursor = wal_cursor;
        });
    if (!advanced.ok()) return Abort(plan, advanced, trace_id);
    phase_start_us = NowMicros();
    for (int round = 0; round < options_.delta_max_rounds; ++round) {
      auto shipped = ShipDelta(plan, &wal_cursor);
      if (!shipped.ok()) return Abort(plan, shipped.status(), trace_id);
      obs::Increment(GlobalMetrics().delta_rounds);
      Status cursored = controller_->tenant_catalog()->With(
          plan.database, [&](catalog::TenantRecord& record) {
            record.migration.wal_cursor = wal_cursor;
          });
      if (!cursored.ok()) return Abort(plan, cursored, trace_id);
      if (*shipped <= options_.delta_settle_lines) break;
    }
    RecordPhaseSpan(trace_id, plan.source_machine, "delta_catchup",
                    phase_start_us);
    // Cutover: the only client-visible window. Begins back off, in-flight
    // transactions drain, the final delta ships, the replica list swaps.
    cutover_start_us = NowMicros();
    Status drained = FreezeAndDrain(plan.database);
    if (!drained.ok()) return Abort(plan, drained, trace_id);
    auto shipped = ShipDelta(plan, &wal_cursor);
    if (!shipped.ok()) return Abort(plan, shipped.status(), trace_id);
  }

  Status swapped = controller_->SwapReplica(plan.database, plan.source_machine,
                                            plan.target_machine);
  if (!swapped.ok()) return Abort(plan, swapped, trace_id);
  ClearMigrationState(plan.database);
  obs::Observe(GlobalMetrics().cutover_pause_us,
               NowMicros() - cutover_start_us);
  RecordPhaseSpan(trace_id, plan.target_machine,
                  frozen ? "frozen_copy" : "cutover", cutover_start_us);
  obs::TraceCollector::Global().FinishTrace(trace_id, /*committed=*/true);
  obs::Increment(GlobalMetrics().completed);

  // Cleanup is best-effort: the swap already happened, the source copy is
  // just garbage now.
  (void)client->DropDatabase(plan.source_machine, plan.database);
  if (Machine* source = controller_->machine(plan.source_machine)) {
    source->EvictTenant(plan.database);
  }
  return Status::OK();
}

Status TenantMigrator::FreezeAndDrain(const std::string& database) {
  Status frozen = controller_->tenant_catalog()->With(
      database, [](catalog::TenantRecord& record) {
        record.migration.phase = MigrationPhase::kCutover;
      });
  if (!frozen.ok()) return frozen;
  // New begins are now refused (they back off and retry); wait out the
  // transactions that pinned the tenant before the freeze.
  int64_t deadline_us = NowMicros() + options_.drain_timeout_us;
  while (controller_->tenant_catalog()->PinCount(database) > 0) {
    if (NowMicros() > deadline_us) {
      return Status::Aborted("cutover drain timed out for " + database);
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(std::max<int64_t>(options_.drain_poll_us, 1)));
  }
  // Writes routed before the freeze may still be in flight past their pin
  // release on abort paths; the recovery machinery's quiescence barrier
  // covers them.
  controller_->WaitForQuiescentWrites(database, "*");
  return Status::OK();
}

Result<size_t> TenantMigrator::ShipDelta(const MigrationPlan& plan,
                                         uint64_t* wal_cursor) {
  net::MachineClient* client = controller_->machine_client();
  uint64_t frontier = 0;
  MTDB_ASSIGN_OR_RETURN(
      std::vector<std::string> lines,
      client->WalDeltaRead(plan.source_machine, plan.database, *wal_cursor,
                           &frontier));
  if (!lines.empty()) {
    int64_t bytes = 0;
    for (const std::string& line : lines) {
      bytes += static_cast<int64_t>(line.size());
    }
    obs::Increment(GlobalMetrics().bytes_copied, bytes);
    MTDB_RETURN_IF_ERROR(
        client->WalDeltaApply(plan.target_machine, plan.database, lines));
  }
  *wal_cursor = frontier;
  return lines.size();
}

void TenantMigrator::ClearMigrationState(const std::string& database) {
  (void)controller_->tenant_catalog()->With(
      database, [](catalog::TenantRecord& record) {
        record.migration = MigrationState{};
      });
}

Status TenantMigrator::Abort(const MigrationPlan& plan, const Status& cause,
                             uint64_t trace_id) {
  if (trace_id != 0) {
    obs::TraceCollector::Global().FinishTrace(trace_id, /*committed=*/false);
  }
  // Unfreeze first: whatever went wrong, the tenant must resume on the
  // source immediately. Placement was never touched before SwapReplica, so
  // clearing the migration state IS the rollback.
  ClearMigrationState(plan.database);
  (void)controller_->machine_client()->DropDatabase(plan.target_machine,
                                                    plan.database);
  if (Machine* target = controller_->machine(plan.target_machine)) {
    target->EvictTenant(plan.database);
  }
  obs::Increment(GlobalMetrics().aborted);
  return cause;
}

}  // namespace mtdb::rebalance
