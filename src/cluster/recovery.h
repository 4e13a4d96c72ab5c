#ifndef MTDB_CLUSTER_RECOVERY_H_
#define MTDB_CLUSTER_RECOVERY_H_

#include <atomic>
#include <string>
#include <vector>

#include "src/cluster/cluster_controller.h"

namespace mtdb {

// Granularity of the copy tool during recovery (Figures 8/9): table-level
// copying rejects writes only to the table currently being copied;
// database-level copying holds read locks on every table for the whole copy
// and rejects all writes to the database.
enum class CopyGranularity { kTable, kDatabase };

// The one replica copy behind recovery (Section 3.2) and live migration
// (DESIGN.md §16): the off-the-shelf copy tool, run over machine RPCs.
// Creates db_name on `target` (failing if it is already there), then, for
// each window — each table (kTable), or "*" for every table under one set
// of S locks (kDatabase) — dumps the window on `source` as WAL records and
// replays them on `target` through WriteAheadLog::Replay, which logs them
// to the target's WAL. With `algorithm1` the copy runs inside the target's
// active BeginCopy: writes to the window are rejected, writes routed before
// it opened are waited out, and the window's tables are marked copied once
// applied. Returns the bytes of the applied records.
Result<int64_t> CopyReplica(ClusterController* controller,
                            const std::string& db_name, int source, int target,
                            CopyGranularity granularity, bool algorithm1,
                            int64_t per_row_delay_us);

struct RecoveryOptions {
  // Number of concurrent database copy processes ("recovery threads",
  // Figure 8's x-axis).
  int recovery_threads = 1;
  CopyGranularity granularity = CopyGranularity::kTable;
  // Per-row copy cost while holding the read lock (models the paper's
  // ~2 minutes per 200 MB, scaled for experiments).
  int64_t per_row_delay_us = 0;
};

// Result of recovering one database.
struct RecoveryResult {
  std::string database;
  Status status;
  int source_machine = -1;
  int target_machine = -1;
  int64_t duration_us = 0;
};

// The background database replication process of Section 3.2: after a
// machine failure, re-creates replicas of the databases that lost one, using
// the off-the-shelf copy tool coordinated with the cluster controller per
// Algorithm 1.
class RecoveryManager {
 public:
  RecoveryManager(ClusterController* controller, RecoveryOptions options)
      : controller_(controller), options_(options) {}

  // Recovers every database that has fewer than `target_replicas` alive
  // replicas (call after a FailMachine). Blocks until all copies finish;
  // copies run on options_.recovery_threads concurrent workers. New replicas
  // are placed with First-Fit over machines not already hosting the database.
  std::vector<RecoveryResult> RecoverAll(int target_replicas);

  // Recovers one database onto an explicit target machine.
  RecoveryResult RecoverDatabase(const std::string& db_name,
                                 int target_machine);

 private:
  // Chooses a target machine for a new replica of db (First-Fit: lowest id
  // alive machine not already hosting it).
  Result<int> ChooseTarget(const std::string& db_name);

  // Concurrent copies share disk/network bandwidth: the effective per-row
  // delay scales with the number of copies in flight when a copy starts.
  int64_t EffectivePerRowDelay() const {
    int active = std::max(1, active_copies_.load(std::memory_order_relaxed));
    return options_.per_row_delay_us * active;
  }

  ClusterController* controller_;
  RecoveryOptions options_;
  std::atomic<int> active_copies_{0};
};

}  // namespace mtdb

#endif  // MTDB_CLUSTER_RECOVERY_H_
