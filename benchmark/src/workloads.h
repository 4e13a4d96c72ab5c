#ifndef MTDB_BENCHMARK_WORKLOADS_H_
#define MTDB_BENCHMARK_WORKLOADS_H_

// The four tenant workloads. Each builds its own in-process cluster (4
// machines, every tenant on 2 replicas, machine-model sleeps off, one WAL per
// machine under the default group-commit policy), generates its data and
// transaction stream from the seed, drives closed-loop client sessions, and
// checks its correctness oracles once the load has stopped.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/src/driver.h"
#include "benchmark/src/trace.h"
#include "src/cluster/cluster_controller.h"

namespace mtdb::bench {

struct RunConfig {
  uint64_t seed = 1;
  // Directory for the machines' WAL files (removed at teardown).
  std::string run_dir;
};

class Workload {
 public:
  static const std::vector<std::string>& Names();
  // nullptr for an unknown name.
  static std::unique_ptr<Workload> Create(const std::string& name,
                                          const RunConfig& config);

  virtual ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const std::string& name() const { return name_; }
  virtual int clients() const = 0;
  virtual bool migrates() const { return false; }
  // One line describing the final data sizes.
  virtual std::string DataSizes() const = 0;

  // Builds a fresh cluster (tearing down any previous one), loads the data
  // and prepares the statements. Everything `setup_s` measures.
  Status Setup();
  void TearDown();

  // Closed-loop session `client` (0-based) until driver->stop.
  virtual void RunClient(int client, Driver* driver) = 0;
  // The migration thread (live_migration only); `thread` is its driver slot.
  virtual void RunMigrator(int thread, Driver* driver) {
    (void)thread;
    (void)driver;
  }

  // Replica equality and write conservation, after the load has stopped.
  // Appends one line per violation to `report`; true when all hold.
  virtual bool CheckOracles(std::vector<std::string>* report) = 0;

  ClusterController* controller() { return controller_.get(); }
  // Bytes currently in the machines' WAL files.
  int64_t WalBytes() const;

 protected:
  Workload(std::string name, RunConfig config);

  // Creates tenants, loads data, prepares statements on controller().
  virtual Status Populate() = 0;
  virtual size_t max_resident() const { return 0; }  // 0 = catalog default
  // Drops connections held across Setup and the run; they must close before
  // the controller they belong to.
  virtual void CloseSessions() {}

  RunConfig config_;

 private:
  std::string name_;
  int generation_ = 0;
  std::unique_ptr<TimingTransport> transport_;
  std::unique_ptr<ClusterController> controller_;
  std::vector<std::string> wal_paths_;
};

}  // namespace mtdb::bench

#endif  // MTDB_BENCHMARK_WORKLOADS_H_
