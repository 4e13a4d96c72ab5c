// Unit tests for the recovery manager and copy-state machinery beyond the
// end-to-end paths covered in cluster_controller_test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/recovery.h"
#include "src/storage/dump.h"

namespace mtdb {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    controller_ = std::make_unique<ClusterController>();
    for (int m = 0; m < 5; ++m) controller_->AddMachine();
  }

  void MakeDb(const std::string& name, int tables = 2, int rows = 5) {
    ASSERT_TRUE(controller_->CreateDatabase(name, 2).ok());
    for (int t = 0; t < tables; ++t) {
      std::string table = "t" + std::to_string(t);
      ASSERT_TRUE(controller_
                      ->ExecuteDdl(name, "CREATE TABLE " + table +
                                             " (id INT PRIMARY KEY, v INT)")
                      .ok());
      std::vector<Row> data;
      for (int64_t r = 0; r < rows; ++r) {
        data.push_back({Value(r), Value(r * 10)});
      }
      ASSERT_TRUE(controller_->BulkLoad(name, table, data).ok());
    }
  }

  std::unique_ptr<ClusterController> controller_;
};

TEST_F(RecoveryTest, RecoverAllIsNoopWhenHealthy) {
  MakeDb("db");
  RecoveryManager recovery(controller_.get(), RecoveryOptions{});
  auto results = recovery.RecoverAll(2);
  EXPECT_TRUE(results.empty());
}

TEST_F(RecoveryTest, MultipleDatabasesRecoverInParallel) {
  for (int d = 0; d < 4; ++d) MakeDb("db" + std::to_string(d));
  controller_->FailMachine(0);
  int affected = 0;
  for (int d = 0; d < 4; ++d) {
    for (int id : controller_->ReplicasOf("db" + std::to_string(d))) {
      if (id == 0) ++affected;
    }
  }
  RecoveryOptions options;
  options.recovery_threads = 3;
  RecoveryManager recovery(controller_.get(), options);
  auto results = recovery.RecoverAll(2);
  EXPECT_EQ(static_cast<int>(results.size()), affected);
  for (const auto& result : results) {
    EXPECT_TRUE(result.status.ok()) << result.database << ": "
                                    << result.status.ToString();
    EXPECT_NE(result.target_machine, 0);
  }
  // Every database again has 2 alive replicas with matching content.
  for (int d = 0; d < 4; ++d) {
    std::string name = "db" + std::to_string(d);
    std::vector<int> alive;
    for (int id : controller_->ReplicasOf(name)) {
      if (!controller_->machine(id)->failed()) alive.push_back(id);
    }
    ASSERT_EQ(alive.size(), 2u) << name;
  }
}

TEST_F(RecoveryTest, AllTablesCopied) {
  MakeDb("db", /*tables=*/4, /*rows=*/7);
  std::vector<int> replicas = controller_->ReplicasOf("db");
  controller_->FailMachine(replicas[0]);
  RecoveryManager recovery(controller_.get(), RecoveryOptions{});
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok());
  Database* copy = controller_->machine(results[0].target_machine)
                       ->engine()
                       ->GetDatabase("db");
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->table_count(), 4u);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(copy->GetTable("t" + std::to_string(t))->row_count(), 7u);
  }
}

TEST_F(RecoveryTest, NoAliveReplicaMeansDataLoss) {
  MakeDb("db");
  for (int id : controller_->ReplicasOf("db")) controller_->FailMachine(id);
  RecoveryManager recovery(controller_.get(), RecoveryOptions{});
  // RecoverAll skips databases with zero alive replicas (nothing to copy
  // from); explicit recovery reports the loss.
  EXPECT_TRUE(recovery.RecoverAll(2).empty());
  auto result = recovery.RecoverDatabase("db", 4);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST_F(RecoveryTest, TargetExhaustionSurfaces) {
  // 3-machine cluster fully occupied: no target for a new replica.
  auto small = std::make_unique<ClusterController>();
  for (int m = 0; m < 2; ++m) small->AddMachine();
  ASSERT_TRUE(small->CreateDatabase("db", 2).ok());
  ASSERT_TRUE(
      small->ExecuteDdl("db", "CREATE TABLE t (id INT PRIMARY KEY)").ok());
  small->FailMachine(small->ReplicasOf("db")[0]);
  RecoveryManager recovery(small.get(), RecoveryOptions{});
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kResourceExhausted);
}

TEST_F(RecoveryTest, CopyStateLifecycleGuards) {
  MakeDb("db");
  EXPECT_EQ(controller_->SetCopyInProgress("db", "t0").code(),
            StatusCode::kFailedPrecondition);  // no copy active
  EXPECT_EQ(controller_->CompleteCopy("db").code(),
            StatusCode::kFailedPrecondition);
  int target = 4;
  ASSERT_TRUE(controller_->BeginCopy("db", target).ok());
  EXPECT_EQ(controller_->BeginCopy("db", target).code(),
            StatusCode::kFailedPrecondition);  // already active
  ASSERT_TRUE(controller_->AbandonCopy("db").ok());
  // Target already hosting a replica is rejected.
  int existing = controller_->ReplicasOf("db")[0];
  EXPECT_EQ(controller_->BeginCopy("db", existing).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RecoveryTest, RejectionCountersArePerDatabase) {
  MakeDb("db_a");
  MakeDb("db_b");
  ASSERT_TRUE(controller_->BeginCopy("db_a", 4).ok());
  ASSERT_TRUE(controller_->SetCopyInProgress("db_a", "t0").ok());
  auto conn_a = controller_->Connect("db_a");
  auto conn_b = controller_->Connect("db_b");
  EXPECT_FALSE(conn_a->Execute("UPDATE t0 SET v = 1 WHERE id = 1").ok());
  EXPECT_FALSE(conn_a->Execute("UPDATE t0 SET v = 1 WHERE id = 2").ok());
  // Another table of the same database is unaffected.
  EXPECT_TRUE(conn_a->Execute("UPDATE t1 SET v = 1 WHERE id = 1").ok());
  // Another database is unaffected.
  EXPECT_TRUE(conn_b->Execute("UPDATE t0 SET v = 1 WHERE id = 1").ok());
  EXPECT_EQ(controller_->rejected_writes("db_a"), 2);
  EXPECT_EQ(controller_->rejected_writes("db_b"), 0);
  EXPECT_EQ(controller_->total_rejected_writes(), 2);
}

TEST_F(RecoveryTest, DatabaseGranularityRejectsEveryTable) {
  MakeDb("db");
  ASSERT_TRUE(controller_->BeginCopy("db", 4).ok());
  ASSERT_TRUE(controller_->SetCopyInProgress("db", "*").ok());
  auto conn = controller_->Connect("db");
  EXPECT_FALSE(conn->Execute("UPDATE t0 SET v = 1 WHERE id = 1").ok());
  EXPECT_FALSE(conn->Execute("UPDATE t1 SET v = 1 WHERE id = 1").ok());
  // Reads still flow.
  EXPECT_TRUE(conn->Execute("SELECT COUNT(*) FROM t0").ok());
}

TEST_F(RecoveryTest, RecoveredReplicaServesReads) {
  MakeDb("db2");
  std::vector<int> replicas = controller_->ReplicasOf("db2");
  controller_->FailMachine(replicas[0]);
  RecoveryManager recovery(controller_.get(), RecoveryOptions{});
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok());
  // Option-1 reads may now be routed to the new replica; a full query works.
  auto conn = controller_->Connect("db2");
  auto read = conn->Execute("SELECT SUM(v) FROM t0");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->at(0, 0).AsInt(), 100);  // 0+10+20+30+40
}

TEST_F(RecoveryTest, RecoveredEmptyDatabaseAcceptsDdl) {
  // A database with no tables yet: the copy has nothing to dump, but the
  // promoted replica must still host the database, or the next DDL fails
  // there while succeeding on the old replicas.
  for (CopyGranularity granularity :
       {CopyGranularity::kTable, CopyGranularity::kDatabase}) {
    std::string name = granularity == CopyGranularity::kTable ? "empty_table"
                                                              : "empty_db";
    MakeDb(name, /*tables=*/0);
    controller_->FailMachine(controller_->ReplicasOf(name)[0]);
    RecoveryOptions options;
    options.granularity = granularity;
    RecoveryManager recovery(controller_.get(), options);
    auto results = recovery.RecoverAll(2);
    ASSERT_EQ(results.size(), 1u) << name;
    ASSERT_TRUE(results[0].status.ok())
        << name << ": " << results[0].status.ToString();
    EXPECT_TRUE(controller_->machine(results[0].target_machine)
                    ->engine()
                    ->HasDatabase(name))
        << name;
    Status ddl =
        controller_->ExecuteDdl(name, "CREATE TABLE t (id INT PRIMARY KEY)");
    EXPECT_TRUE(ddl.ok()) << name << ": " << ddl.ToString();
  }
}

TEST_F(RecoveryTest, PromotedReplicaCarriesQuotaAndPlacementLoad) {
  // Five empty machines: "a" lands on the two least loaded, 0 and 1.
  MakeDb("a");
  ASSERT_EQ(controller_->ReplicasOf("a"), (std::vector<int>{0, 1}));
  qos::QuotaSpec spec;
  spec.rate_tps = 321;
  spec.burst = 5;
  spec.weight = 3;
  ASSERT_TRUE(controller_->SetDatabaseQuota("a", spec).ok());
  controller_->FailMachine(0);
  RecoveryManager recovery(controller_.get(), RecoveryOptions{});
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  int target = results[0].target_machine;
  ASSERT_EQ(target, 2);  // First-Fit: lowest alive machine without "a"
  // The quota followed the database onto the promoted replica.
  qos::QuotaSpec installed = controller_->machine(target)->GetQuota("a");
  EXPECT_DOUBLE_EQ(installed.rate_tps, 321);
  EXPECT_DOUBLE_EQ(installed.burst, 5);
  EXPECT_EQ(installed.weight, 3);
  // Machines 1 and 2 now host one replica each and 3 and 4 none, so the
  // next database goes to 3 and 4.
  ASSERT_TRUE(controller_->CreateDatabase("b", 2).ok());
  EXPECT_EQ(controller_->ReplicasOf("b"), (std::vector<int>{3, 4}));
}

// A recovered replica is durable on its own: the copy was logged in the
// target's WAL as it was applied, so recovering that log alone into a fresh
// engine gives back every table with the source's rows.
TEST_F(RecoveryTest, RecoveredReplicaSurvivesARestartFromItsWal) {
  for (CopyGranularity granularity :
       {CopyGranularity::kTable, CopyGranularity::kDatabase}) {
    const std::string tag =
        granularity == CopyGranularity::kTable ? "table" : "database";
    std::vector<std::string> wal_paths;
    controller_ = std::make_unique<ClusterController>();
    for (int m = 0; m < 3; ++m) {
      MachineOptions options;
      options.engine_options.wal_path =
          ::testing::TempDir() + "mtdb_recovery_" + tag + "_" +
          std::to_string(static_cast<long long>(getpid())) + "_" +
          std::to_string(m) + ".wal";
      std::remove(options.engine_options.wal_path.c_str());
      wal_paths.push_back(options.engine_options.wal_path);
      controller_->AddMachine(options);
    }
    MakeDb("db", /*tables=*/3, /*rows=*/5);
    std::vector<int> replicas = controller_->ReplicasOf("db");
    ASSERT_EQ(replicas, (std::vector<int>{0, 1})) << tag;
    controller_->FailMachine(0);
    RecoveryOptions options;
    options.granularity = granularity;
    RecoveryManager recovery(controller_.get(), options);
    auto results = recovery.RecoverAll(2);
    ASSERT_EQ(results.size(), 1u) << tag;
    ASSERT_TRUE(results[0].status.ok())
        << tag << ": " << results[0].status.ToString();
    ASSERT_EQ(results[0].target_machine, 2) << tag;
    // A write after the copy reaches both replicas and both logs.
    ASSERT_TRUE(controller_->Connect("db")
                    ->Execute("UPDATE t1 SET v = 7 WHERE id = 3")
                    .ok())
        << tag;

    Engine restarted("restarted");
    ASSERT_TRUE(WriteAheadLog::Recover(wal_paths[2], &restarted).ok()) << tag;
    Engine* source = controller_->machine(1)->engine().get();
    for (int t = 0; t < 3; ++t) {
      const std::string table = "t" + std::to_string(t);
      auto expected = DumpTable(source, "db", table, 900'000 + t);
      auto recovered = DumpTable(&restarted, "db", table, 900'010 + t);
      ASSERT_TRUE(expected.ok()) << tag << " " << table;
      ASSERT_TRUE(recovered.ok())
          << tag << " " << table << ": " << recovered.status().ToString();
      ASSERT_EQ(recovered->rows.size(), 5u) << tag << " " << table;
      for (size_t r = 0; r < expected->rows.size(); ++r) {
        EXPECT_EQ(recovered->rows[r].first, expected->rows[r].first)
            << tag << " " << table << " row " << r;
      }
    }
    controller_.reset();
    for (const std::string& path : wal_paths) std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace mtdb
