// End-to-end tests for prepared statements over the RPC path: Connection ↔
// ClusterController ↔ net::MachineClient ↔ net::MachineService ↔ Engine.
//
// A PreparedStatement is a controller-side registry entry holding its SQL
// text and routing facts; every execution ships the text, and machines keep
// nothing for it beyond their plan cache. These tests drive reads with
// replica retry, write fan-out, DDL-driven re-planning, dropped tables,
// machine failure, engines restarted behind a stable endpoint, and the
// machine's per-database planning.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/sql/executor.h"
#include "src/storage/dump.h"

namespace mtdb {
namespace {

MachineOptions FastMachine() {
  MachineOptions options;
  options.engine_options.lock_options.lock_timeout_us = 1'000'000;
  return options;
}

class PreparedRpcTest : public ::testing::Test {
 protected:
  void Build(ClusterControllerOptions options = {}, int machines = 3) {
    controller_ = std::make_unique<ClusterController>(options);
    for (int i = 0; i < machines; ++i) {
      controller_->AddMachine(FastMachine());
    }
    ASSERT_TRUE(controller_->CreateDatabase("shop", 2).ok());
    ASSERT_TRUE(controller_
                    ->ExecuteDdl("shop",
                                 "CREATE TABLE item (i_id INT PRIMARY KEY, "
                                 "i_title VARCHAR(40), i_stock INT)")
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 20; ++i) {
      rows.push_back(
          {Value(i), Value("title-" + std::to_string(i)), Value(int64_t{50})});
    }
    ASSERT_TRUE(controller_->BulkLoad("shop", "item", rows).ok());
  }

  // Gives each machine a fresh engine restored from `source`'s copy of the
  // shop database — a process restart behind a stable endpoint that the
  // controller is never told about (no FailMachine), with a cold plan
  // cache.
  void RestartEngines(const std::vector<int>& machine_ids, int source) {
    auto records = DumpRecords(controller_->machine(source)->engine().get(),
                               "shop", "*", 990'000);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    for (int id : machine_ids) {
      controller_->machine(id)->Recover();
      Engine* engine = controller_->machine(id)->engine().get();
      ASSERT_TRUE(engine->CreateDatabase("shop").ok());
      ASSERT_TRUE(WriteAheadLog::ReplayEncoded(*records, engine).ok());
    }
  }

  int64_t StockOn(int machine_id, int64_t item) {
    auto engine = controller_->machine(machine_id)->engine();
    uint64_t txn = 920'000 + static_cast<uint64_t>(machine_id);
    EXPECT_TRUE(engine->Begin(txn).ok());
    sql::SqlExecutor executor(engine.get());
    auto rows = executor.ExecuteSql(
        txn, "shop", "SELECT i_stock FROM item WHERE i_id = ?", {Value(item)});
    EXPECT_TRUE(rows.ok() && rows->rows.size() == 1u);
    EXPECT_TRUE(engine->Commit(txn).ok());
    return rows.ok() && rows->rows.size() == 1u ? rows->at(0, 0).AsInt() : -1;
  }

  std::unique_ptr<ClusterController> controller_;
};

TEST_F(PreparedRpcTest, AutocommitPreparedRead) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("SELECT i_title FROM item WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  for (int64_t id : {3, 7, 11}) {
    auto result = conn->ExecutePrepared(*stmt, {Value(id)});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 1u);
    EXPECT_EQ(result->at(0, 0).AsString(), "title-" + std::to_string(id));
  }
}

TEST_F(PreparedRpcTest, PreparedWriteReachesAllReplicas) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt =
      conn->Prepare("UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto result =
      conn->ExecutePrepared(*stmt, {Value(int64_t{8}), Value(int64_t{5})});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->affected_rows, 1);
  // Every replica applied the write (write-all).
  for (int id : controller_->ReplicasOf("shop")) {
    auto engine = controller_->machine(id)->engine();
    uint64_t txn = 900'000 + static_cast<uint64_t>(id);
    ASSERT_TRUE(engine->Begin(txn).ok());
    sql::SqlExecutor executor(engine.get());
    auto rows = executor.ExecuteSql(
        txn, "shop", "SELECT i_stock FROM item WHERE i_id = 5", {});
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->at(0, 0).AsInt(), 42);
    ASSERT_TRUE(engine->Commit(txn).ok());
  }
}

TEST_F(PreparedRpcTest, PreparedStatementsInsideExplicitTransaction) {
  Build();
  auto conn = controller_->Connect("shop");
  auto read = conn->Prepare("SELECT i_stock FROM item WHERE i_id = ?");
  auto write =
      conn->Prepare("UPDATE item SET i_stock = ? WHERE i_id = ?");
  ASSERT_TRUE(read.ok() && write.ok());

  ASSERT_TRUE(conn->Begin().ok());
  auto before = conn->ExecutePrepared(*read, {Value(int64_t{2})});
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  int64_t stock = before->at(0, 0).AsInt();
  ASSERT_TRUE(conn->ExecutePrepared(*write, {Value(stock - 1),
                                             Value(int64_t{2})})
                  .ok());
  auto after = conn->ExecutePrepared(*read, {Value(int64_t{2})});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->at(0, 0).AsInt(), stock - 1);
  ASSERT_TRUE(conn->Commit().ok());
}

TEST_F(PreparedRpcTest, PreparedAndUnpreparedInterleave) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("SELECT i_stock FROM item WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(
      conn->Execute("UPDATE item SET i_stock = 9 WHERE i_id = 1").ok());
  auto result = conn->ExecutePrepared(*stmt, {Value(int64_t{1})});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->at(0, 0).AsInt(), 9);
}

TEST_F(PreparedRpcTest, RegistrySharesStatementsAcrossConnections) {
  Build();
  auto conn1 = controller_->Connect("shop");
  auto conn2 = controller_->Connect("shop");
  const std::string sql = "SELECT i_title FROM item WHERE i_id = ?";
  auto stmt1 = conn1->Prepare(sql);
  auto stmt2 = conn2->Prepare(sql);
  ASSERT_TRUE(stmt1.ok() && stmt2.ok());
  // Same (db, sql) → same registry entry, so the routing parse is shared.
  EXPECT_EQ(stmt1->get(), stmt2->get());
}

TEST_F(PreparedRpcTest, PrepareRejectsDdlAndExplain) {
  Build();
  auto conn = controller_->Connect("shop");
  EXPECT_EQ(conn->Prepare("CREATE TABLE t2 (a INT PRIMARY KEY)")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(conn->Prepare("EXPLAIN SELECT * FROM item").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PreparedRpcTest, ExecutePreparedRejectsWrongDatabase) {
  Build();
  ASSERT_TRUE(controller_->CreateDatabase("other", 2).ok());
  ASSERT_TRUE(
      controller_
          ->ExecuteDdl("other", "CREATE TABLE t (a INT PRIMARY KEY)")
          .ok());
  auto shop_conn = controller_->Connect("shop");
  auto other_conn = controller_->Connect("other");
  auto stmt = shop_conn->Prepare("SELECT i_title FROM item WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(
      other_conn->ExecutePrepared(*stmt, {Value(int64_t{1})}).status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(PreparedRpcTest, CreateIndexRePlansPreparedStatement) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("SELECT i_id FROM item WHERE i_title = ?");
  ASSERT_TRUE(stmt.ok());
  auto before = conn->ExecutePrepared(*stmt, {Value("title-4")});
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->rows.size(), 1u);

  // DDL bumps every replica's schema version; the machine-side plan cache
  // re-plans on next execution, now through the index.
  ASSERT_TRUE(
      controller_->ExecuteDdl("shop",
                              "CREATE INDEX idx_title ON item (i_title)")
          .ok());
  auto after = conn->ExecutePrepared(*stmt, {Value("title-4")});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->rows.size(), 1u);
  EXPECT_EQ(after->at(0, 0).AsInt(), 4);
}

TEST_F(PreparedRpcTest, DropTableSurfacesNotFoundOverRpc) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("SELECT i_title FROM item WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(conn->ExecutePrepared(*stmt, {Value(int64_t{1})}).ok());
  ASSERT_TRUE(controller_->ExecuteDdl("shop", "DROP TABLE item").ok());
  auto result = conn->ExecutePrepared(*stmt, {Value(int64_t{1})});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(PreparedRpcTest, PreparedReadSurvivesMachineFailure) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("SELECT i_title FROM item WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  // Warm the plan cache of the replica the first read lands on.
  ASSERT_TRUE(conn->ExecutePrepared(*stmt, {Value(int64_t{1})}).ok());
  // Fail every replica but one; the read runs on the survivor.
  std::vector<int> replicas = controller_->ReplicasOf("shop");
  ASSERT_EQ(replicas.size(), 2u);
  controller_->FailMachine(replicas[0]);
  auto conn2 = controller_->Connect("shop");
  auto result = conn2->ExecutePrepared(*stmt, {Value(int64_t{1})});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->at(0, 0).AsString(), "title-1");
}

TEST_F(PreparedRpcTest, PreparedWriteAfterFailover) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt =
      conn->Prepare("UPDATE item SET i_stock = ? WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(
      conn->ExecutePrepared(*stmt, {Value(int64_t{7}), Value(int64_t{0})})
          .ok());
  std::vector<int> replicas = controller_->ReplicasOf("shop");
  controller_->FailMachine(replicas[1]);
  auto conn2 = controller_->Connect("shop");
  ASSERT_TRUE(
      conn2->ExecutePrepared(*stmt, {Value(int64_t{3}), Value(int64_t{0})})
          .ok());
  auto read = conn2->Execute("SELECT i_stock FROM item WHERE i_id = 0");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->at(0, 0).AsInt(), 3);
}

TEST_F(PreparedRpcTest, PreparedReadReMintsStaleHandle) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("SELECT i_title FROM item WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(conn->ExecutePrepared(*stmt, {Value(int64_t{1})}).ok());
  std::vector<int> replicas = controller_->ReplicasOf("shop");
  RestartEngines(replicas, replicas[0]);
  // Every execution ships the statement's text and machines hold no handle
  // for it, so nothing is stale: the restarted engines (with cold plan
  // caches) answer the first read.
  auto result = conn->ExecutePrepared(*stmt, {Value(int64_t{1})});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->at(0, 0).AsString(), "title-1");
}

TEST_F(PreparedRpcTest, PreparedWriteDropsStaleHandleOnEveryReplica) {
  Build();
  auto conn = controller_->Connect("shop");
  auto stmt = conn->Prepare("UPDATE item SET i_stock = ? WHERE i_id = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(
      conn->ExecutePrepared(*stmt, {Value(int64_t{7}), Value(int64_t{0})})
          .ok());
  std::vector<int> replicas = controller_->ReplicasOf("shop");
  ASSERT_EQ(replicas.size(), 2u);
  RestartEngines({replicas[1]}, replicas[0]);
  // One replica restarted unnoticed, the other kept its plan cache: the
  // first write afterwards still runs on both and reaches every replica.
  auto written =
      conn->ExecutePrepared(*stmt, {Value(int64_t{3}), Value(int64_t{0})});
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written->affected_rows, 1);
  for (int id : replicas) EXPECT_EQ(StockOn(id, 0), 3) << "machine " << id;
}

TEST_F(PreparedRpcTest, StatementSentForAnotherDatabaseRunsThereOnly) {
  Build();
  std::vector<int> replicas = controller_->ReplicasOf("shop");
  ASSERT_TRUE(controller_->CreateDatabaseOn("other", replicas).ok());
  ASSERT_TRUE(controller_
                  ->ExecuteDdl("other",
                               "CREATE TABLE item (i_id INT PRIMARY KEY, "
                               "i_title VARCHAR(40), i_stock INT)")
                  .ok());
  ASSERT_TRUE(controller_
                  ->BulkLoad("other", "item",
                             {{Value(int64_t{1}), Value("other-1"),
                               Value(int64_t{9})}})
                  .ok());
  const int machine = replicas[0];
  net::MachineClient* client = controller_->machine_client();
  auto session = client->OpenSession(machine);
  const std::string select = "SELECT i_title FROM item WHERE i_id = ?";
  const std::string update = "UPDATE item SET i_stock = ? WHERE i_id = ?";
  auto execute = [&](uint64_t txn, const std::string& db,
                     const std::string& sql, std::vector<Value> params,
                     net::TxnStart start) {
    return net::AwaitReply([&](net::ResponseHandler done) {
      session->ExecuteAsync(txn, db, sql, params, 0, std::move(done), start);
    });
  };
  // The same text first runs for shop, so the machine holds a plan for it;
  // sent for "other" it must run against other's table, not shop's.
  net::RpcResponse shop_row = execute(930'000, "shop", select,
                                      {Value(int64_t{1})},
                                      net::TxnStart::kBegin);
  ASSERT_TRUE(shop_row.ok()) << shop_row.message;
  EXPECT_EQ(shop_row.result.at(0, 0).AsString(), "title-1");
  auto engine = controller_->machine(machine)->engine();
  ASSERT_TRUE(engine->Commit(930'000).ok());

  net::RpcResponse other_row = execute(930'001, "other", select,
                                       {Value(int64_t{1})},
                                       net::TxnStart::kBegin);
  ASSERT_TRUE(other_row.ok()) << other_row.message;
  ASSERT_EQ(other_row.result.rows.size(), 1u);
  EXPECT_EQ(other_row.result.at(0, 0).AsString(), "other-1");
  net::RpcResponse other_write =
      execute(930'001, "other", update, {Value(int64_t{0}), Value(int64_t{1})},
              net::TxnStart::kBegun);
  ASSERT_TRUE(other_write.ok()) << other_write.message;
  EXPECT_EQ(other_write.result.affected_rows, 1);
  ASSERT_TRUE(engine->Commit(930'001).ok());
  EXPECT_EQ(StockOn(machine, 1), 50) << "other's write reached shop";
}

TEST_F(PreparedRpcTest,
       PiggybackedBeginWithUnplannableStatementLeavesNoTransaction) {
  Build();
  const int machine = controller_->ReplicasOf("shop")[0];
  net::MachineClient* client = controller_->machine_client();
  auto session = client->OpenSession(machine);
  auto execute = [&](const std::string& sql) {
    return net::AwaitReply([&](net::ResponseHandler done) {
      session->ExecuteAsync(932'000, "shop", sql, {Value(int64_t{1})}, 0,
                            std::move(done), net::TxnStart::kBeginReadOnly);
    });
  };
  // The statement is planned before the begin: refused, nothing begun ...
  net::RpcResponse refused =
      execute("SELECT i_title FROM no_such_table WHERE i_id = ?");
  EXPECT_EQ(refused.code, StatusCode::kNotFound) << refused.message;
  auto active = client->ListActive(machine);
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  EXPECT_TRUE(active->empty());
  // ... so the same request with a statement that plans begins the snapshot.
  net::RpcResponse served =
      execute("SELECT i_title FROM item WHERE i_id = ?");
  ASSERT_TRUE(served.ok()) << served.message;
  EXPECT_EQ(served.result.at(0, 0).AsString(), "title-1");
  active = client->ListActive(machine);
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  EXPECT_EQ(*active, std::vector<uint64_t>{932'000});
  EXPECT_TRUE(controller_->machine(machine)->engine()->Commit(932'000).ok());
}

TEST_F(PreparedRpcTest, ConcurrentPreparedReadersAndWriters) {
  Build();
  constexpr int kThreads = 4;
  constexpr int kOps = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      auto conn = controller_->Connect("shop");
      auto read = conn->Prepare("SELECT i_stock FROM item WHERE i_id = ?");
      auto write = conn->Prepare(
          "UPDATE item SET i_stock = i_stock + ? WHERE i_id = ?");
      ASSERT_TRUE(read.ok() && write.ok());
      for (int i = 0; i < kOps; ++i) {
        int64_t id = (t * kOps + i) % 20;
        if (t % 2 == 0) {
          auto r = conn->ExecutePrepared(*read, {Value(id)});
          if (r.ok()) {
            EXPECT_EQ(r->rows.size(), 1u);
          }
        } else {
          // Lock conflicts may abort individual writes; consistency across
          // replicas is what matters.
          (void)conn->ExecutePrepared(*write, {Value(int64_t{1}), Value(id)});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Replicas stayed consistent under the concurrent prepared write fan-out.
  std::vector<int> replicas = controller_->ReplicasOf("shop");
  std::vector<int64_t> totals;
  for (int id : replicas) {
    auto engine = controller_->machine(id)->engine();
    uint64_t txn = 910'000 + static_cast<uint64_t>(id);
    ASSERT_TRUE(engine->Begin(txn).ok());
    sql::SqlExecutor executor(engine.get());
    auto rows = executor.ExecuteSql(txn, "shop",
                                    "SELECT SUM(i_stock) FROM item", {});
    ASSERT_TRUE(rows.ok());
    totals.push_back(rows->at(0, 0).AsInt());
    ASSERT_TRUE(engine->Commit(txn).ok());
  }
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0], totals[1]);
}

TEST_F(PreparedRpcTest, ExplainWorksOverConnection) {
  Build();
  auto conn = controller_->Connect("shop");
  auto plan = conn->Execute("EXPLAIN SELECT i_title FROM item WHERE i_id = 3");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->columns, std::vector<std::string>{"plan"});
  bool saw_pk_point = false;
  for (const Row& row : plan->rows) {
    if (row.at(0).AsString().find("pk-point") != std::string::npos) {
      saw_pk_point = true;
    }
  }
  EXPECT_TRUE(saw_pk_point);
  // EXPLAIN routes as a read and never mutates: the table is intact.
  auto rows = conn->Execute("SELECT COUNT(*) FROM item");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->at(0, 0).AsInt(), 20);
}

}  // namespace
}  // namespace mtdb
