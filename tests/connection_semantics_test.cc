// Connection-level semantics of the cluster controller: autocommit,
// transaction state machine, poisoning, and statistics accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "src/cluster/cluster_controller.h"
#include "src/net/inproc_transport.h"

namespace mtdb {
namespace {

class ConnectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    controller_ = std::make_unique<ClusterController>();
    MachineOptions options;
    options.engine_options.lock_options.lock_timeout_us = 200'000;
    controller_->AddMachine(options);
    controller_->AddMachine(options);
    ASSERT_TRUE(controller_->CreateDatabase("db", 2).ok());
    ASSERT_TRUE(
        controller_->ExecuteDdl("db",
                                "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .ok());
  }

  std::unique_ptr<ClusterController> controller_;
};

TEST_F(ConnectionTest, TransactionStateMachine) {
  auto conn = controller_->Connect("db");
  EXPECT_FALSE(conn->in_transaction());
  EXPECT_EQ(conn->Commit().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(conn->Abort().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(conn->Begin().ok());
  EXPECT_TRUE(conn->in_transaction());
  EXPECT_EQ(conn->Begin().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_FALSE(conn->in_transaction());
}

TEST_F(ConnectionTest, AutocommitFailureRollsBack) {
  auto conn = controller_->Connect("db");
  ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (1, 10)").ok());
  // Duplicate key fails and must leave no transaction open.
  auto dup = conn->Execute("INSERT INTO t VALUES (1, 20)");
  EXPECT_FALSE(dup.ok());
  EXPECT_FALSE(conn->in_transaction());
  // The original row is untouched on every replica.
  for (int id : controller_->ReplicasOf("db")) {
    auto row = controller_->machine(id)
                   ->engine()
                   ->GetDatabase("db")
                   ->GetTable("t")
                   ->Get(Value(int64_t{1}));
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(row->values[1].AsInt(), 10);
  }
}

TEST_F(ConnectionTest, PoisonedTransactionRejectsFurtherWork) {
  auto conn = controller_->Connect("db");
  ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (1, 10)").ok());
  ASSERT_TRUE(conn->Begin().ok());
  // A failing statement (duplicate key) poisons the transaction...
  EXPECT_FALSE(conn->Execute("INSERT INTO t VALUES (1, 11)").ok());
  // ...so even a read is refused until rollback.
  auto read = conn->Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(read.status().code(), StatusCode::kAborted);
  // Commit converts into a rollback.
  Status commit = conn->Commit();
  EXPECT_FALSE(commit.ok());
  EXPECT_FALSE(conn->in_transaction());
  // Fresh transactions work again.
  EXPECT_TRUE(conn->Execute("SELECT COUNT(*) FROM t").ok());
}

TEST_F(ConnectionTest, TxnIdsAreUniquePerTransaction) {
  auto conn1 = controller_->Connect("db");
  auto conn2 = controller_->Connect("db");
  ASSERT_TRUE(conn1->Begin().ok());
  ASSERT_TRUE(conn2->Begin().ok());
  EXPECT_NE(conn1->current_txn_id(), conn2->current_txn_id());
  uint64_t first = conn1->current_txn_id();
  ASSERT_TRUE(conn1->Commit().ok());
  ASSERT_TRUE(conn1->Begin().ok());
  EXPECT_NE(conn1->current_txn_id(), first);
  ASSERT_TRUE(conn1->Abort().ok());
  ASSERT_TRUE(conn2->Abort().ok());
}

TEST_F(ConnectionTest, DestructorAbortsOpenTransaction) {
  {
    auto conn = controller_->Connect("db");
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (5, 50)").ok());
    // Connection dropped mid-transaction.
  }
  auto fresh = controller_->Connect("db");
  auto read = fresh->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->at(0, 0).AsInt(), 0);  // rolled back
  EXPECT_EQ(controller_->aborted_transactions(), 1);
}

TEST_F(ConnectionTest, CommitAbortCountersTrack) {
  auto conn = controller_->Connect("db");
  ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (1, 1)").ok());  // commit
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (2, 2)").ok());
  ASSERT_TRUE(conn->Abort().ok());
  EXPECT_EQ(controller_->committed_transactions(), 1);
  EXPECT_EQ(controller_->aborted_transactions(), 1);
}

TEST_F(ConnectionTest, ReadOnlyTransactionSkipsTwoPhaseCommit) {
  auto conn = controller_->Connect("db");
  ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (1, 1)").ok());
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Execute("SELECT v FROM t WHERE id = 1").ok());
  ASSERT_TRUE(conn->Commit().ok());
  // No prepared-state residue anywhere.
  for (int id : controller_->ReplicasOf("db")) {
    EXPECT_TRUE(
        controller_->machine(id)->engine()->PreparedTxnIds().empty());
    EXPECT_EQ(controller_->machine(id)->engine()->ActiveTxnCount(), 0u);
  }
}

TEST_F(ConnectionTest, UnknownDatabaseSurfacesOnUse) {
  auto conn = controller_->Connect("missing");
  auto result = conn->Execute("SELECT 1 FROM t");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ConnectionTest, ParameterizedStatementsThroughController) {
  auto conn = controller_->Connect("db");
  ASSERT_TRUE(conn
                  ->Execute("INSERT INTO t VALUES (?, ?)",
                            {Value(int64_t{9}), Value(int64_t{90})})
                  .ok());
  auto read = conn->Execute("SELECT v FROM t WHERE id = ?",
                            {Value(int64_t{9})});
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->at(0, 0).AsInt(), 90);
}

TEST_F(ConnectionTest, StatsAggregateAcrossEngines) {
  auto conn = controller_->Connect("db");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (?, 0)",
                              {Value(int64_t{i})})
                    .ok());
  }
  // Each write committed on 2 replicas: engine-level commits >= controller
  // commits (controller counts transactions, engines count participants).
  int64_t engine_commits = 0;
  for (int id : controller_->ReplicasOf("db")) {
    engine_commits += controller_->machine(id)->engine()->committed_count();
  }
  EXPECT_EQ(controller_->committed_transactions(), 5);
  EXPECT_EQ(engine_commits, 10);
}

// A snapshot lives on the replica that served its first read. If that
// replica is marked failed, the next read must not quietly begin a second,
// unrelated snapshot on the survivor.
TEST_F(ConnectionTest, SnapshotRefusesReadAfterPinnedReplicaFails) {
  auto conn = controller_->Connect("db");
  ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (1, 1)").ok());
  ASSERT_TRUE(conn->Begin(/*read_only=*/true).ok());
  ASSERT_TRUE(conn->Execute("SELECT v FROM t WHERE id = 1").ok());
  int pinned = -1;
  for (int id : controller_->ReplicasOf("db")) {
    if (controller_->machine(id)->engine()->ActiveTxnCount() > 0) pinned = id;
  }
  ASSERT_NE(pinned, -1) << "no replica holds the snapshot";
  const int survivor = 1 - pinned;
  controller_->FailMachine(pinned);

  auto second = conn->Execute("SELECT v FROM t WHERE id = 1");
  EXPECT_EQ(second.status().code(), StatusCode::kAborted)
      << second.status().ToString();
  EXPECT_EQ(controller_->machine(survivor)->engine()->ActiveTxnCount(), 0u)
      << "a second snapshot was begun on the surviving replica";
  EXPECT_FALSE(conn->Commit().ok());
  EXPECT_FALSE(conn->in_transaction());
}

// The first read to a machine carries the transaction's begin; only a write
// replica no read touched gets a Begin RPC of its own.
TEST_F(ConnectionTest, FirstReadToAMachineCarriesTheBegin) {
  auto conn = controller_->Connect("db");
  ASSERT_TRUE(conn->Execute("INSERT INTO t VALUES (1, 1)").ok());
  std::atomic<int> begins{0};
  std::atomic<int> executes{0};
  std::atomic<int> piggybacked{0};
  net::InProcTransport* transport = controller_->inproc_transport();
  transport->SetFaultHook([&](int, const net::RpcRequest& request) {
    if (request.type == net::RpcType::kBegin) begins.fetch_add(1);
    if (request.type == net::RpcType::kExecutePrepared) {
      executes.fetch_add(1);
      if (request.begin) piggybacked.fetch_add(1);
    }
    return net::InProcTransport::Fault::kDeliver;
  });

  ASSERT_TRUE(conn->Begin(/*read_only=*/true).ok());
  ASSERT_TRUE(conn->Execute("SELECT v FROM t WHERE id = 1").ok());
  EXPECT_NE(conn->snapshot_ts(), 0u);
  ASSERT_TRUE(conn->Execute("SELECT v FROM t WHERE id = 1").ok());
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(begins.load(), 0);
  EXPECT_EQ(executes.load(), 2);
  EXPECT_EQ(piggybacked.load(), 1);

  begins = 0;
  executes = 0;
  piggybacked = 0;
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Execute("SELECT v FROM t WHERE id = 1").ok());
  ASSERT_TRUE(conn->Execute("UPDATE t SET v = 2 WHERE id = 1").ok());
  ASSERT_TRUE(conn->Commit().ok());
  transport->SetFaultHook(nullptr);
  EXPECT_EQ(begins.load(), 1);  // the replica the read did not touch
  EXPECT_EQ(executes.load(), 3);
  EXPECT_EQ(piggybacked.load(), 1);
  for (int id : controller_->ReplicasOf("db")) {
    EXPECT_EQ(controller_->machine(id)->engine()->ActiveTxnCount(), 0u);
  }
}

}  // namespace
}  // namespace mtdb
