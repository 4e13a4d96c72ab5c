// Unit tests for the database copy tool (the mysqldump equivalent), whose
// locking behaviour underpins the Theorem 3 correctness argument, and for
// its output: WAL records that WriteAheadLog::Replay installs (and logs) on
// the target.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "src/cluster/recovery.h"
#include "src/common/clock.h"
#include "src/storage/dump.h"

namespace mtdb {
namespace {

class DumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.lock_options.lock_timeout_us = 400'000;
    engine_ = std::make_unique<Engine>("src", options);
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    for (const char* table : {"alpha", "beta"}) {
      ASSERT_TRUE(engine_
                      ->CreateTable("db",
                                    TableSchema(table,
                                                {{"id", ColumnType::kInt64, true},
                                                 {"v", ColumnType::kString,
                                                  false}},
                                                0))
                      .ok());
      std::vector<Row> rows;
      for (int64_t i = 0; i < 6; ++i) {
        rows.push_back({Value(i), Value(std::string(table) + std::to_string(i))});
      }
      ASSERT_TRUE(engine_->BulkInsert("db", table, rows).ok());
    }
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(DumpTest, TableDumpCapturesSchemaAndRows) {
  auto dump = DumpTable(engine_.get(), "db", "alpha", 100);
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->schema.name(), "alpha");
  EXPECT_EQ(dump->rows.size(), 6u);
  // The dump transaction is gone (lock released).
  EXPECT_EQ(engine_->ActiveTxnCount(), 0u);
}

TEST_F(DumpTest, MissingTableFailsCleanly) {
  auto dump = DumpTable(engine_.get(), "db", "nope", 101);
  EXPECT_EQ(dump.status().code(), StatusCode::kNotFound);
  // The failed dump transaction must not linger holding locks.
  EXPECT_EQ(engine_->ActiveTxnCount(), 0u);
}

TEST_F(DumpTest, MissingDatabaseFailsCleanly) {
  auto dump = DumpDatabaseCoarse(engine_.get(), "nope", 102);
  EXPECT_EQ(dump.status().code(), StatusCode::kNotFound);
}

TEST_F(DumpTest, CoarseDumpCapturesAllTables) {
  auto dump = DumpDatabaseCoarse(engine_.get(), "db", 103);
  ASSERT_TRUE(dump.ok());
  ASSERT_EQ(dump->size(), 2u);
  EXPECT_EQ((*dump)[0].schema.name(), "alpha");
  EXPECT_EQ((*dump)[1].schema.name(), "beta");
}

// The copy replayed onto an engine with a WAL is logged there: the target
// holds the source's content, and so does an engine recovered from the
// target's log alone.
TEST_F(DumpTest, ApplyToTargetReproducesContent) {
  auto records = DumpRecords(engine_.get(), "db", "*", 104);
  ASSERT_TRUE(records.ok());
  // Per table: one CREATE TABLE record, then one INSERT per row.
  EXPECT_EQ(records->size(), 2u * (1 + 6));
  const std::string path = ::testing::TempDir() + "mtdb_dump_" +
                           std::to_string(static_cast<long long>(getpid())) +
                           ".wal";
  std::remove(path.c_str());
  EngineOptions options;
  options.wal_path = path;
  auto target = std::make_unique<Engine>("dst", options);
  ASSERT_NE(target->wal(), nullptr);
  ASSERT_TRUE(target->CreateDatabase("db").ok());
  ASSERT_TRUE(WriteAheadLog::ReplayEncoded(*records, target.get()).ok());
  Engine restarted("restarted");
  ASSERT_TRUE(WriteAheadLog::Recover(path, &restarted).ok());
  for (const char* table : {"alpha", "beta"}) {
    const uint64_t expected =
        engine_->GetDatabase("db")->GetTable(table)->ContentFingerprint();
    EXPECT_EQ(target->GetDatabase("db")->GetTable(table)->ContentFingerprint(),
              expected)
        << table;
    Table* recovered = restarted.GetDatabase("db")->GetTable(table);
    ASSERT_NE(recovered, nullptr) << table;
    EXPECT_EQ(recovered->row_count(), 6u) << table;
    EXPECT_EQ(recovered->ContentFingerprint(), expected) << table;
  }
  target.reset();
  std::remove(path.c_str());
}

// The copy creates the database on its target, so a second copy onto a
// machine that already hosts it fails instead of merging into it.
TEST_F(DumpTest, ApplyTwiceFails) {
  ClusterController controller;
  for (int m = 0; m < 3; ++m) controller.AddMachine();
  ASSERT_TRUE(controller.CreateDatabaseOn("db", {0}).ok());
  ASSERT_TRUE(
      controller.ExecuteDdl("db", "CREATE TABLE t (id INT PRIMARY KEY)").ok());
  ASSERT_TRUE(controller.BulkLoad("db", "t", {{Value(int64_t{1})}}).ok());
  for (CopyGranularity granularity :
       {CopyGranularity::kTable, CopyGranularity::kDatabase}) {
    ASSERT_TRUE(CopyReplica(&controller, "db", 0, 1, granularity,
                            /*algorithm1=*/false, 0)
                    .ok());
    EXPECT_EQ(CopyReplica(&controller, "db", 0, 1, granularity,
                          /*algorithm1=*/false, 0)
                  .status()
                  .code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(controller.machine(1)
                  ->engine()
                  ->GetDatabase("db")
                  ->GetTable("t")
                  ->row_count(),
              1u);
    ASSERT_TRUE(controller.machine(1)->engine()->DropDatabase("db").ok());
  }
}

TEST_F(DumpTest, DumpWaitsForWritersAndSeesTheirCommit) {
  // A writer holding an X lock delays the dump; the dump then includes the
  // committed value (the single-object read-only transaction argument of
  // Theorem 3, part 1).
  ASSERT_TRUE(engine_->Begin(1).ok());
  ASSERT_TRUE(engine_
                  ->Update(1, "db", "alpha", Value(int64_t{0}),
                           {Value(int64_t{0}), Value("updated")})
                  .ok());
  std::atomic<bool> dump_done{false};
  std::thread dumper([&] {
    auto dump = DumpTable(engine_.get(), "db", "alpha", 106);
    ASSERT_TRUE(dump.ok());
    EXPECT_EQ(dump->rows[0].first[1].AsString(), "updated");
    dump_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(dump_done);  // still blocked on the writer's IX/X
  ASSERT_TRUE(engine_->Commit(1).ok());
  dumper.join();
}

TEST_F(DumpTest, WritersBlockWhileDumpHoldsTheLock) {
  // With a per-row delay the dump holds its S lock for a while; a writer to
  // the same table must wait, and a writer to another table must not.
  DumpOptions slow;
  slow.per_row_delay_us = 20'000;  // 6 rows -> ~120 ms under lock
  std::atomic<bool> dump_started{false};
  std::thread dumper([&] {
    dump_started = true;
    auto dump = DumpTable(engine_.get(), "db", "alpha", 107, slow);
    ASSERT_TRUE(dump.ok());
  });
  while (!dump_started) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ASSERT_TRUE(engine_->Begin(2).ok());
  // Writer to the *other* table proceeds immediately.
  EXPECT_TRUE(engine_
                  ->Update(2, "db", "beta", Value(int64_t{1}),
                           {Value(int64_t{1}), Value("free")})
                  .ok());
  // Writer to the dumped table blocks until the dump finishes; measure that
  // it took noticeable time rather than failing.
  Stopwatch watch;
  EXPECT_TRUE(engine_
                  ->Update(2, "db", "alpha", Value(int64_t{1}),
                           {Value(int64_t{1}), Value("waited")})
                  .ok());
  EXPECT_GT(watch.ElapsedMicros(), 20'000);
  ASSERT_TRUE(engine_->Commit(2).ok());
  dumper.join();
}

TEST_F(DumpTest, WriteAfterCopyGetsANewerVersion) {
  // Copied rows take the target's own versions; a later write on the new
  // replica must still get a version above every copied row there, which
  // keeps per-object monotonicity for the serializability checker.
  auto records = DumpRecords(engine_.get(), "db", "alpha", 108);
  ASSERT_TRUE(records.ok());
  Engine target("dst");
  ASSERT_TRUE(target.CreateDatabase("db").ok());
  ASSERT_TRUE(WriteAheadLog::ReplayEncoded(*records, &target).ok());
  Table* copied = target.GetDatabase("db")->GetTable("alpha");
  uint64_t max_copied = 0;
  for (auto& [pk, stored] : copied->ScanAll()) {
    (void)pk;
    max_copied = std::max(max_copied, stored.version);
  }
  ASSERT_GT(max_copied, 0u);
  ASSERT_TRUE(target.Begin(1).ok());
  ASSERT_TRUE(target
                  .Update(1, "db", "alpha", Value(int64_t{0}),
                          {Value(int64_t{0}), Value("newer")})
                  .ok());
  ASSERT_TRUE(target.Commit(1).ok());
  EXPECT_GT(copied->Get(Value(int64_t{0}))->version, max_copied);
}

}  // namespace
}  // namespace mtdb
