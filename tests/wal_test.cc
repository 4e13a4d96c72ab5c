#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/machine.h"
#include "src/common/random.h"
#include "src/net/machine_service.h"
#include "src/storage/codec.h"
#include "src/storage/engine.h"
#include "src/storage/wal/wal.h"

namespace mtdb {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("mtdb_wal_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  EngineOptions WalOptions() {
    EngineOptions options;
    options.wal_path = path_.string();
    return options;
  }

  std::string ReadFile() {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  void WriteFile(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  TableSchema ItemsSchema() {
    return TableSchema("items",
                       {{"id", ColumnType::kInt64, true},
                        {"name", ColumnType::kString, false},
                        {"price", ColumnType::kDouble, false}},
                       0);
  }

  std::filesystem::path path_;
};

// Values go through the log's binary codec byte for byte: bytes the old
// text format escaped or cut (newline, the field separator, backslash, NUL)
// and the integer and double extremes come back unchanged.
TEST_F(WalTest, ValueCodecRoundTrip) {
  TableSchema schema("vals",
                     {{"id", ColumnType::kInt64, true},
                      {"i", ColumnType::kInt64, false},
                      {"d", ColumnType::kDouble, false},
                      {"s", ColumnType::kString, false}},
                     0);
  const std::vector<Row> rows = {
      {Value(int64_t{1}), Value(), Value(), Value()},
      {Value(int64_t{2}), Value(int64_t{-42}), Value(3.14159), Value("plain")},
      {Value(int64_t{3}), Value(int64_t{INT64_MAX}), Value(-2.5),
       Value("with\nnewline")},
      {Value(int64_t{4}), Value(), Value(), Value(std::string(1, '\x1f'))},
      {Value(int64_t{5}), Value(), Value(), Value("back\\slash")},
      {Value(int64_t{6}), Value(), Value(), Value(std::string("a\0b", 3))},
  };
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", schema).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    for (const Row& row : rows) {
      ASSERT_TRUE(engine.Insert(1, "db", "vals", row).ok());
    }
    ASSERT_TRUE(engine.Commit(1).ok());
  }
  auto records = WriteAheadLog::ReadAll(path_.string());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  std::vector<Row> logged;
  for (const WalRecord& record : *records) {
    if (record.type == WalRecordType::kInsert) logged.push_back(record.row);
  }
  ASSERT_EQ(logged.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ(logged[r].size(), rows[r].size());
    for (size_t c = 0; c < rows[r].size(); ++c) {
      const Value& want = rows[r][c];
      const Value& got = logged[r][c];
      EXPECT_EQ(got.is_null(), want.is_null()) << want.ToString();
      EXPECT_EQ(got.is_int(), want.is_int()) << want.ToString();
      EXPECT_EQ(got.is_double(), want.is_double()) << want.ToString();
      EXPECT_EQ(got, want) << want.ToString();
      if (want.is_string()) {
        EXPECT_EQ(got.AsString(), want.AsString());
      }
    }
  }
}

TEST_F(WalTest, SchemaCodecRoundTrip) {
  TableSchema schema = ItemsSchema();
  ASSERT_TRUE(schema.AddIndex("idx_name", "name").ok());
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", schema).ok());
  }
  auto records = WriteAheadLog::ReadAll(path_.string());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  ASSERT_EQ((*records)[1].type, WalRecordType::kCreateTable);
  const TableSchema& decoded = (*records)[1].schema;
  EXPECT_EQ(decoded.name(), "items");
  EXPECT_EQ(decoded.num_columns(), 3u);
  EXPECT_EQ(decoded.primary_key_index(), 0);
  EXPECT_EQ(decoded.columns()[2].type, ColumnType::kDouble);
  EXPECT_TRUE(decoded.columns()[0].not_null);
  ASSERT_EQ(decoded.indexes().size(), 1u);
  EXPECT_EQ(decoded.indexes()[0].name, "idx_name");
  EXPECT_EQ(decoded.indexes()[0].column_index, 1);
}

// A string with an embedded NUL is logged whole, so recovery installs the
// committed row, not a row cut short at the NUL.
TEST_F(WalTest, EmbeddedNulSurvivesRecovery) {
  const Row row = {Value(int64_t{1}), Value(std::string("a\0b", 3)),
                   Value(int64_t{7})};
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine.Insert(1, "db", "items", row).ok());
    ASSERT_TRUE(engine.Commit(1).ok());
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  auto stored = recovered.GetDatabase("db")->GetTable("items")->Get(
      Value(int64_t{1}));
  ASSERT_TRUE(stored.has_value());
  ASSERT_EQ(stored->values.size(), 3u);
  EXPECT_EQ(stored->values[1].AsString(), std::string("a\0b", 3));
  EXPECT_EQ(stored->values[2], Value(int64_t{7}));
}

TEST_F(WalTest, CommittedTransactionSurvivesRestart) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.CreateIndex("db", "items", "idx_name", "name").ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{1}), Value("book"), Value(9.5)})
                    .ok());
    ASSERT_TRUE(engine.Commit(1).ok());
    // Engine destroyed here: the "machine" power-cycles.
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  ASSERT_TRUE(recovered.HasDatabase("db"));
  Table* items = recovered.GetDatabase("db")->GetTable("items");
  ASSERT_NE(items, nullptr);
  auto row = items->Get(Value(int64_t{1}));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values[1].AsString(), "book");
  EXPECT_DOUBLE_EQ(row->values[2].AsDouble(), 9.5);
  // The secondary index was rebuilt too.
  auto pks = items->IndexLookup(1, Value("book"));
  ASSERT_TRUE(pks.ok());
  EXPECT_EQ(pks->size(), 1u);
}

TEST_F(WalTest, UncommittedTransactionDiscardedAtRecovery) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{1}), Value("winner"), Value(1.0)})
                    .ok());
    ASSERT_TRUE(engine.Commit(1).ok());
    ASSERT_TRUE(engine.Begin(2).ok());
    ASSERT_TRUE(engine
                    .Insert(2, "db", "items",
                            {Value(int64_t{2}), Value("loser"), Value(2.0)})
                    .ok());
    // Crash before commit: no commit record for txn 2.
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  Table* items = recovered.GetDatabase("db")->GetTable("items");
  EXPECT_TRUE(items->Get(Value(int64_t{1})).has_value());
  EXPECT_FALSE(items->Get(Value(int64_t{2})).has_value());
}

TEST_F(WalTest, AbortedTransactionDiscardedAtRecovery) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{1}), Value("x"), Value(1.0)})
                    .ok());
    ASSERT_TRUE(engine.Abort(1).ok());
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  EXPECT_EQ(recovered.GetDatabase("db")->GetTable("items")->row_count(), 0u);
}

TEST_F(WalTest, UpdatesAndDeletesReplayInOrder) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.BulkInsert("db", "items",
                                  {{Value(int64_t{1}), Value("a"), Value(1.0)},
                                   {Value(int64_t{2}), Value("b"), Value(2.0)},
                                   {Value(int64_t{3}), Value("c"), Value(3.0)}})
                    .ok());
    ASSERT_TRUE(engine.Begin(5).ok());
    ASSERT_TRUE(engine
                    .Update(5, "db", "items", Value(int64_t{1}),
                            {Value(int64_t{1}), Value("a2"), Value(10.0)})
                    .ok());
    ASSERT_TRUE(engine.Delete(5, "db", "items", Value(int64_t{2})).ok());
    ASSERT_TRUE(engine.Commit(5).ok());
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  Table* items = recovered.GetDatabase("db")->GetTable("items");
  EXPECT_EQ(items->row_count(), 2u);
  EXPECT_EQ(items->Get(Value(int64_t{1}))->values[1].AsString(), "a2");
  EXPECT_FALSE(items->Get(Value(int64_t{2})).has_value());
  EXPECT_TRUE(items->Get(Value(int64_t{3})).has_value());
}

// A machine that gave a tenant up and later hosts it again restarts with
// the current tenure only: the drop is logged and replays as a drop, so the
// first tenure's rows do not come back under the second.
TEST_F(WalTest, ADroppedDatabaseStaysDroppedAcrossARestart) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.BulkInsert("db", "items",
                                  {{Value(int64_t{1}), Value("a"), Value(1.0)}})
                    .ok());
    ASSERT_TRUE(engine.DropDatabase("db").ok());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{2}), Value("b"), Value(2.0)})
                    .ok());
    ASSERT_TRUE(engine.Commit(1).ok());
  }
  Engine recovered("site2");
  Status status = WriteAheadLog::Recover(path_.string(), &recovered);
  ASSERT_TRUE(status.ok()) << status.ToString();
  Table* items = recovered.GetDatabase("db")->GetTable("items");
  ASSERT_NE(items, nullptr);
  EXPECT_FALSE(items->Get(Value(int64_t{1})).has_value());
  EXPECT_TRUE(items->Get(Value(int64_t{2})).has_value());
  EXPECT_EQ(items->row_count(), 1u);
}

// The same for a table, on both readers of the log: recovery, and a
// migration delta replayed on another engine, which ships the drop like
// the other DDL.
TEST_F(WalTest, ADroppedTableStaysDroppedOnRestartAndInTheDelta) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.BulkInsert("db", "items",
                                  {{Value(int64_t{1}), Value("a"), Value(1.0)}})
                    .ok());
    ASSERT_TRUE(engine.DropTable("db", "items").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.BulkInsert("db", "items",
                                  {{Value(int64_t{2}), Value("b"), Value(2.0)}})
                    .ok());
  }
  uint64_t frontier = 0;
  auto delta = WriteAheadLog::ReadCommittedDeltaSince(path_.string(), "db", 0,
                                                      &frontier);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  Engine recovered("site2");
  Engine replayed("site3");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  ASSERT_TRUE(WriteAheadLog::ReplayEncoded(*delta, &replayed).ok());
  for (Engine* engine : {&recovered, &replayed}) {
    Table* items = engine->GetDatabase("db")->GetTable("items");
    ASSERT_NE(items, nullptr);
    EXPECT_FALSE(items->Get(Value(int64_t{1})).has_value());
    EXPECT_EQ(items->row_count(), 1u);
  }
}

TEST_F(WalTest, TornFinalRecordIgnored) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{1}), Value("ok"), Value(1.0)})
                    .ok());
    ASSERT_TRUE(engine.Commit(1).ok());
  }
  // Simulate a torn write: append garbage with no trailing newline.
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("INS\x1f" "99\x1f" "db\x1f" "items\x1f" "I7", f);  // torn
    std::fclose(f);
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  EXPECT_EQ(recovered.GetDatabase("db")->GetTable("items")->row_count(), 1u);
}

TEST_F(WalTest, RecoveredEngineEqualsOriginal) {
  uint64_t original_fp = 0;
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    Random rng(3);
    uint64_t txn = 1;
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(engine.Begin(txn).ok());
      int64_t id = static_cast<int64_t>(rng.Uniform(20));
      auto existing = engine.Read(txn, "db", "items", Value(id));
      ASSERT_TRUE(existing.ok());
      Status s;
      if (!existing->has_value()) {
        Row row = {Value(id), Value(rng.AlphaString(6)),
                   Value(static_cast<double>(rng.Uniform(100)))};
        s = engine.Insert(txn, "db", "items", row);
      } else if (rng.Bernoulli(0.3)) {
        s = engine.Delete(txn, "db", "items", Value(id));
      } else {
        Row row = {Value(id), Value(rng.AlphaString(6)),
                   Value(static_cast<double>(rng.Uniform(100)))};
        s = engine.Update(txn, "db", "items", Value(id), row);
      }
      ASSERT_TRUE(s.ok());
      if (rng.Bernoulli(0.2)) {
        ASSERT_TRUE(engine.Abort(txn).ok());
      } else {
        ASSERT_TRUE(engine.Commit(txn).ok());
      }
      ++txn;
    }
    original_fp =
        engine.GetDatabase("db")->GetTable("items")->ContentFingerprint();
  }
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  EXPECT_EQ(
      recovered.GetDatabase("db")->GetTable("items")->ContentFingerprint(),
      original_fp);
}

TEST_F(WalTest, ReadAllExposesRecordStream) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.Begin(1).ok());
    ASSERT_TRUE(engine
                    .Insert(1, "db", "items",
                            {Value(int64_t{1}), Value("x"), Value(1.0)})
                    .ok());
    ASSERT_TRUE(engine.Commit(1).ok());
  }
  auto records = WriteAheadLog::ReadAll(path_.string());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);  // CDB, CTB, INS, CMT
  EXPECT_EQ((*records)[0].type, WalRecordType::kCreateDatabase);
  EXPECT_EQ((*records)[1].type, WalRecordType::kCreateTable);
  EXPECT_EQ((*records)[2].type, WalRecordType::kInsert);
  EXPECT_EQ((*records)[2].row.size(), 3u);
  EXPECT_EQ((*records)[3].type, WalRecordType::kCommit);
  EXPECT_EQ((*records)[3].txn_id, 1u);
}

// A log holding bytes that are not a frame — here the text a garbled
// decision record once was — reads as a torn tail: recovery succeeds with
// nothing to replay instead of aborting the process.
TEST_F(WalTest, GarbledTailRecoversEmpty) {
  WriteFile("CMT\x1fzz\n");
  Engine recovered("site2");
  ASSERT_TRUE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
  EXPECT_TRUE(recovered.DatabaseNames().empty());
}

// A complete frame whose payload does not decode is corruption, not a torn
// write: reading the log fails cleanly.
TEST_F(WalTest, CompleteUndecodableFrameIsAnError) {
  std::string frame;
  const size_t start = codec::BeginFrame(&frame);
  frame += "\xff garbage";
  codec::EndFrame(&frame, start);
  WriteFile(frame);
  EXPECT_EQ(WriteAheadLog::ReadAll(path_.string()).status().code(),
            StatusCode::kInvalidArgument);
  Engine recovered("site2");
  EXPECT_FALSE(WriteAheadLog::Recover(path_.string(), &recovered).ok());
}

// A crash can cut the log at any byte. For every truncation offset,
// recovery must succeed and the recovered table must equal the state after
// some committed prefix of the workload, never moving backwards as the cut
// moves later.
TEST_F(WalTest, EveryTruncationRecoversACommittedPrefix) {
  // The observable state: database, table, index count and content.
  auto state_of = [](const Engine& engine) -> std::string {
    Database* db = engine.GetDatabase("db");
    if (db == nullptr) return "none";
    Table* items = db->GetTable("items");
    if (items == nullptr) return "db";
    return "items/" + std::to_string(items->schema().indexes().size()) + "/" +
           std::to_string(items->row_count()) + "/" +
           std::to_string(items->ContentFingerprint());
  };
  // The state after each commit point, taken from a WAL-less engine that
  // runs only the committed operations: the logging engine's own tables
  // also hold the uncommitted writes of its in-flight transactions.
  std::vector<std::string> states = {"none"};
  {
    Engine engine("site", WalOptions());
    Engine committed("committed");
    auto commit_point = [&](const std::function<Status(Engine&)>& op) {
      ASSERT_TRUE(op(engine).ok());
      ASSERT_TRUE(op(committed).ok());
      states.push_back(state_of(committed));
    };
    commit_point([](Engine& e) { return e.CreateDatabase("db"); });
    commit_point([this](Engine& e) {
      return e.CreateTable("db", ItemsSchema());
    });
    commit_point([](Engine& e) {
      return e.CreateIndex("db", "items", "idx_name", "name");
    });
    // Bulk-load rows commit one by one (pseudo-transaction 0), so each row
    // is a commit point of its own.
    for (int64_t id = 1; id <= 3; ++id) {
      commit_point([id](Engine& e) {
        return e.BulkInsert(
            "db", "items",
            {{Value(id), Value("bulk" + std::to_string(id)), Value(1.0)}});
      });
    }
    commit_point([](Engine& e) -> Status {
      MTDB_RETURN_IF_ERROR(e.Begin(10));
      MTDB_RETURN_IF_ERROR(e.Insert(
          10, "db", "items", {Value(int64_t{4}), Value("new"), Value(4.0)}));
      MTDB_RETURN_IF_ERROR(
          e.Update(10, "db", "items", Value(int64_t{1}),
                   {Value(int64_t{1}), Value("upd"), Value(5.0)}));
      MTDB_RETURN_IF_ERROR(e.Delete(10, "db", "items", Value(int64_t{2})));
      return e.Commit(10);
    });
    // Losers, on the logging engine only: aborted, prepared with no
    // decision, and unfinished.
    ASSERT_TRUE(engine.Begin(11).ok());
    ASSERT_TRUE(engine
                    .Insert(11, "db", "items",
                            {Value(int64_t{5}), Value("aborted"), Value(0.0)})
                    .ok());
    ASSERT_TRUE(engine.Abort(11).ok());
    ASSERT_TRUE(engine.Begin(12).ok());
    ASSERT_TRUE(engine
                    .Update(12, "db", "items", Value(int64_t{3}),
                            {Value(int64_t{3}), Value("prepared"), Value(0.0)})
                    .ok());
    ASSERT_TRUE(engine.Prepare(12).ok());
    ASSERT_TRUE(engine.Begin(13).ok());
    ASSERT_TRUE(engine
                    .Insert(13, "db", "items",
                            {Value(int64_t{6}), Value("unfinished"), Value(0.0)})
                    .ok());
    commit_point([](Engine& e) -> Status {
      MTDB_RETURN_IF_ERROR(e.Begin(14));
      MTDB_RETURN_IF_ERROR(
          e.Update(14, "db", "items", Value(int64_t{4}),
                   {Value(int64_t{4}), Value("last"), Value(6.0)}));
      return e.Commit(14);
    });
  }
  const std::string log = ReadFile();
  ASSERT_FALSE(log.empty());
  size_t last_match = 0;
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    WriteFile(log.substr(0, cut));
    Engine recovered("site2");
    Status status = WriteAheadLog::Recover(path_.string(), &recovered);
    ASSERT_TRUE(status.ok()) << "cut " << cut << ": " << status.ToString();
    const std::string state = state_of(recovered);
    size_t match = last_match;
    while (match < states.size() && states[match] != state) ++match;
    ASSERT_LT(match, states.size())
        << "cut " << cut << " recovered " << state
        << ", not a committed prefix at or after state " << last_match;
    last_match = match;
  }
  EXPECT_EQ(last_match, states.size() - 1);
}

// A CREATE TABLE payload for "db": one column "id" of raw type byte
// `column_type` (the primary key), then the given (name, column) indexes.
std::string CreateTablePayload(
    uint8_t column_type,
    const std::vector<std::pair<std::string, uint32_t>>& indexes) {
  std::string out;
  codec::AppendU8(&out, static_cast<uint8_t>(WalRecordType::kCreateTable));
  codec::AppendString(&out, "db");
  codec::AppendString(&out, "bad");
  codec::AppendU32(&out, 1);
  codec::AppendString(&out, "id");
  codec::AppendU8(&out, column_type);
  codec::AppendU8(&out, 1);
  codec::AppendU32(&out, 0);
  codec::AppendU32(&out, static_cast<uint32_t>(indexes.size()));
  for (const auto& [name, column] : indexes) {
    codec::AppendString(&out, name);
    codec::AppendU32(&out, column);
  }
  return out;
}

// kWalDeltaApply carries records from the network (copies and migration
// deltas): a run with one malformed record — garbage, or a schema with an
// unknown column type, an index on a missing column, or an index the schema
// refuses — is refused whole, before anything is applied, instead of
// crashing the machine or installing a table it cannot serve.
TEST_F(WalTest, DeltaApplyRefusesMalformedRecordWithoutApplying) {
  {
    Engine engine("site", WalOptions());
    ASSERT_TRUE(engine.CreateDatabase("db").ok());
    ASSERT_TRUE(engine.CreateTable("db", ItemsSchema()).ok());
    ASSERT_TRUE(engine.BulkInsert("db", "items",
                                  {{Value(int64_t{1}), Value("a"), Value(1.0)}})
                    .ok());
  }
  uint64_t frontier = 0;
  auto delta =
      WriteAheadLog::ReadCommittedDeltaSince(path_.string(), "db", 0, &frontier);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta->size(), 3u);
  EXPECT_EQ(frontier, 3u);

  Machine machine(0, MachineOptions{});
  net::MachineService service(&machine);
  net::RpcRequest request;
  request.type = net::RpcType::kWalDeltaApply;
  request.db_name = "db";
  for (const std::string& garbage :
       {std::string("INS\x1f" "1\x1f" "db\x1f" "t\x1f" "Ixyz"),
        std::string("CMT\x1f" "zz"), std::string(),
        CreateTablePayload(9, {}), CreateTablePayload(0, {{"by_x", 5}}),
        CreateTablePayload(0, {{"twice", 0}, {"twice", 0}})}) {
    request.lines = *delta;
    request.lines.push_back(garbage);
    net::RpcResponse response = service.Dispatch(request);
    EXPECT_EQ(response.code, StatusCode::kInvalidArgument) << response.message;
    EXPECT_FALSE(machine.engine()->HasDatabase("db"));
  }
  // The same payload with a valid type and index is accepted.
  request.lines = *delta;
  request.lines.push_back(CreateTablePayload(0, {{"by_id", 0}}));
  ASSERT_TRUE(service.Dispatch(request).ok());
  EXPECT_EQ(machine.engine()
                ->GetDatabase("db")
                ->GetTable("bad")
                ->schema()
                .indexes()
                .size(),
            1u);
  Table* items = machine.engine()->GetDatabase("db")->GetTable("items");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->row_count(), 1u);
}

}  // namespace
}  // namespace mtdb
