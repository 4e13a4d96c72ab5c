#include "benchmark/src/workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/cluster/rebalance/tenant_migrator.h"
#include "src/common/random.h"
#include "src/sql/executor.h"
#include "src/storage/dump.h"
#include "src/workload/tpcw.h"

namespace mtdb::bench {
namespace {

constexpr int kMachines = 4;
constexpr int kReplicas = 2;

// Transaction ids for the oracles' direct engine reads, far above anything
// the controller mints.
uint64_t NextOracleTxnId() {
  static std::atomic<uint64_t> next{uint64_t{1} << 60};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Every committed row of every table of `db` on one machine, sorted, read
// with the copy tool's dump (S-locked snapshot of committed data).
Result<std::vector<Row>> DumpRows(Engine* engine, const std::string& db) {
  Database* database = engine->GetDatabase(db);
  if (database == nullptr) return Status::NotFound("no database " + db);
  std::vector<Row> all;
  std::vector<std::string> tables = database->TableNames();
  std::sort(tables.begin(), tables.end());
  for (const std::string& table : tables) {
    auto dump = DumpTable(engine, db, table, NextOracleTxnId());
    if (!dump.ok()) return dump.status();
    std::vector<Row> rows;
    rows.reserve(dump->rows.size());
    for (auto& [row, version] : dump->rows) rows.push_back(std::move(row));
    std::sort(rows.begin(), rows.end());
    all.push_back({Value(table), Value(static_cast<int64_t>(rows.size()))});
    all.insert(all.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return all;
}

// All replicas of `db` hold identical data. Returns each replica's rows
// through `rows` (empty on failure).
bool CheckReplicasEqual(ClusterController* controller, const std::string& db,
                        std::vector<std::vector<Row>>* rows,
                        std::vector<std::string>* report) {
  std::vector<int> replicas = controller->ReplicasOf(db);
  if (replicas.size() != static_cast<size_t>(kReplicas)) {
    report->push_back(db + ": " + std::to_string(replicas.size()) +
                      " replicas, expected " + std::to_string(kReplicas));
    return false;
  }
  rows->clear();
  for (int machine : replicas) {
    auto dumped = DumpRows(controller->machine(machine)->engine().get(), db);
    if (!dumped.ok()) {
      report->push_back(db + ": dump on machine " + std::to_string(machine) +
                        " failed: " + dumped.status().ToString());
      return false;
    }
    rows->push_back(std::move(*dumped));
  }
  for (size_t i = 1; i < rows->size(); ++i) {
    if ((*rows)[i] != (*rows)[0]) {
      report->push_back(db + ": replica on machine " +
                        std::to_string(replicas[i]) + " differs from machine " +
                        std::to_string(replicas[0]));
      return false;
    }
  }
  return true;
}

// --- kv workloads: point_rw, many_tenants, live_migration ---

constexpr const char* kCreateKv =
    "CREATE TABLE kv (id INT PRIMARY KEY, val INT, pad VARCHAR(32))";
constexpr const char* kSelectKv = "SELECT id, val, pad FROM kv WHERE id = ?";
constexpr const char* kUpdateKv = "UPDATE kv SET val = val + 1 WHERE id = ?";
constexpr const char* kSumKv = "SELECT SUM(val) FROM kv";

// Share of read-write transactions in every kv workload.
constexpr double kRwShare = 0.2;
// Connections each client session keeps open (LRU), like an application
// server's pool. Each open connection holds one strand thread per machine it
// has talked to, which bounds the pool.
constexpr size_t kPoolSize = 256;
// live_migration: rows of each small tenant.
constexpr int kSmallRows = 100;

struct KvSpec {
  int tenants = 4;
  int rows = 20'000;
  int clients = 4;
  double zipf_theta = 0;  // 0 = uniform tenant choice
  size_t max_resident = 0;
  // live_migration: tenant 0 holds `rows` rows, the others kSmallRows, and
  // only tenant 0 is driven.
  bool migrate = false;
};

class KvWorkload : public Workload {
 public:
  KvWorkload(std::string name, RunConfig config, KvSpec spec)
      : Workload(std::move(name), std::move(config)), spec_(spec) {}

  int clients() const override { return spec_.clients; }
  bool migrates() const override { return spec_.migrate; }

  std::string DataSizes() const override {
    char buf[160];
    if (spec_.migrate) {
      std::snprintf(buf, sizeof(buf),
                    "1 tenant x %d rows + %d tenants x %d rows, x%d replicas",
                    spec_.rows, spec_.tenants - 1, kSmallRows, kReplicas);
    } else {
      std::snprintf(buf, sizeof(buf), "%d tenants x %d rows, x%d replicas",
                    spec_.tenants, spec_.rows, kReplicas);
    }
    return buf;
  }

  void RunClient(int client, Driver* driver) override;
  void RunMigrator(int thread, Driver* driver) override;
  bool CheckOracles(std::vector<std::string>* report) override;

 protected:
  Status Populate() override;
  size_t max_resident() const override { return spec_.max_resident; }

 private:
  struct Pooled {
    std::unique_ptr<Connection> conn;
    std::shared_ptr<PreparedStatement> select;
    std::shared_ptr<PreparedStatement> update;
    uint64_t last_use = 0;
  };

  // What one client knows about its own rows. Only client c writes the
  // rows with id % clients == c, so it knows each one's committed value:
  // the initial value plus its own acknowledged increments. A row whose
  // last commit ended in an error may or may not hold that increment and is
  // not checked again.
  struct Ledger {
    std::unordered_map<int64_t, int64_t> increments;
    std::unordered_set<int64_t> uncertain;
  };

  std::string TenantName(int tenant) const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "app%04d", tenant);
    return buf;
  }
  int RowsOf(int tenant) const {
    return spec_.migrate && tenant > 0 ? kSmallRows : spec_.rows;
  }
  int64_t InitialVal(int tenant, int64_t id) const {
    return static_cast<int64_t>(
        Mix(config_.seed * 1'000'003 + static_cast<uint64_t>(tenant) * 7919 +
            static_cast<uint64_t>(id)) %
        1000);
  }
  std::string Pad(int64_t id) const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      Mix(config_.seed ^ static_cast<uint64_t>(id))));
    return buf;
  }
  int64_t LedgerKey(int tenant, int64_t id) const {
    return static_cast<int64_t>(tenant) * spec_.rows + id;
  }
  // True when `result` is exactly row `id` of kv, holding the latest value
  // this client committed to it.
  bool IsRow(const sql::QueryResult& result, int tenant, int64_t id,
             const Ledger& ledger) const {
    if (result.rows.size() != 1 || result.rows[0].size() != 3) return false;
    const Row& row = result.rows[0];
    if (!row[0].is_int() || row[0].AsInt() != id || !row[1].is_int() ||
        !row[2].is_string() || row[2].AsString() != Pad(id)) {
      return false;
    }
    int64_t key = LedgerKey(tenant, id);
    if (ledger.uncertain.count(key) > 0) return true;
    auto it = ledger.increments.find(key);
    int64_t expected =
        InitialVal(tenant, id) + (it == ledger.increments.end() ? 0 : it->second);
    return row[1].AsInt() == expected;
  }

  Outcome RunTxn(Pooled* pooled, int tenant, bool rw, int64_t k1, int64_t k2,
                 Ledger* ledger, Driver* driver);
  // SUM(val) of kv on one engine, read from an MVCC snapshot, and from the
  // committed rows through the copy tool's dump.
  Result<int64_t> SnapshotSum(Engine* engine, const std::string& db) const;
  Result<int64_t> DumpSum(Engine* engine, const std::string& db) const;

  KvSpec spec_;
  std::vector<int64_t> initial_sum_;
  // Acknowledged read-write commits per tenant.
  std::unique_ptr<std::atomic<int64_t>[]> acked_;
};

Status KvWorkload::Populate() {
  ClusterController* c = controller();
  initial_sum_.assign(static_cast<size_t>(spec_.tenants), 0);
  acked_ = std::make_unique<std::atomic<int64_t>[]>(
      static_cast<size_t>(spec_.tenants));
  for (int t = 0; t < spec_.tenants; ++t) {
    std::string db = TenantName(t);
    Status created;
    if (spec_.migrate) {
      // The big tenant on machines 0 and 1, the small ones on 2 and 3, so
      // machines 2 and 3 are free of the big tenant.
      created = c->CreateDatabaseOn(db, t == 0 ? std::vector<int>{0, 1}
                                               : std::vector<int>{2, 3});
    } else {
      created = c->CreateDatabase(db, kReplicas);
    }
    MTDB_RETURN_IF_ERROR(created);
    MTDB_RETURN_IF_ERROR(c->ExecuteDdl(db, kCreateKv));
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(RowsOf(t)));
    for (int64_t id = 0; id < RowsOf(t); ++id) {
      int64_t val = InitialVal(t, id);
      initial_sum_[static_cast<size_t>(t)] += val;
      rows.push_back({Value(id), Value(val), Value(Pad(id))});
    }
    MTDB_RETURN_IF_ERROR(c->BulkLoad(db, "kv", rows));
    MTDB_RETURN_IF_ERROR(c->PrepareStatement(db, kSelectKv).status());
    MTDB_RETURN_IF_ERROR(c->PrepareStatement(db, kUpdateKv).status());
  }
  return Status::OK();
}

Outcome KvWorkload::RunTxn(Pooled* pooled, int tenant, bool rw, int64_t k1,
                           int64_t k2, Ledger* ledger, Driver* driver) {
  Connection* conn = pooled->conn.get();
  auto fail = [&](const Status& status, Outcome outcome) {
    if (conn->in_transaction()) (void)conn->Abort();
    driver->NoteFailure(TenantName(tenant) + ": " + status.ToString());
    return outcome;
  };
  Status status;
  {
    ScopedSpan span(SpanKind::kBegin);
    status = conn->Begin(/*read_only=*/!rw);
  }
  if (!status.ok()) return fail(status, Classify(status));
  for (int64_t key : {k1, k2}) {
    Result<sql::QueryResult> read = [&] {
      ScopedSpan span(SpanKind::kRead);
      return conn->ExecutePrepared(pooled->select, {Value(key)});
    }();
    if (!read.ok()) return fail(read.status(), Classify(read.status()));
    if (!IsRow(*read, tenant, key, *ledger)) {
      driver->violated.store(true);
      std::string got = read->rows.size() == 1 && read->rows[0].size() == 3 &&
                                read->rows[0][1].is_int()
                            ? std::to_string(read->rows[0][1].AsInt())
                            : "no row";
      return fail(Status::Internal(std::string(rw ? "read-write" : "read-only") +
                                   " point read of id " + std::to_string(key) +
                                   " returned the wrong row (val " + got + ")"),
                  Outcome::kWrongResult);
    }
  }
  if (rw) {
    Result<sql::QueryResult> write = [&] {
      ScopedSpan span(SpanKind::kWrite);
      return conn->ExecutePrepared(pooled->update, {Value(k1)});
    }();
    if (!write.ok()) return fail(write.status(), Classify(write.status()));
    if (write->affected_rows != 1) {
      driver->violated.store(true);
      return fail(Status::Internal("update of id " + std::to_string(k1) +
                                   " touched " +
                                   std::to_string(write->affected_rows)),
                  Outcome::kWrongResult);
    }
  }
  {
    ScopedSpan span(SpanKind::kCommit);
    status = conn->Commit();
  }
  if (!status.ok()) {
    if (rw) ledger->uncertain.insert(LedgerKey(tenant, k1));
    return fail(status, Classify(status));
  }
  if (rw) {
    acked_[static_cast<size_t>(tenant)].fetch_add(1);
    ledger->increments[LedgerKey(tenant, k1)]++;
  }
  return Outcome::kCommitted;
}

void KvWorkload::RunClient(int client, Driver* driver) {
  Random rng(Mix(config_.seed * 31 + static_cast<uint64_t>(client)));
  std::unique_ptr<ZipfianGenerator> zipf;
  if (spec_.zipf_theta > 0) {
    zipf = std::make_unique<ZipfianGenerator>(
        static_cast<uint64_t>(spec_.tenants), spec_.zipf_theta,
        Mix(config_.seed * 37 + static_cast<uint64_t>(client)));
  }
  std::unordered_map<int, Pooled> pool;
  Ledger ledger;
  uint64_t tick = 0;
  const int driven = spec_.migrate ? 1 : spec_.tenants;
  while (!driver->stop.load(std::memory_order_relaxed)) {
    int tenant = zipf != nullptr
                     ? static_cast<int>(zipf->Next())
                     : static_cast<int>(rng.Uniform(
                           static_cast<uint64_t>(driven)));
    bool rw = rng.Bernoulli(kRwShare);
    // Keys from this client's partition only (id % clients == client), so
    // sessions never touch the same row: no lock waits, no deadlocks.
    auto draw_key = [&] {
      uint64_t slots = static_cast<uint64_t>(
          (RowsOf(tenant) - client + spec_.clients - 1) / spec_.clients);
      return static_cast<int64_t>(rng.Uniform(slots)) * spec_.clients + client;
    };
    int64_t k1 = draw_key();
    int64_t k2 = draw_key();

    int phase = driver->BeginTxn(client, rw ? 1 : 0, -1);
    int64_t start = NowNanos();
    Outcome outcome = Outcome::kAborted;
    {
      ScopedSpan root(SpanKind::kTxn);
      auto it = pool.find(tenant);
      if (it == pool.end()) {
        ScopedSpan span(SpanKind::kConnect);
        if (pool.size() >= kPoolSize) {
          auto lru = std::min_element(
              pool.begin(), pool.end(), [](const auto& a, const auto& b) {
                return a.second.last_use < b.second.last_use;
              });
          pool.erase(lru);
        }
        Pooled fresh;
        fresh.conn = controller()->Connect(TenantName(tenant));
        auto select = fresh.conn->Prepare(kSelectKv);
        auto update = fresh.conn->Prepare(kUpdateKv);
        if (select.ok() && update.ok()) {
          fresh.select = *select;
          fresh.update = *update;
          it = pool.emplace(tenant, std::move(fresh)).first;
        } else {
          driver->NoteFailure(TenantName(tenant) + ": prepare failed");
        }
      }
      if (it != pool.end()) {
        it->second.last_use = ++tick;
        outcome = RunTxn(&it->second, tenant, rw, k1, k2, &ledger, driver);
      }
      root.set_ok(outcome == Outcome::kCommitted);
    }
    driver->EndTxn(client, phase, rw, outcome, start);
  }
}

Result<int64_t> KvWorkload::SnapshotSum(Engine* engine,
                                        const std::string& db) const {
  uint64_t txn = NextOracleTxnId();
  MTDB_RETURN_IF_ERROR(engine->Begin(txn, /*read_only=*/true));
  Result<sql::QueryResult> result = [&]() -> Result<sql::QueryResult> {
    auto plan = engine->GetPlan(db, kSumKv);
    if (!plan.ok()) return plan.status();
    sql::SqlExecutor executor(engine);
    return executor.ExecutePlan(txn, db, **plan, {});
  }();
  (void)engine->Commit(txn);
  if (!result.ok()) return result.status();
  if (result->rows.size() != 1 || !result->rows[0][0].is_numeric()) {
    return Status::Internal("SUM(val) returned no number");
  }
  return static_cast<int64_t>(result->rows[0][0].AsDouble());
}

Result<int64_t> KvWorkload::DumpSum(Engine* engine,
                                    const std::string& db) const {
  auto dump = DumpTable(engine, db, "kv", NextOracleTxnId());
  if (!dump.ok()) return dump.status();
  int64_t sum = 0;
  for (const auto& [row, version] : dump->rows) sum += row[1].AsInt();
  return sum;
}

// Moves tenant 0's second replica back and forth between machine 1 and the
// lowest-numbered machine without the tenant, back to back, and checks
// conservation on both replicas after every migration. The clients keep
// running, so the check is a window: every commit acknowledged before the
// read must be in the sum, and at most one unacknowledged commit per client
// may be.
void KvWorkload::RunMigrator(int thread, Driver* driver) {
  ClusterController* c = controller();
  rebalance::TenantMigrator migrator(c);
  const std::string db = TenantName(0);
  while (!driver->stop.load(std::memory_order_relaxed)) {
    std::vector<int> replicas = c->ReplicasOf(db);
    rebalance::MigrationPlan plan;
    plan.database = db;
    plan.source_machine = replicas.back();
    for (int m = 0; m < kMachines; ++m) {
      if (std::find(replicas.begin(), replicas.end(), m) == replicas.end()) {
        plan.target_machine = m;
        break;
      }
    }
    plan.reason = "benchmark";

    int phase = driver->phase.load(std::memory_order_acquire);
    TraceContext& ctx = CurrentTrace();
    if (driver->trace() && phase == kMeasure) {
      ctx.log = driver->logs()[static_cast<size_t>(thread)].get();
    }
    int64_t start = NowNanos();
    Status status;
    {
      ScopedSpan span(SpanKind::kMigrate);
      status = migrator.Migrate(plan);
      span.set_ok(status.ok());
    }
    int64_t elapsed = NowNanos() - start;
    ctx.log = nullptr;
    bool same_phase = driver->phase.load(std::memory_order_acquire) == phase;
    if (!status.ok()) {
      driver->NoteFailure("migrate " + db + ": " + status.ToString());
      if (same_phase) driver->stats(thread, phase).migrations_failed++;
      continue;
    }
    if (same_phase) driver->stats(thread, phase).migrate_ns.push_back(elapsed);

    // Two reads per replica: the committed table contents (the copy
    // tool's S-locked dump) and an MVCC snapshot, which read-only
    // transactions are served from.
    int64_t acked_before = acked_[0].load();
    struct Reading {
      int machine;
      const char* how;
      Result<int64_t> sum;
    };
    std::vector<Reading> readings;
    for (int machine : c->ReplicasOf(db)) {
      std::shared_ptr<Engine> engine = c->machine(machine)->engine();
      readings.push_back({machine, "committed rows", DumpSum(engine.get(), db)});
      readings.push_back({machine, "snapshot", SnapshotSum(engine.get(), db)});
    }
    int64_t acked_after = acked_[0].load();
    for (const Reading& r : readings) {
      std::string where = std::string(r.how) + " SUM(val) on machine " +
                          std::to_string(r.machine) + " after migration " +
                          std::to_string(plan.source_machine) + "->" +
                          std::to_string(plan.target_machine);
      if (!r.sum.ok()) {
        driver->NoteFailure(where + ": " + r.sum.status().ToString());
        driver->violated.store(true);
        continue;
      }
      int64_t delta = *r.sum - initial_sum_[0];
      if (delta < acked_before || delta > acked_after + spec_.clients) {
        driver->NoteFailure(where + " grew by " + std::to_string(delta) +
                            ", acknowledged " + std::to_string(acked_before) +
                            ".." + std::to_string(acked_after));
        driver->violated.store(true);
      }
    }
  }
}

bool KvWorkload::CheckOracles(std::vector<std::string>* report) {
  bool ok = true;
  std::vector<std::vector<Row>> rows;
  for (int t = 0; t < spec_.tenants; ++t) {
    std::string db = TenantName(t);
    if (!CheckReplicasEqual(controller(), db, &rows, report)) {
      ok = false;
      continue;
    }
    // rows[r] = {table marker, kv rows...}; val is column 1.
    int64_t expected = initial_sum_[static_cast<size_t>(t)] +
                       acked_[static_cast<size_t>(t)].load();
    for (size_t r = 0; r < rows.size(); ++r) {
      int64_t sum = 0;
      for (size_t i = 1; i < rows[r].size(); ++i) sum += rows[r][i][1].AsInt();
      if (sum != expected) {
        report->push_back(db + ": replica " + std::to_string(r) +
                          " SUM(val) = " + std::to_string(sum) +
                          ", expected " + std::to_string(expected));
        ok = false;
      }
    }
  }
  return ok;
}

// --- tpcw_browsing ---

class TpcwWorkload : public Workload {
 public:
  TpcwWorkload(std::string name, RunConfig config)
      : Workload(std::move(name), std::move(config)) {
    scale_.items = 1'000;
    scale_.customers = 2'000;
    scale_.initial_orders = 2'000;
    scale_.seed = config_.seed;
  }

  int clients() const override { return kTenants; }

  std::string DataSizes() const override {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%d tenants x TPC-W (items %lld, customers %lld, orders "
                  "%lld), x%d replicas",
                  kTenants, static_cast<long long>(scale_.items),
                  static_cast<long long>(scale_.customers),
                  static_cast<long long>(scale_.initial_orders), kReplicas);
    return buf;
  }

  void RunClient(int client, Driver* driver) override;

  bool CheckOracles(std::vector<std::string>* report) override {
    bool ok = true;
    std::vector<std::vector<Row>> rows;
    for (int t = 0; t < kTenants; ++t) {
      ok &= CheckReplicasEqual(controller(), TenantName(t), &rows, report);
    }
    return ok;
  }

 protected:
  Status Populate() override;
  void CloseSessions() override {
    conns_.clear();
    statements_.clear();
  }

 private:
  static constexpr int kTenants = 4;

  static std::string TenantName(int tenant) {
    return "shop" + std::to_string(tenant);
  }

  workload::TpcwScale scale_;
  // One session per tenant, opened and prepared during setup.
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<workload::TpcwStatements> statements_;
};

Status TpcwWorkload::Populate() {
  ClusterController* c = controller();
  for (int t = 0; t < kTenants; ++t) {
    std::string db = TenantName(t);
    MTDB_RETURN_IF_ERROR(c->CreateDatabase(db, kReplicas));
    MTDB_RETURN_IF_ERROR(workload::CreateTpcwSchema(c, db));
    MTDB_RETURN_IF_ERROR(workload::LoadTpcwData(c, db, scale_));
    conns_.push_back(c->Connect(db));
    auto statements = workload::PrepareTpcwStatements(conns_.back().get());
    MTDB_RETURN_IF_ERROR(statements.status());
    statements_.push_back(*statements);
  }
  return Status::OK();
}

void TpcwWorkload::RunClient(int client, Driver* driver) {
  Random rng(Mix(config_.seed * 41 + static_cast<uint64_t>(client)));
  Connection* conn = conns_[static_cast<size_t>(client)].get();
  const workload::TpcwStatements& statements =
      statements_[static_cast<size_t>(client)];
  while (!driver->stop.load(std::memory_order_relaxed)) {
    workload::Interaction interaction =
        workload::DrawInteraction(workload::TpcwMix::kBrowsing, &rng);
    bool rw = workload::IsWriteInteraction(interaction);
    int phase = driver->BeginTxn(client, rw ? 1 : 0,
                                 static_cast<int8_t>(interaction));
    int64_t start = NowNanos();
    workload::InteractionResult result;
    {
      ScopedSpan root(SpanKind::kInteraction);
      result = workload::RunInteraction(conn, statements, interaction, scale_,
                                        &rng, /*snapshot_reads=*/true);
      root.set_ok(result.status.ok());
    }
    if (!result.status.ok()) {
      driver->NoteFailure(TenantName(client) + ": " +
                          result.status.ToString());
    }
    driver->EndTxn(client, phase, rw, Classify(result.status), start);
  }
}

}  // namespace

// --- Workload ---

const std::vector<std::string>& Workload::Names() {
  static const std::vector<std::string> names = {
      "point_rw", "tpcw_browsing", "many_tenants", "live_migration"};
  return names;
}

std::unique_ptr<Workload> Workload::Create(const std::string& name,
                                           const RunConfig& config) {
  if (name == "point_rw") {
    return std::make_unique<KvWorkload>(name, config, KvSpec{});
  }
  if (name == "tpcw_browsing") {
    return std::make_unique<TpcwWorkload>(name, config);
  }
  if (name == "many_tenants") {
    KvSpec spec;
    spec.tenants = 4'000;
    spec.rows = 100;
    spec.zipf_theta = 0.99;
    spec.max_resident = 512;
    return std::make_unique<KvWorkload>(name, config, spec);
  }
  if (name == "live_migration") {
    KvSpec spec;
    spec.tenants = 4;
    spec.rows = 50'000;
    spec.clients = 3;
    spec.migrate = true;
    return std::make_unique<KvWorkload>(name, config, spec);
  }
  return nullptr;
}

Workload::Workload(std::string name, RunConfig config)
    : config_(std::move(config)), name_(std::move(name)) {}

// Derived members (sessions included) are gone by now, so the virtual
// CloseSessions has nothing left to close.
Workload::~Workload() { TearDown(); }

Status Workload::Setup() {
  TearDown();
  ++generation_;
  transport_ = std::make_unique<TimingTransport>();
  ClusterControllerOptions options;
  options.transport = transport_.get();
  options.default_replicas = kReplicas;
  if (max_resident() > 0) options.catalog.max_resident = max_resident();
  controller_ = std::make_unique<ClusterController>(options);
  for (int m = 0; m < kMachines; ++m) {
    MachineOptions machine;
    machine.base_op_latency_us = 0;
    machine.engine_options.cache_miss_penalty_us = 0;
    machine.engine_options.wal_sync_delay_us = 0;
    machine.engine_options.wal_sync_policy = wal::SyncPolicy::kGroup;
    machine.engine_options.wal_path =
        config_.run_dir + "/" + name_ + "_" + std::to_string(generation_) +
        "_m" + std::to_string(m) + ".wal";
    std::filesystem::remove(machine.engine_options.wal_path);
    wal_paths_.push_back(machine.engine_options.wal_path);
    controller_->AddMachine(machine);
  }
  return Populate();
}

void Workload::TearDown() {
  CloseSessions();
  controller_.reset();
  transport_.reset();
  for (const std::string& path : wal_paths_) {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
  wal_paths_.clear();
}

int64_t Workload::WalBytes() const {
  int64_t total = 0;
  for (const std::string& path : wal_paths_) {
    std::error_code error;
    auto size = std::filesystem::file_size(path, error);
    if (!error) total += static_cast<int64_t>(size);
  }
  return total;
}

}  // namespace mtdb::bench
