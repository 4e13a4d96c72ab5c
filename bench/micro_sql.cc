// Microbenchmark for the split SQL path (parse → plan → execute).
//
// Three sections, all written to BENCH_micro_sql.json (override the path
// with MTDB_BENCH_JSON) and printed as a table:
//
//  1. Stage breakdown — ns/statement spent in parse, plan, and execute for a
//     TPC-W-style point SELECT, measured by timing parse alone, then
//     parse+plan, then the full prepared execution.
//  2. Engine throughput — statements/second for the same statement executed
//     (a) unprepared: Parse + PlanBorrowed + ExecutePlan on every call,
//     (b) text-cached: ExecuteSql with a '?' statement (plan-cache hit), and
//     (c) prepared: a caller-held GetPlan plan run by ExecutePlan.
//  3. Cluster round trip — a TPC-W home-interaction transaction driven over
//     the in-proc RPC path, unprepared (re-parsed at the controller for
//     routing on every call) vs prepared (routing facts held by the
//     statement). Both ship SQL text; the machines plan it through their
//     plan caches.
//     The machine latency model is zeroed so the SQL-path cost dominates.
//     Three interleaved trials per variant; the medians are compared. The
//     prepared transaction's RPCs per transaction, by type, come from
//     deltas of the client-side mtdb_rpc_total{operation} counters.
//
// Exits non-zero if prepared throughput is not strictly above unprepared in
// either comparison, or if a cluster transaction failed — CI runs this as a
// smoke test of the plan cache.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster_controller.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/sql/executor.h"
#include "src/sql/parser.h"
#include "src/sql/planner.h"
#include "src/storage/engine.h"
#include "src/workload/tpcw.h"

namespace mtdb::bench {
namespace {

constexpr int64_t kItems = 1000;
const char* kPointSelect =
    "SELECT i_title, i_cost FROM item WHERE i_id = ?";

std::unique_ptr<Engine> MakeLoadedEngine() {
  auto engine = std::make_unique<Engine>("bench");
  (void)engine->CreateDatabase("db");
  (void)engine->CreateTable(
      "db", TableSchema("item",
                        {{"i_id", ColumnType::kInt64, true},
                         {"i_title", ColumnType::kString, false},
                         {"i_cost", ColumnType::kInt64, false}},
                        0));
  std::vector<Row> rows;
  for (int64_t i = 0; i < kItems; ++i) {
    rows.push_back({Value(i), Value("title_" + std::to_string(i)),
                    Value(i % 100)});
  }
  (void)engine->BulkInsert("db", "item", rows);
  return engine;
}

// Runs `op` repeatedly for ~duration_ms and returns ops/second.
template <typename Op>
double MeasureThroughput(int64_t duration_ms, Op op) {
  Stopwatch watch;
  int64_t ops = 0;
  while (watch.ElapsedMicros() < duration_ms * 1000) {
    op(ops);
    ++ops;
  }
  return static_cast<double>(ops) / watch.ElapsedSeconds();
}

// Average wall time of `op` in nanoseconds over ~duration_ms.
template <typename Op>
double MeasureNs(int64_t duration_ms, Op op) {
  Stopwatch watch;
  int64_t ops = 0;
  while (watch.ElapsedMicros() < duration_ms * 1000) {
    op(ops);
    ++ops;
  }
  return watch.ElapsedSeconds() * 1e9 / static_cast<double>(ops);
}

// Every RpcType a client transaction can issue.
constexpr std::array<net::RpcType, 6> kTxnRpcTypes = {
    net::RpcType::kBegin,          net::RpcType::kExecutePrepared,
    net::RpcType::kPrepare,        net::RpcType::kCommit,
    net::RpcType::kCommitPrepared, net::RpcType::kAbort};

std::array<int64_t, kTxnRpcTypes.size()> TxnRpcCounts() {
  std::array<int64_t, kTxnRpcTypes.size()> counts{};
  for (size_t i = 0; i < kTxnRpcTypes.size(); ++i) {
    counts[i] = obs::MetricsRegistry::Global().CounterValue(
        "mtdb_rpc_total",
        {.operation = std::string(net::RpcTypeName(kTxnRpcTypes[i]))});
  }
  return counts;
}

struct ClusterPair {
  double unprepared_tps = 0;
  double prepared_tps = 0;
  // Prepared transaction: (RpcType name, RPCs per transaction), nonzero
  // types only.
  std::vector<std::pair<std::string, double>> prepared_rpcs_per_txn;
  // Transactions of either variant with a failed statement or commit: the
  // comparison is only meaningful at 0.
  int64_t failed_txns = 0;
};

// One TPC-W home-interaction-shaped transaction (customer row + item row),
// driven over the in-proc RPC path with and without prepared statements.
ClusterPair MeasureClusterRoundTrip(int64_t duration_ms) {
  ClusterControllerOptions options;
  options.default_replicas = 2;
  auto controller = std::make_unique<ClusterController>(options);
  for (int i = 0; i < 3; ++i) {
    // Zero latency model: measure the SQL path, not the simulated disk.
    controller->AddMachine(MachineOptions{});
  }
  if (!controller->CreateDatabase("shop", 2).ok()) return {};
  if (!workload::CreateTpcwSchema(controller.get(), "shop").ok()) return {};
  workload::TpcwScale scale;
  scale.items = 100;
  scale.customers = 100;
  scale.initial_orders = 20;
  if (!workload::LoadTpcwData(controller.get(), "shop", scale).ok()) {
    return {};
  }

  auto conn = controller->Connect("shop");
  const std::string customer_sql =
      "SELECT c_id, c_uname, c_balance FROM customer WHERE c_id = ?";
  const std::string item_sql =
      "SELECT i_id, i_title, i_cost FROM item WHERE i_id = ?";
  auto customer_stmt = conn->Prepare(customer_sql);
  auto item_stmt = conn->Prepare(item_sql);
  if (!customer_stmt.ok() || !item_stmt.ok()) return {};
  Random rng(7);
  int64_t prepared_txns = 0;
  int64_t failed_txns = 0;
  auto measure = [&](bool use_prepared) {
    return MeasureThroughput(duration_ms, [&](int64_t) {
      Value customer(static_cast<int64_t>(rng.Uniform(scale.customers)) + 1);
      Value item(static_cast<int64_t>(rng.Uniform(scale.items)) + 1);
      bool ok = conn->Begin().ok();
      if (use_prepared) {
        ok = conn->ExecutePrepared(*customer_stmt, {customer}).ok() && ok;
        ok = conn->ExecutePrepared(*item_stmt, {item}).ok() && ok;
        ++prepared_txns;
      } else {
        ok = conn->Execute(customer_sql, {customer}).ok() && ok;
        ok = conn->Execute(item_sql, {item}).ok() && ok;
      }
      ok = conn->Commit().ok() && ok;
      if (!ok) ++failed_txns;
    });
  };

  // Interleave the trials so drift (thermal, scheduler, other tenants of
  // the host) hits both variants evenly, and compare the *medians* of 3
  // trials each, as the micro_engine metrics gate does: a best-of
  // comparison rewards whichever variant got the single luckiest window.
  std::array<double, 3> unprepared{};
  std::array<double, 3> prepared{};
  std::array<int64_t, kTxnRpcTypes.size()> prepared_rpcs{};
  for (int trial = 0; trial < 3; ++trial) {
    unprepared[trial] = measure(/*use_prepared=*/false);
    auto before = TxnRpcCounts();
    prepared[trial] = measure(/*use_prepared=*/true);
    auto after = TxnRpcCounts();
    for (size_t i = 0; i < kTxnRpcTypes.size(); ++i) {
      prepared_rpcs[i] += after[i] - before[i];
    }
  }
  std::sort(unprepared.begin(), unprepared.end());
  std::sort(prepared.begin(), prepared.end());
  ClusterPair pair;
  pair.unprepared_tps = unprepared[1];
  pair.prepared_tps = prepared[1];
  pair.failed_txns = failed_txns;
  for (size_t i = 0; i < kTxnRpcTypes.size(); ++i) {
    if (prepared_rpcs[i] == 0 || prepared_txns == 0) continue;
    pair.prepared_rpcs_per_txn.emplace_back(
        std::string(net::RpcTypeName(kTxnRpcTypes[i])),
        static_cast<double>(prepared_rpcs[i]) /
            static_cast<double>(prepared_txns));
  }
  return pair;
}

int Run() {
  const char* env = std::getenv("MTDB_BENCH_MS");
  int64_t duration_ms = env != nullptr ? atoll(env) : 300;
  const char* json_env = std::getenv("MTDB_BENCH_JSON");
  std::string json_path =
      json_env != nullptr ? json_env : "BENCH_micro_sql.json";

  // Zero the registry so the counters reported below cover exactly this run.
  obs::MetricsRegistry::Global().ResetForTest();

  auto engine = MakeLoadedEngine();
  sql::SqlExecutor executor(engine.get());
  sql::Planner planner(engine.get());
  Random rng(1);
  uint64_t txn = 1;
  auto draw = [&rng] {
    return Value(static_cast<int64_t>(rng.Uniform(kItems)));
  };

  // --- Section 1: stage breakdown ---
  PrintHeader("micro_sql", "SQL path stage breakdown and throughput");
  double parse_ns = MeasureNs(duration_ms, [&](int64_t) {
    auto stmt = sql::Parse(kPointSelect);
    if (!stmt.ok()) std::abort();
  });
  double parse_plan_ns = MeasureNs(duration_ms, [&](int64_t) {
    auto stmt = sql::Parse(kPointSelect);
    if (!stmt.ok()) std::abort();
    auto plan = planner.PlanBorrowed("db", *stmt);
    if (!plan.ok()) std::abort();
  });
  auto held = engine->GetPlan("db", kPointSelect);
  if (!held.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 held.status().ToString().c_str());
    return 1;
  }
  double execute_ns = MeasureNs(duration_ms, [&](int64_t) {
    (void)engine->Begin(txn);
    (void)executor.ExecutePlan(txn, "db", **held, {draw()});
    (void)engine->Commit(txn);
    ++txn;
  });
  double plan_ns = parse_plan_ns - parse_ns;
  PrintRow({"stage", "ns/stmt"});
  PrintRow({"parse", Fmt(parse_ns, 0)});
  PrintRow({"plan", Fmt(plan_ns, 0)});
  PrintRow({"execute (prepared)", Fmt(execute_ns, 0)});

  // --- Section 2: engine throughput ---
  double unprepared = MeasureThroughput(duration_ms, [&](int64_t) {
    (void)engine->Begin(txn);
    auto stmt = sql::Parse(kPointSelect);
    auto plan = planner.PlanBorrowed("db", *stmt);
    (void)executor.ExecutePlan(txn, "db", **plan, {draw()});
    (void)engine->Commit(txn);
    ++txn;
  });
  double text_cached = MeasureThroughput(duration_ms, [&](int64_t) {
    (void)engine->Begin(txn);
    (void)executor.ExecuteSql(txn, "db", kPointSelect, {draw()});
    (void)engine->Commit(txn);
    ++txn;
  });
  double prepared = MeasureThroughput(duration_ms, [&](int64_t) {
    (void)engine->Begin(txn);
    (void)executor.ExecutePlan(txn, "db", **held, {draw()});
    (void)engine->Commit(txn);
    ++txn;
  });
  PrintRow({"engine variant", "stmts/sec"});
  PrintRow({"unprepared (parse+plan+execute)", Fmt(unprepared, 0)});
  PrintRow({"text-cached (plan-cache hit)", Fmt(text_cached, 0)});
  PrintRow({"prepared (held plan)", Fmt(prepared, 0)});

  // --- Section 3: cluster round trip ---
  ClusterPair cluster = MeasureClusterRoundTrip(duration_ms);
  PrintRow({"cluster variant", "txns/sec"});
  PrintRow({"unprepared (SQL text over RPC)", Fmt(cluster.unprepared_tps, 0)});
  PrintRow({"prepared (no routing parse)", Fmt(cluster.prepared_tps, 0)});
  PrintRow({"prepared txn RPC type", "RPCs/txn"});
  double rpcs_per_txn = 0;
  std::string rpcs_json;
  for (const auto& [type, per_txn] : cluster.prepared_rpcs_per_txn) {
    PrintRow({type, Fmt(per_txn, 2)});
    rpcs_per_txn += per_txn;
    rpcs_json += "\"" + type + "\": " + Fmt(per_txn, 2) + ", ";
  }
  PrintRow({"total", Fmt(rpcs_per_txn, 2)});
  PrintRow({"failed cluster txns", std::to_string(cluster.failed_txns)});

  // --- Section 4: what the metrics registry saw across the whole run ---
  // The plan-cache hit rate and the per-phase counters come straight from
  // the instrumented SQL path, so the benchmark doubles as a check that the
  // instrumentation is alive where the numbers above say it should be.
  auto& registry = obs::MetricsRegistry::Global();
  int64_t cache_hits = registry.SumCounter("mtdb_plan_cache_hit_total");
  int64_t cache_misses = registry.SumCounter("mtdb_plan_cache_miss_total");
  double hit_rate =
      cache_hits + cache_misses > 0
          ? static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses)
          : 0;
  int64_t parsed = registry.SumCounter("mtdb_sql_parse_total");
  int64_t planned = registry.SumCounter("mtdb_sql_plan_total");
  int64_t executed = registry.SumCounter("mtdb_sql_execute_total");
  PrintRow({"registry counter", "value"});
  PrintRow({"plan-cache hit rate",
            Fmt(hit_rate * 100, 1) + "% (" + std::to_string(cache_hits) +
                "/" + std::to_string(cache_hits + cache_misses) + ")"});
  PrintRow({"statements parsed", std::to_string(parsed)});
  PrintRow({"statements planned", std::to_string(planned)});
  PrintRow({"plans executed", std::to_string(executed)});

  // Benchmark JSON artifact, not a durability path. mtdblint: allow(wal-sync)
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"experiment\": \"micro_sql\",\n"
        "  \"duration_ms_per_measurement\": %lld,\n"
        "  \"stage_ns_per_stmt\": {\"parse\": %.0f, \"plan\": %.0f, "
        "\"execute_prepared\": %.0f},\n"
        "  \"engine_stmts_per_sec\": {\"unprepared\": %.0f, "
        "\"text_cached\": %.0f, \"prepared\": %.0f},\n"
        "  \"cluster_txns_per_sec\": {\"unprepared\": %.0f, "
        "\"prepared\": %.0f},\n"
        "  \"cluster_prepared_rpcs_per_txn\": {%s\"total\": %.2f},\n"
        "  \"cluster_failed_txns\": %lld,\n"
        "  \"speedup\": {\"engine_prepared_over_unprepared\": %.2f, "
        "\"cluster_prepared_over_unprepared\": %.2f},\n"
        "  \"plan_cache\": {\"hits\": %lld, \"misses\": %lld, "
        "\"hit_rate\": %.4f},\n"
        "  \"phase_counters\": {\"parse\": %lld, \"plan\": %lld, "
        "\"execute\": %lld}\n"
        "}\n",
        static_cast<long long>(duration_ms), parse_ns, plan_ns, execute_ns,
        unprepared, text_cached, prepared, cluster.unprepared_tps,
        cluster.prepared_tps, rpcs_json.c_str(), rpcs_per_txn,
        static_cast<long long>(cluster.failed_txns),
        unprepared > 0 ? prepared / unprepared : 0,
        cluster.unprepared_tps > 0
            ? cluster.prepared_tps / cluster.unprepared_tps
            : 0,
        static_cast<long long>(cache_hits),
        static_cast<long long>(cache_misses), hit_rate,
        static_cast<long long>(parsed), static_cast<long long>(planned),
        static_cast<long long>(executed));
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // CI gate: preparing must pay. The engine comparison eliminates parse+plan
  // per call; the cluster comparison eliminates the controller-side routing
  // parse (both variants ship SQL text). Both cluster variants
  // must run their transactions without a failure.
  bool ok = prepared > unprepared &&
            cluster.prepared_tps > cluster.unprepared_tps &&
            cluster.failed_txns == 0;
  std::printf(
      "gate: prepared > unprepared (engine %.2fx, cluster %.2fx), "
      "%lld failed cluster txns: %s\n",
      unprepared > 0 ? prepared / unprepared : 0,
      cluster.unprepared_tps > 0 ? cluster.prepared_tps / cluster.unprepared_tps
                                 : 0,
      static_cast<long long>(cluster.failed_txns), ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mtdb::bench

int main() { return mtdb::bench::Run(); }
