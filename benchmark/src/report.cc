#include "benchmark/src/report.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "benchmark/src/names.h"
#include "src/obs/metrics.h"

namespace mtdb::bench {
namespace {

constexpr const char* kCounterFamilies[] = {
    "mtdb_sql_parse_total",
    "mtdb_sql_plan_total",
    "mtdb_plan_cache_hit_total",
    "mtdb_plan_cache_miss_total",
    "mtdb_mvcc_snapshot_reads_total",
    "mtdb_wal_syncs_total",
    "mtdb_deadlock_total",
    "mtdb_qos_backoff_total",
    "mtdb_rpc_request_bytes_total",
    "mtdb_rpc_response_bytes_total",
    "mtdb_rebalance_migrations_started_total",
    "mtdb_rebalance_migrations_aborted_total",
    "mtdb_rebalance_bytes_copied_total",
    "mtdb_rebalance_delta_rounds_total",
};

constexpr const char* kHistogramFamilies[] = {
    "mtdb_qos_execute_us",       "mtdb_qos_queue_wait_us",
    "mtdb_lock_wait_us",         "mtdb_wal_group_size",
    "mtdb_wal_flush_latency_us", "mtdb_rebalance_cutover_pause_us",
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Deltas between two registry readings.
struct Delta {
  const RegistryReading& a;
  const RegistryReading& b;

  double Counter(const char* family) const {
    return static_cast<double>(b.counters.at(family) - a.counters.at(family));
  }
  double HistCount(const char* family) const {
    return static_cast<double>(b.histograms.at(family).first -
                               a.histograms.at(family).first);
  }
  double HistSum(const char* family) const {
    return b.histograms.at(family).second - a.histograms.at(family).second;
  }
  double HistMean(const char* family) const {
    return Ratio(HistSum(family), HistCount(family));
  }
};

std::string RpcName(net::RpcType type) {
  return "k" + std::string(net::RpcTypeName(type));
}

// Per-transaction aggregates of one traced transaction tree.
struct TxnView {
  const Span* root = nullptr;
  std::vector<std::pair<int64_t, int64_t>> rpcs;  // [start, end) ns
  double server_us = 0;
  double hop_us = 0;
  int64_t connect_ns = 0;
};

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>>* intervals,
                    int64_t lo, int64_t hi) {
  std::sort(intervals->begin(), intervals->end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = -1;
  for (auto [start, end] : *intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
    if (end <= start) continue;
    if (start > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

bool IsRoot(const Span& span) {
  return span.txn != 0 &&
         (span.kind == SpanKind::kTxn || span.kind == SpanKind::kInteraction);
}

std::unordered_map<uint64_t, TxnView> GroupByTxn(
    const std::vector<const Span*>& spans) {
  std::unordered_map<uint64_t, TxnView> txns;
  for (const Span* span : spans) {
    if (span->txn == 0) continue;
    TxnView& view = txns[span->txn];
    if (IsRoot(*span)) {
      view.root = span;
    } else if (span->kind == SpanKind::kRpc) {
      view.rpcs.emplace_back(span->start_ns, span->end_ns);
      if (span->server_us >= 0) {
        view.server_us += static_cast<double>(span->server_us);
        view.hop_us += static_cast<double>(span->end_ns - span->start_ns) /
                           1e3 -
                       static_cast<double>(span->server_us);
      }
    } else if (span->kind == SpanKind::kConnect) {
      view.connect_ns += span->end_ns - span->start_ns;
    }
  }
  return txns;
}

}  // namespace

double Percentile(std::vector<int64_t>* samples, double p) {
  std::sort(samples->begin(), samples->end());
  size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return static_cast<double>((*samples)[rank - 1]);
}

std::vector<double> WindowValues(const std::vector<Sample>& samples,
                                 int64_t start_ns, int64_t end_ns,
                                 int windows, double p) {
  std::vector<std::vector<int64_t>> per_window(static_cast<size_t>(windows));
  double width = static_cast<double>(end_ns - start_ns) / windows;
  for (const Sample& s : samples) {
    auto w = static_cast<int>(static_cast<double>(s.end_ns - start_ns) / width);
    if (w >= 0 && w < windows) per_window[w].push_back(s.latency_ns);
  }
  std::vector<double> values;
  for (auto& latencies : per_window) {
    if (p < 0) {
      values.push_back(static_cast<double>(latencies.size()) / (width / 1e9));
    } else if (!latencies.empty()) {
      values.push_back(Percentile(&latencies, p) / 1e3);
    }
  }
  return values;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

RegistryReading ReadRegistry(const catalog::CatalogStats& catalog) {
  auto& registry = obs::MetricsRegistry::Global();
  RegistryReading reading;
  for (const char* family : kCounterFamilies) {
    reading.counters[family] = registry.SumCounter(family);
  }
  for (const char* family : kHistogramFamilies) {
    reading.histograms[family] = {0, 0.0};
  }
  for (const obs::SeriesSnapshot& series : registry.Snapshot()) {
    if (series.kind != obs::SeriesSnapshot::Kind::kHistogram) continue;
    auto it = reading.histograms.find(series.name);
    if (it == reading.histograms.end()) continue;
    it->second.first += series.histogram.count;
    it->second.second +=
        static_cast<double>(series.histogram.count) * series.histogram.mean;
  }
  reading.catalog = catalog;
  return reading;
}

std::vector<Metric> PerLayerMetrics(const TracedPass& pass) {
  const std::vector<const Span*>& spans = *pass.spans;
  std::vector<Metric> out;
  auto add = [&out](std::string name, double value, const char* unit) {
    out.push_back({std::move(name), value, unit});
  };

  // --- from spans ---
  constexpr int kKinds = static_cast<int>(SpanKind::kRpc) + 1;
  std::array<double, kKinds> kind_ns{};
  std::array<int64_t, kKinds> kind_n{};
  constexpr int kTypes = 32;
  std::array<int64_t, kTypes> rpc_all{}, rpc_ro{}, rpc_rw{}, rpc_timed{};
  std::array<double, kTypes> rpc_ns{}, rpc_server_us{};
  std::array<double, kInteractionLabels.size()> label_server_us{};
  std::array<int64_t, kInteractionLabels.size()> label_roots{};
  int64_t roots = 0, ro_roots = 0, rw_roots = 0, txn_rpcs = 0;
  for (const Span* span : spans) {
    int kind = static_cast<int>(span->kind);
    kind_ns[kind] += static_cast<double>(span->end_ns - span->start_ns);
    kind_n[kind]++;
    bool labeled = span->label >= 0 &&
                   span->label < static_cast<int>(kInteractionLabels.size());
    if (IsRoot(*span)) {
      roots++;
      (span->txn_class == 1 ? rw_roots : ro_roots)++;
      if (labeled) label_roots[span->label]++;
      continue;
    }
    if (span->kind != SpanKind::kRpc || span->rpc_type >= kTypes) continue;
    int type = span->rpc_type;
    if (span->txn != 0) {
      txn_rpcs++;
      rpc_all[type]++;
      (span->txn_class == 1 ? rpc_rw : rpc_ro)[type]++;
    }
    if (span->server_us >= 0) {
      rpc_timed[type]++;
      rpc_ns[type] += static_cast<double>(span->end_ns - span->start_ns);
      rpc_server_us[type] += static_cast<double>(span->server_us);
      if (labeled) {
        label_server_us[span->label] += static_cast<double>(span->server_us);
      }
    }
  }
  auto kind_mean_us = [&](SpanKind kind) {
    int k = static_cast<int>(kind);
    return Ratio(kind_ns[k], static_cast<double>(kind_n[k])) / 1e3;
  };

  double self_ns = 0;
  int64_t self_n = 0;
  for (auto& [txn, view] : GroupByTxn(spans)) {
    if (view.root == nullptr) continue;
    int64_t wall = view.root->end_ns - view.root->start_ns;
    self_ns += static_cast<double>(
        wall - UnionLength(&view.rpcs, view.root->start_ns, view.root->end_ns));
    self_n++;
  }

  add("cluster.begin_us", kind_mean_us(SpanKind::kBegin), "us");
  add("cluster.read_us", kind_mean_us(SpanKind::kRead), "us");
  add("cluster.write_us", kind_mean_us(SpanKind::kWrite), "us");
  add("cluster.commit_us", kind_mean_us(SpanKind::kCommit), "us");
  add("cluster.connect_per_1k_txn",
      1000.0 * Ratio(static_cast<double>(kind_n[static_cast<int>(
                         SpanKind::kConnect)]),
                     static_cast<double>(roots)),
      "count");
  add("cluster.self_us_per_txn", Ratio(self_ns, static_cast<double>(self_n)) / 1e3,
      "us");

  double n_txn = static_cast<double>(roots);
  add("net.rpcs_per_txn", Ratio(static_cast<double>(txn_rpcs), n_txn),
      "count");
  for (net::RpcType type : kReportedRpcTypes) {
    int t = static_cast<int>(type);
    add("net.rpcs_per_txn." + RpcName(type),
        Ratio(static_cast<double>(rpc_all[t]), n_txn), "count");
  }
  for (net::RpcType type : kReportedRpcTypes) {
    int t = static_cast<int>(type);
    add("net.ro.rpcs_per_txn." + RpcName(type),
        Ratio(static_cast<double>(rpc_ro[t]), static_cast<double>(ro_roots)),
        "count");
  }
  for (net::RpcType type : kReportedRpcTypes) {
    int t = static_cast<int>(type);
    add("net.rw.rpcs_per_txn." + RpcName(type),
        Ratio(static_cast<double>(rpc_rw[t]), static_cast<double>(rw_roots)),
        "count");
  }
  for (net::RpcType type : kReportedRpcTypes) {
    int t = static_cast<int>(type);
    double n = static_cast<double>(rpc_timed[t]);
    double rpc_us = Ratio(rpc_ns[t], n) / 1e3;
    double server_us = Ratio(rpc_server_us[t], n);
    add("net.rpc_us." + RpcName(type), rpc_us, "us");
    add("net.hop_us." + RpcName(type), rpc_us - server_us, "us");
    add("net.server_us." + RpcName(type), server_us, "us");
  }

  // --- from the registry ---
  Delta d{pass.before, pass.after};
  double committed =
      static_cast<double>(pass.stats.ro.size() + pass.stats.rw.size());
  double ro_committed = static_cast<double>(pass.stats.ro.size());
  double rw_committed = static_cast<double>(pass.stats.rw.size());
  double statements = static_cast<double>(
      rpc_all[static_cast<int>(net::RpcType::kExecutePrepared)]);

  add("net.bytes_per_txn",
      Ratio(d.Counter("mtdb_rpc_request_bytes_total") +
                d.Counter("mtdb_rpc_response_bytes_total"),
            committed),
      "B");
  add("qos.queue_wait_us_per_txn",
      Ratio(d.HistSum("mtdb_qos_queue_wait_us"), committed), "us");
  add("qos.throttled_per_1k_txn",
      1000.0 * Ratio(d.Counter("mtdb_qos_backoff_total"), committed), "count");

  double hits = d.Counter("mtdb_plan_cache_hit_total");
  double attempts = hits + d.Counter("mtdb_plan_cache_miss_total");
  add("sql.parses_per_stmt", Ratio(d.Counter("mtdb_sql_parse_total"), statements),
      "count");
  add("sql.plans_per_stmt", Ratio(d.Counter("mtdb_sql_plan_total"), statements),
      "count");
  add("sql.plan_cache_hit_ratio", Ratio(hits, attempts), "ratio");
  add("sql.plan_cache_hits", hits, "count");
  add("sql.plan_cache_attempts", attempts, "count");
  for (size_t l = 0; l < kInteractionLabels.size(); ++l) {
    add("sql.server_us." + std::string(kInteractionLabels[l]),
        Ratio(label_server_us[l], static_cast<double>(label_roots[l])), "us");
  }

  add("storage.execute_us", d.HistMean("mtdb_qos_execute_us"), "us");
  add("storage.lock_wait_us_per_txn",
      Ratio(d.HistSum("mtdb_lock_wait_us"), committed), "us");
  add("storage.deadlocks_per_1k_txn",
      1000.0 * Ratio(d.Counter("mtdb_deadlock_total"), committed), "count");
  add("storage.snapshot_reads_per_ro_txn",
      Ratio(d.Counter("mtdb_mvcc_snapshot_reads_total"), ro_committed),
      "count");
  add("storage.wal_syncs_per_rw_txn",
      Ratio(d.Counter("mtdb_wal_syncs_total"), rw_committed), "count");
  add("storage.wal_group_size", d.HistMean("mtdb_wal_group_size"), "count");
  add("storage.wal_flush_us", d.HistMean("mtdb_wal_flush_latency_us"), "us");
  add("storage.wal_bytes_per_rw_txn",
      Ratio(static_cast<double>(pass.wal_bytes_run),
            static_cast<double>(pass.rw_commits_run)),
      "B");

  add("catalog.reloads_per_1k_txn",
      1000.0 * Ratio(static_cast<double>(pass.after.catalog.reloads -
                                         pass.before.catalog.reloads),
                     committed),
      "count");
  add("catalog.evictions_per_1k_txn",
      1000.0 * Ratio(static_cast<double>(pass.after.catalog.evictions -
                                         pass.before.catalog.evictions),
                     committed),
      "count");
  add("catalog.resident_end", static_cast<double>(pass.after.catalog.resident),
      "count");

  double started = d.Counter("mtdb_rebalance_migrations_started_total");
  std::vector<int64_t> migrate_ns = pass.stats.migrate_ns;
  add("rebalance.migrations", static_cast<double>(migrate_ns.size()), "count");
  add("rebalance.aborted", d.Counter("mtdb_rebalance_migrations_aborted_total"),
      "count");
  add("rebalance.delta_rounds_per_migration",
      Ratio(d.Counter("mtdb_rebalance_delta_rounds_total"), started), "count");
  add("rebalance.bytes_copied_per_migration",
      Ratio(d.Counter("mtdb_rebalance_bytes_copied_total"), started), "B");
  add("rebalance.cutover_pause_us",
      d.HistMean("mtdb_rebalance_cutover_pause_us"), "us");
  add("rebalance.migrate_p50_ms",
      migrate_ns.empty() ? 0 : Percentile(&migrate_ns, 50) / 1e6, "ms");

  add("obs.metrics_share",
      pass.untraced_tps > 0 ? pass.metrics_off_tps / pass.untraced_tps - 1 : 0,
      "ratio");
  add("bench.trace_overhead",
      pass.untraced_tps > 0 ? 1 - pass.traced_tps / pass.untraced_tps : 0,
      "ratio");
  add("bench.failed_ratio",
      Ratio(static_cast<double>(pass.stats.failed()),
            static_cast<double>(pass.stats.attempted())),
      "ratio");
  return out;
}

std::string LayerTable(const TracedPass& pass) {
  struct Row {
    int64_t n = 0;
    double wall = 0, connect = 0, self = 0, net = 0, server = 0, hop = 0;
  };
  std::array<Row, 2> rows;
  for (auto& [txn, view] : GroupByTxn(*pass.spans)) {
    if (view.root == nullptr) continue;
    Row& row = rows[view.root->txn_class == 1 ? 1 : 0];
    int64_t wall = view.root->end_ns - view.root->start_ns;
    int64_t net =
        UnionLength(&view.rpcs, view.root->start_ns, view.root->end_ns);
    row.n++;
    row.wall += static_cast<double>(wall) / 1e3;
    row.connect += static_cast<double>(view.connect_ns) / 1e3;
    row.self += static_cast<double>(wall - net) / 1e3;
    row.net += static_cast<double>(net) / 1e3;
    row.server += view.server_us;
    row.hop += view.hop_us;
  }
  std::string out =
      "  class      txns    wall_us  connect_us  cluster_self_us  "
      "net_union_us  server_sum_us  hop_sum_us\n";
  const char* names[2] = {"read-only", "read-write"};
  for (int c = 0; c < 2; ++c) {
    const Row& r = rows[c];
    double n = static_cast<double>(std::max<int64_t>(r.n, 1));
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  %-10s %7lld %10.1f %11.1f %16.1f %13.1f %14.1f %11.1f\n",
                  names[c], static_cast<long long>(r.n), r.wall / n,
                  r.connect / n, r.self / n, r.net / n, r.server / n,
                  r.hop / n);
    out += line;
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Span*>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id,parent,txn,name,start_ns,end_ns,server_us,ok\n");
  for (const Span* s : spans) {
    std::fprintf(file, "%llu,%llu,%llu,%s,%lld,%lld,%lld,%d\n",
                 static_cast<unsigned long long>(s->id),
                 static_cast<unsigned long long>(s->parent),
                 static_cast<unsigned long long>(s->txn),
                 SpanName(s->kind, s->rpc_type, s->label).c_str(),
                 static_cast<long long>(s->start_ns),
                 static_cast<long long>(s->end_ns),
                 static_cast<long long>(s->server_us), s->ok ? 1 : 0);
  }
  return std::fclose(file) == 0;
}

}  // namespace mtdb::bench
