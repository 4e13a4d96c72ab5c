#ifndef MTDB_BENCHMARK_REPORT_H_
#define MTDB_BENCHMARK_REPORT_H_

// Turning raw samples, spans and registry readings into named metrics.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/src/driver.h"
#include "benchmark/src/trace.h"
#include "src/cluster/catalog/tenant_catalog.h"

namespace mtdb::bench {

// A named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Exact nearest-rank percentile of `samples` (sorted in place), in the
// samples' unit. Requires a non-empty vector.
double Percentile(std::vector<int64_t>* samples, double p);

// Splits [start_ns, end_ns) into `windows` equal windows by each sample's
// end time and returns, per window, the exact p-th percentile latency in
// microseconds (windows without samples are skipped), or with p < 0 the
// window's committed transactions per second.
std::vector<double> WindowValues(const std::vector<Sample>& samples,
                                 int64_t start_ns, int64_t end_ns,
                                 int windows, double p);

double Median(std::vector<double> values);

// The program's own exported counters and histogram sums at one instant,
// read from obs::MetricsRegistry plus the controller's catalog stats.
struct RegistryReading {
  std::map<std::string, int64_t> counters;
  // family -> (count, sum) over all of its series (sum = count x mean).
  std::map<std::string, std::pair<int64_t, double>> histograms;
  catalog::CatalogStats catalog;
};

RegistryReading ReadRegistry(const catalog::CatalogStats& catalog);

// What the traced pass saw, for the per-layer metrics.
struct TracedPass {
  const std::vector<const Span*>* spans = nullptr;
  RegistryReading before;
  RegistryReading after;
  PhaseStats stats;           // the traced pass
  double traced_tps = 0;      // committed/s with tracing on
  double untraced_tps = 0;    // same cluster, tracing off
  double metrics_off_tps = 0; // tracing off, MetricsRegistry disabled
  int64_t wal_bytes_run = 0;  // WAL growth since setup
  int64_t rw_commits_run = 0; // acknowledged rw commits since setup
};

// The per-layer metrics, in BENCHMARK.json order. Metrics of layers the
// workload bypasses read zero.
std::vector<Metric> PerLayerMetrics(const TracedPass& pass);

// Human-readable self-time breakdown of the traced transactions.
std::string LayerTable(const TracedPass& pass);

// Writes the spans as CSV (one line per span).
bool WriteSpans(const std::string& path,
                const std::vector<const Span*>& spans);

}  // namespace mtdb::bench

#endif  // MTDB_BENCHMARK_REPORT_H_
