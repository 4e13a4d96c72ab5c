#ifndef MTDB_OBS_METRICS_H_
#define MTDB_OBS_METRICS_H_

// Process-wide metrics registry: counters, gauges, and latency histograms
// with {machine, database, operation} labels.
//
// Design goals, in order:
//  1. Hot-path recording must be cheap. Callers resolve a series once
//     (GetCounter/GetHistogram at setup time) and then record through the
//     returned pointer: a counter increment is one relaxed atomic add on a
//     cache-line-padded shard, a histogram observation takes the histogram's
//     own mutex (uncontended in practice because series are per-machine).
//  2. Recording must be safe from any thread at any time. Series pointers
//     are stable for the process lifetime (node-based maps of unique_ptr,
//     registry is a leaked singleton), so instrumented code never touches a
//     dangling pointer even during shutdown.
//  3. Cardinality is bounded. Each family caps distinct label tuples at
//     kMaxSeriesPerFamily; past that, recordings fold into a per-family
//     rollup series (exposed with labels {database: "_rollup"}) instead of
//     growing without bound — the aggregate survives even when the
//     individual attribution does not. Per-database series of idle tenants
//     can be evicted (EvictDatabaseSeries) to reclaim label space: counter
//     and histogram contents fold into the rollup, and the series object
//     is retired to the family graveyard, keyed by its label tuple, so
//     pointers cached by instrumented code stay valid. Recordings through
//     such stale pointers still count toward SumCounter. The next Get* for
//     a retired tuple revives the same object instead of minting a new one,
//     so the graveyard holds at most one object per tuple ever seen, not
//     one per eviction.
//  4. Retiring a tenant costs O(that tenant). Series are keyed database
//     first, so one database's series are contiguous in each family's map
//     and EvictDatabaseSeries visits only them.
//
// Metrics can be disabled at runtime (MetricsRegistry::SetEnabled(false))
// or compiled out entirely with -DMTDB_NO_METRICS=1 (cmake -DMTDB_METRICS=OFF),
// which turns every Increment/Observe into a no-op the optimizer deletes.
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/platform/mutex.h"

namespace mtdb::obs {

// Label tuple identifying one series within a metric family. Empty labels
// are omitted from dumps. Keep cardinality low: machine and database names,
// RPC type names — never row keys or SQL text.
struct MetricLabels {
  // Default member initializers keep partial designated initialization
  // ({.database = ...}) clean under -Wextra's missing-field warning.
  std::string machine{};
  std::string database{};
  std::string operation{};
};

// Monotonic counter, sharded across cache-line-padded atomics so concurrent
// writers on different cores do not bounce one line.
class Counter {
 public:
  void Add(int64_t delta) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const {
    int64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  static size_t ShardIndex() {
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           static_cast<size_t>(kShards);
  }
  Shard shards_[kShards];
};

// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// One series in a point-in-time snapshot of the registry.
struct SeriesSnapshot {
  std::string name;
  MetricLabels labels;
  enum class Kind { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
  int64_t value = 0;            // counters and gauges
  HistogramSnapshot histogram;  // histograms
};

class MetricsRegistry {
 public:
  // Distinct label tuples allowed per family before recordings fold into the
  // family's rollup series (labels {database: "_rollup"}).
  static constexpr size_t kMaxSeriesPerFamily = 512;
  // Pseudo-database label the rollup series is exposed (and addressable via
  // CounterValue/GaugeValue) under.
  static constexpr const char* kRollupDatabase = "_rollup";

  // Process-wide registry; never destroyed, so series pointers handed to
  // instrumented code stay valid through static destruction.
  static MetricsRegistry& Global();

  // Resolve-or-create a series. Pointers are stable for the registry's
  // lifetime; call once at setup and cache the result.
  Counter* GetCounter(const std::string& name, const MetricLabels& labels);
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels);
  Histogram* GetHistogram(const std::string& name, const MetricLabels& labels);

  // Runtime kill switch consulted by the Increment/Observe helpers.
#if defined(MTDB_NO_METRICS)
  static bool enabled() { return false; }
  static void SetEnabled(bool) {}
#else
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
#endif

  // Sum of one counter family across all label tuples; 0 if absent.
  int64_t SumCounter(const std::string& name) const;
  // Value of one exact series; 0 if absent.
  int64_t CounterValue(const std::string& name,
                       const MetricLabels& labels) const;
  int64_t GaugeValue(const std::string& name, const MetricLabels& labels) const;

  std::vector<SeriesSnapshot> Snapshot() const;

  // Text exposition, one series per line:
  //   name{machine="m0",database="shop"} 42
  //   name{operation="kPrepare"} count=10 mean=130.0 p50=120 p99=400 max=412
  std::string TextDump() const;

  // Retires every series labeled {database == `database`} across all
  // families, reclaiming label-space for other tenants. Counter values and
  // histogram contents fold into the family rollup (so family aggregates
  // are lossless across eviction); gauges are instantaneous state of a
  // now-idle tenant and are simply dropped. The series objects move to the
  // family graveyard — never freed, so pointers cached by instrumented code
  // stay valid, and counter increments through them still reach
  // SumCounter — until a Get* for the same tuple revives them. Visits only
  // `database`'s series (a range of each family's map), not every series.
  // Called by the tenant catalog's eviction sweep.
  void EvictDatabaseSeries(const std::string& database);

  // Zeroes every registered series (the series themselves stay registered so
  // cached pointers remain live). Test-only.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  // One metric family. `series` and `graveyard` are keyed by LabelKey, which
  // puts the database first, so a database's series form one key range.
  // The graveyard holds retired series (EvictDatabaseSeries) for pointer
  // stability; a retired object moves back to `series` when its tuple is
  // resolved again, so the graveyard is bounded by the distinct tuples ever
  // seen, not by eviction traffic.
  template <typename Series>
  struct Family {
    std::map<std::string, std::unique_ptr<Series>> series;
    std::map<std::string, MetricLabels> labels;
    Series rollup;
    std::map<std::string, std::unique_ptr<Series>> graveyard;
  };
  using CounterFamily = Family<Counter>;
  using GaugeFamily = Family<Gauge>;
  using HistogramFamily = Family<Histogram>;

  // "database\x1fmachine\x1foperation": database first (see Family).
  static std::string LabelKey(const MetricLabels& labels);

#if !defined(MTDB_NO_METRICS)
  static std::atomic<bool> enabled_;
#endif

  mutable platform::SharedMutex mu_{"obs/MetricsRegistry::mu"};
  // Keyed by metric *name* (bounded by the code); the per-tenant dimension
  // inside each family is capped at kMaxSeriesPerFamily and evicted via
  // EvictDatabaseSeries. mtdblint: allow(tenant-map)
  std::map<std::string, CounterFamily> counters_ MTDB_GUARDED_BY(mu_);
  // mtdblint: allow(tenant-map)
  std::map<std::string, GaugeFamily> gauges_ MTDB_GUARDED_BY(mu_);
  // mtdblint: allow(tenant-map)
  std::map<std::string, HistogramFamily> histograms_ MTDB_GUARDED_BY(mu_);
};

// Hot-path recording helpers: tolerate null series (instrumentation not yet
// bound) and compile to nothing under MTDB_NO_METRICS.
inline void Increment(Counter* counter, int64_t delta = 1) {
#if !defined(MTDB_NO_METRICS)
  if (counter != nullptr && MetricsRegistry::enabled()) counter->Add(delta);
#else
  (void)counter;
  (void)delta;
#endif
}

inline void Observe(Histogram* histogram, int64_t value) {
#if !defined(MTDB_NO_METRICS)
  if (histogram != nullptr && MetricsRegistry::enabled()) {
    histogram->Record(value);
  }
#else
  (void)histogram;
  (void)value;
#endif
}

inline void GaugeAdd(Gauge* gauge, int64_t delta) {
#if !defined(MTDB_NO_METRICS)
  if (gauge != nullptr && MetricsRegistry::enabled()) gauge->Add(delta);
#else
  (void)gauge;
  (void)delta;
#endif
}

// Records elapsed microseconds into `histogram` on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_us_(NowMicros()) {}
  ~ScopedTimer() { Observe(histogram_, NowMicros() - start_us_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  int64_t start_us_;
};

}  // namespace mtdb::obs

#endif  // MTDB_OBS_METRICS_H_
