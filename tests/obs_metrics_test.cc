// Tests for the metrics registry and the live load-feedback path.
//
// The concurrency tests here carry the "sanitizer"/"obs" ctest labels: the
// sharded counter, the registry's shared_mutex fast path, and the histogram
// Merge/Snapshot locking are exactly the code TSan must see under real
// thread interleavings.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/common/histogram.h"
#include "src/obs/load_monitor.h"
#include "src/obs/metrics.h"
#include "src/sla/sla.h"

namespace mtdb {
namespace {

using obs::MetricLabels;
using obs::MetricsRegistry;

TEST(ObsMetricsTest, ConcurrentCountersSumExactly) {
  auto& registry = MetricsRegistry::Global();
  obs::Counter* counter =
      registry.GetCounter("test_concurrent_total", {.machine = "m0"});
  counter->Reset();

  constexpr int kThreads = 8;
  constexpr int kIncrements = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([counter] {
      for (int i = 0; i < kIncrements; ++i) obs::Increment(counter);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kIncrements);
  EXPECT_EQ(registry.CounterValue("test_concurrent_total", {.machine = "m0"}),
            int64_t{kThreads} * kIncrements);
}

TEST(ObsMetricsTest, ConcurrentResolveAndRecordIsSafe) {
  // Threads race GetCounter (registry insert path) against recording on
  // already-resolved series; the same label tuple must map to one series.
  auto& registry = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  constexpr int kOps = 2'000;
  registry.GetCounter("test_resolve_total", {.database = "db0"})->Reset();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      for (int i = 0; i < kOps; ++i) {
        MetricLabels labels{.database = "db" + std::to_string(i % 4)};
        obs::Increment(registry.GetCounter("test_resolve_total", labels));
        (void)t;
      }
    });
  }
  for (auto& w : workers) w.join();
  int64_t total = 0;
  for (int d = 0; d < 4; ++d) {
    total += registry.CounterValue("test_resolve_total",
                                   {.database = "db" + std::to_string(d)});
  }
  EXPECT_EQ(total, int64_t{kThreads} * kOps);
}

TEST(ObsMetricsTest, CardinalityIsBoundedPerFamily) {
  auto& registry = MetricsRegistry::Global();
  // Resolve far more label tuples than the per-family cap; the registry must
  // stop minting new series and fold the excess into the family rollup.
  const size_t kAttempts = MetricsRegistry::kMaxSeriesPerFamily + 100;
  for (size_t i = 0; i < kAttempts; ++i) {
    MetricLabels labels{.operation = "op" + std::to_string(i)};
    obs::Increment(registry.GetCounter("test_cardinality_total", labels));
  }
  // Past-the-cap tuples all landed on the shared rollup series (addressed by
  // the reserved database label, so nothing is silently dropped).
  int64_t rollup = registry.CounterValue(
      "test_cardinality_total",
      {.database = MetricsRegistry::kRollupDatabase});
  EXPECT_EQ(rollup, 100);
  // In-cap tuples kept their own series.
  EXPECT_EQ(registry.CounterValue("test_cardinality_total",
                                  {.operation = "op0"}),
            1);
}

TEST(ObsMetricsTest, EvictDatabaseSeriesFoldsWithoutLosingCounts) {
  auto& registry = MetricsRegistry::Global();
  for (int d = 0; d < 3; ++d) {
    obs::Increment(
        registry.GetCounter("test_evict_total",
                            {.database = "app" + std::to_string(d)}),
        10);
  }
  ASSERT_EQ(registry.SumCounter("test_evict_total"), 30);

  // Evicting one database's series folds its count into the family rollup:
  // the family total is lossless across eviction.
  registry.EvictDatabaseSeries("app1");
  EXPECT_EQ(registry.SumCounter("test_evict_total"), 30);
  EXPECT_EQ(registry.CounterValue(
                "test_evict_total",
                {.database = MetricsRegistry::kRollupDatabase}),
            10);
  // The per-database series is gone; a fresh one mints from zero on reuse.
  EXPECT_EQ(registry.CounterValue("test_evict_total", {.database = "app1"}),
            0);
  obs::Increment(registry.GetCounter("test_evict_total", {.database = "app1"}),
                 5);
  EXPECT_EQ(registry.SumCounter("test_evict_total"), 35);

  // Untouched databases keep their own series.
  EXPECT_EQ(registry.CounterValue("test_evict_total", {.database = "app0"}),
            10);
}

TEST(ObsMetricsTest, RetiredSeriesIsRevivedNotReminted) {
  auto& registry = MetricsRegistry::Global();
  MetricLabels labels{.machine = "m0", .database = "revived"};
  obs::Counter* counter = registry.GetCounter("test_revive_total", labels);
  Histogram* hist = registry.GetHistogram("test_revive_us", labels);
  obs::Increment(counter, 10);
  obs::Observe(hist, 7);

  registry.EvictDatabaseSeries("revived");
  EXPECT_EQ(registry.SumCounter("test_revive_total"), 10);
  // Instrumented code that cached the pointer keeps recording through it.
  obs::Increment(counter, 3);
  EXPECT_EQ(registry.SumCounter("test_revive_total"), 13);

  // Resolving the tuple again hands back the retired object itself ...
  EXPECT_EQ(registry.GetCounter("test_revive_total", labels), counter);
  EXPECT_EQ(registry.GetHistogram("test_revive_us", labels), hist);
  // ... and the stale increments are counted exactly once: on the live
  // series now, no longer through the graveyard.
  EXPECT_EQ(registry.CounterValue("test_revive_total", labels), 3);
  EXPECT_EQ(registry.SumCounter("test_revive_total"), 13);
  obs::Increment(counter, 1);
  EXPECT_EQ(registry.SumCounter("test_revive_total"), 14);

  // Eviction cycles reuse the one object rather than growing a graveyard.
  for (int cycle = 0; cycle < 3; ++cycle) {
    registry.EvictDatabaseSeries("revived");
    EXPECT_EQ(registry.GetCounter("test_revive_total", labels), counter);
  }
  EXPECT_EQ(registry.SumCounter("test_revive_total"), 14);
  EXPECT_EQ(hist->Snapshot().count, 0);  // folded into the rollup
}

TEST(ObsMetricsTest, EvictingOneDatabaseLeavesFiveHundredOthersExact) {
  auto& registry = MetricsRegistry::Global();
  // The victim "n4" is a name prefix of neighbors n40..n49 and n400..n499:
  // eviction must take exactly its own series.
  const std::string victim = "n4";
  std::vector<std::string> others;
  for (int d = 0; d <= 500; ++d) {
    if (d != 4) others.push_back("n" + std::to_string(d));
  }
  ASSERT_EQ(others.size(), 500u);
  int64_t others_total = 0;
  for (size_t i = 0; i < others.size(); ++i) {
    MetricLabels labels{.machine = "m" + std::to_string(i % 4),
                        .database = others[i]};
    int64_t value = static_cast<int64_t>(i) + 1;
    obs::Increment(registry.GetCounter("test_neighbors_total", labels), value);
    obs::Observe(registry.GetHistogram("test_neighbors_us", labels), value);
    others_total += value;
  }
  for (const char* machine : {"m0", "m1"}) {
    MetricLabels labels{.machine = machine, .database = victim};
    obs::Increment(registry.GetCounter("test_neighbors_total", labels), 1000);
    obs::Observe(registry.GetHistogram("test_neighbors_us", labels), 1000);
  }

  registry.EvictDatabaseSeries(victim);

  for (size_t i = 0; i < others.size(); ++i) {
    MetricLabels labels{.machine = "m" + std::to_string(i % 4),
                        .database = others[i]};
    ASSERT_EQ(registry.CounterValue("test_neighbors_total", labels),
              static_cast<int64_t>(i) + 1)
        << others[i];
  }
  EXPECT_EQ(registry.CounterValue("test_neighbors_total",
                                  {.machine = "m0", .database = victim}),
            0);
  EXPECT_EQ(registry.CounterValue(
                "test_neighbors_total",
                {.database = MetricsRegistry::kRollupDatabase}),
            2000);
  EXPECT_EQ(registry.SumCounter("test_neighbors_total"), others_total + 2000);

  int64_t live_observations = 0;
  int64_t rollup_observations = -1;
  for (const obs::SeriesSnapshot& snap : registry.Snapshot()) {
    if (snap.name != "test_neighbors_us") continue;
    if (snap.labels.database == MetricsRegistry::kRollupDatabase) {
      rollup_observations = snap.histogram.count;
      EXPECT_EQ(snap.histogram.max, 1000);
    } else {
      EXPECT_NE(snap.labels.database, victim);
      live_observations += snap.histogram.count;
    }
  }
  EXPECT_EQ(live_observations, 500);
  EXPECT_EQ(rollup_observations, 2);
}

TEST(ObsMetricsTest, TextDumpFormatsLabelsAndHistograms) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test_dump_total", {.machine = "m1", .database = "shop"})
      ->Reset();
  obs::Increment(
      registry.GetCounter("test_dump_total",
                          {.machine = "m1", .database = "shop"}),
      42);
  Histogram* hist = registry.GetHistogram("test_dump_us", {.operation = "Get"});
  hist->Record(100);
  hist->Record(300);

  std::string dump = registry.TextDump();
  EXPECT_NE(dump.find("test_dump_total{machine=\"m1\",database=\"shop\"} 42"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("test_dump_us{operation=\"Get\"} count=2"),
            std::string::npos)
      << dump;
}

TEST(ObsMetricsTest, DisabledRegistryDropsRecordings) {
  auto& registry = MetricsRegistry::Global();
  obs::Counter* counter = registry.GetCounter("test_disabled_total", {});
  counter->Reset();
  MetricsRegistry::SetEnabled(false);
  obs::Increment(counter);
  MetricsRegistry::SetEnabled(true);
#if defined(MTDB_NO_METRICS)
  EXPECT_EQ(counter->Value(), 0);
#else
  EXPECT_EQ(counter->Value(), 0);
  obs::Increment(counter);
  EXPECT_EQ(counter->Value(), 1);
#endif
}

// Regression: Histogram::Merge(self) used to lock the same mutex twice via
// std::scoped_lock(mu_, other.mu_) — undefined behavior. Self-merge must
// double the distribution in place.
TEST(ObsMetricsTest, HistogramSelfMergeDoublesInPlace) {
  Histogram h;
  h.Record(10);
  h.Record(1000);
  h.Merge(h);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4);
  EXPECT_DOUBLE_EQ(snap.mean, (10.0 + 1000.0) / 2);
}

// TSan coverage for the histogram: concurrent Record, Merge (including
// self-merge), and Snapshot must be free of lock-order inversions and races.
TEST(ObsMetricsTest, HistogramConcurrentMergeAndRecord) {
  Histogram a;
  Histogram b;
  std::vector<std::thread> workers;
  workers.emplace_back([&a] {
    for (int i = 0; i < 5'000; ++i) a.Record(i % 1'000);
  });
  workers.emplace_back([&b] {
    for (int i = 0; i < 5'000; ++i) b.Record(i % 1'000);
  });
  // Few merge rounds on purpose: each merge roughly doubles the counts, so
  // the iteration budget must keep count/sum far away from int64 overflow.
  workers.emplace_back([&a, &b] {
    // Merge in both directions: scoped_lock's deadlock-avoidance must hold
    // even while both histograms take recordings.
    for (int i = 0; i < 8; ++i) {
      a.Merge(b);
      b.Merge(a);
    }
  });
  workers.emplace_back([&a] {
    for (int i = 0; i < 8; ++i) {
      a.Merge(a);
      (void)a.Snapshot();
    }
  });
  for (auto& w : workers) w.join();
  EXPECT_GT(a.Snapshot().count, 0);
  EXPECT_GT(b.Snapshot().count, 0);
}

TEST(ObsMetricsTest, ScopedTimerRecordsElapsed) {
  auto& registry = MetricsRegistry::Global();
  Histogram* hist = registry.GetHistogram("test_scoped_us", {});
  int64_t before = hist->Snapshot().count;
  { obs::ScopedTimer timer(hist); }
  EXPECT_EQ(hist->Snapshot().count, before + 1);
}

// End-to-end: a TPC-W-style paced load over the in-proc RPC stack must leave
// non-zero 2PC phase latencies and per-database commit counters behind, and
// the LoadMonitor's throughput estimate must line up with the pace we drove.
TEST(ObsMetricsTest, PacedLoadFeedsCountersAndLoadMonitor) {
  auto& registry = MetricsRegistry::Global();
  MetricLabels shop{.database = "shop"};
  int64_t commits_before = registry.CounterValue("mtdb_txn_commit_total", shop);

  ClusterController controller{ClusterControllerOptions{}};
  controller.AddMachine();
  controller.AddMachine();
  ASSERT_TRUE(controller.CreateDatabaseOn("shop", {0, 1}).ok());
  ASSERT_TRUE(controller
                  .ExecuteDdl("shop",
                              "CREATE TABLE item (i_id INT PRIMARY KEY, "
                              "i_stock INT)")
                  .ok());
  std::vector<Row> rows;
  for (int64_t i = 1; i <= 10; ++i) {
    rows.push_back({Value(i), Value(int64_t{100})});
  }
  ASSERT_TRUE(controller.BulkLoad("shop", "item", rows).ok());

  // ~20 committed write transactions/second for ~1.5 seconds.
  constexpr int kTxns = 30;
  constexpr auto kPeriod = std::chrono::milliseconds(50);
  auto conn = controller.Connect("shop");
  for (int i = 0; i < kTxns; ++i) {
    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Execute("UPDATE item SET i_stock = i_stock - 1 "
                              "WHERE i_id = ?",
                              {Value(int64_t{1 + i % 10})})
                    .ok());
    ASSERT_TRUE(conn->Commit().ok());
    std::this_thread::sleep_until(start + kPeriod);
  }

  // Per-database commit counter advanced by exactly the committed count.
  EXPECT_EQ(registry.CounterValue("mtdb_txn_commit_total", shop),
            commits_before + kTxns);
  // Both 2PC phases saw every write transaction and measured real time.
  HistogramSnapshot prepare =
      registry.GetHistogram("mtdb_2pc_prepare_us", shop)->Snapshot();
  HistogramSnapshot commit =
      registry.GetHistogram("mtdb_2pc_commit_us", shop)->Snapshot();
  EXPECT_GE(prepare.count, kTxns);
  EXPECT_GE(commit.count, kTxns);
  EXPECT_GT(prepare.mean, 0.0);
  EXPECT_GT(commit.mean, 0.0);

  // The LoadMonitor measured the pace we drove: 20 tps nominal, with wide
  // tolerance for scheduler jitter on loaded CI machines.
  double tps = controller.load_monitor()->TpsFor("shop");
  EXPECT_GE(tps, 8.0);
  EXPECT_LE(tps, 40.0);

  // And its requirement estimate is exactly the SLA model run at that
  // throughput — measured load is directly comparable to static profiles.
  controller.load_monitor()->SetSizeHint("shop", 10.0);
  ResourceVector estimate = controller.load_monitor()->EstimateFor("shop");
  ResourceVector expected = sla::EstimateRequirement(
      10.0, controller.load_monitor()->TpsFor("shop"), sla::ProfileModel{});
  EXPECT_NEAR(estimate.cpu, expected.cpu, expected.cpu * 0.5 + 1.0);
  EXPECT_GT(estimate.cpu, sla::ProfileModel{}.cpu_base);
  EXPECT_GT(estimate.memory_mb, 0.0);

  // The demand vector is ready for the placer.
  auto demands = controller.load_monitor()->Demands(/*replicas=*/2);
  ASSERT_FALSE(demands.empty());
  EXPECT_EQ(demands[0].name, "shop");
}

TEST(ObsMetricsTest, LoadMonitorWindowDecaysToZero) {
  obs::LoadMonitor::Options options;
  options.window_us = 100'000;  // 100 ms window
  obs::LoadMonitor monitor(options);
  for (int i = 0; i < 10; ++i) {
    monitor.RecordTxn("db", /*latency_us=*/500, /*wrote=*/true,
                      /*committed=*/true);
  }
  EXPECT_GT(monitor.TpsFor("db"), 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_DOUBLE_EQ(monitor.TpsFor("db"), 0.0);
}

}  // namespace
}  // namespace mtdb
