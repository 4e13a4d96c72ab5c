// Tests for the sharded lazy tenant catalog (src/cluster/catalog/):
// lazy materialization, LRU eviction with pin protection, and the
// eviction-is-invisible reload invariant — plus a threaded Acquire/sweep
// race for the TSan job (ctest -L catalog under the tsan preset).
#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/catalog/tenant_catalog.h"
#include "src/cluster/cluster_controller.h"
#include "src/common/clock.h"
#include "src/obs/metrics.h"

namespace mtdb {
namespace {

using catalog::CatalogStats;
using catalog::TenantCatalog;
using catalog::TenantRecord;

TenantRecord RecordOn(std::vector<int> replicas) {
  TenantRecord record;
  record.replicas = std::move(replicas);
  return record;
}

// A registered statement to hang on catalog entries; only the controller
// can construct one, so mint it through a one-machine cluster.
std::shared_ptr<PreparedStatement> MintStatement() {
  ClusterControllerOptions options;
  options.default_replicas = 1;
  ClusterController controller(options);
  controller.AddMachine({});
  EXPECT_TRUE(controller.CreateDatabase("src").ok());
  EXPECT_TRUE(
      controller.ExecuteDdl("src", "CREATE TABLE t (id INT PRIMARY KEY)").ok());
  auto stmt =
      controller.PrepareStatement("src", "SELECT id FROM t WHERE id = ?");
  EXPECT_TRUE(stmt.ok());
  return stmt.ok() ? *stmt : nullptr;
}

TEST(TenantCatalogTest, InstallIsDurableButNotResident) {
  TenantCatalog cat;
  cat.Install("app0", RecordOn({0, 1}));

  // Installing makes the tenant routable but materializes nothing: an idle
  // tenant costs only its durable record.
  EXPECT_TRUE(cat.Contains("app0"));
  EXPECT_EQ(cat.tenant_count(), 1u);
  EXPECT_EQ(cat.resident_count(), 0u);

  std::vector<int> replicas;
  ASSERT_TRUE(cat.With("app0", [&](const TenantRecord& record) {
                    replicas = record.replicas;
                  }).ok());
  EXPECT_EQ(replicas, (std::vector<int>{0, 1}));
}

TEST(TenantCatalogTest, AcquireMaterializesLazily) {
  TenantCatalog cat;
  cat.Install("app0", RecordOn({0}));

  {
    TenantCatalog::TenantRef ref = cat.Acquire("app0");
    ASSERT_TRUE(ref.valid());
    EXPECT_EQ(cat.resident_count(), 1u);
    CatalogStats stats = cat.Stats();
    EXPECT_EQ(stats.pinned, 1);
    // First materialization is not a reload.
    EXPECT_EQ(stats.reloads, 0);
  }
  // Release drops the pin; resident state stays until evicted.
  EXPECT_EQ(cat.Stats().pinned, 0);
  EXPECT_EQ(cat.resident_count(), 1u);
}

TEST(TenantCatalogTest, AcquireUnknownTenantIsInvalid) {
  TenantCatalog cat;
  TenantCatalog::TenantRef ref = cat.Acquire("nope");
  EXPECT_FALSE(ref.valid());
  ref.Release();  // no-op, must not crash
  EXPECT_EQ(cat.Stats().pinned, 0);
}

TEST(TenantCatalogTest, ReserveBlocksRoutingUntilInstall) {
  TenantCatalog cat;
  ASSERT_TRUE(cat.Reserve("app0").ok());
  // Visible to duplicate-create checks, but not routable yet.
  EXPECT_TRUE(cat.Contains("app0"));
  EXPECT_EQ(cat.Reserve("app0").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(cat.With("app0", [](const TenantRecord&) {}).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(cat.Acquire("app0").valid());

  cat.Install("app0", RecordOn({0}));
  EXPECT_TRUE(cat.With("app0", [](const TenantRecord&) {}).ok());

  // AbortReserve rolls a failed creation all the way back.
  ASSERT_TRUE(cat.Reserve("app1").ok());
  cat.AbortReserve("app1");
  EXPECT_FALSE(cat.Contains("app1"));
  EXPECT_TRUE(cat.Reserve("app1").ok());
}

TEST(TenantCatalogTest, EvictionPrefersOldestAndNotifiesListener) {
  TenantCatalog::Options options;
  options.shards = 1;  // single shard => strict cross-tenant LRU order
  options.max_resident = 64;
  TenantCatalog cat(options);

  std::vector<std::string> evicted;
  cat.SetEvictionListener(
      [&](const std::string& tenant) { evicted.push_back(tenant); });

  for (int i = 0; i < 4; ++i) {
    std::string name = "app" + std::to_string(i);
    cat.Install(name, RecordOn({0}));
    cat.Acquire(name).Release();
    // Distinct last_active_us timestamps even on a coarse clock.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(cat.resident_count(), 4u);

  EXPECT_EQ(cat.EvictResidentDownTo(2), 2u);
  EXPECT_EQ(cat.resident_count(), 2u);
  // Oldest-first: app0 and app1 go, app2 and app3 stay.
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], "app0");
  EXPECT_EQ(evicted[1], "app1");
  EXPECT_EQ(cat.Stats().evictions, 2);
}

TEST(TenantCatalogTest, PinnedTenantIsNeverEvicted) {
  TenantCatalog cat;
  cat.Install("pinned", RecordOn({0}));
  cat.Install("idle", RecordOn({0}));

  TenantCatalog::TenantRef ref = cat.Acquire("pinned");
  cat.Acquire("idle").Release();
  ASSERT_EQ(cat.resident_count(), 2u);

  // Even an evict-everything sweep must skip the pinned tenant: it has a
  // transaction in flight.
  (void)cat.EvictResidentDownTo(0);
  EXPECT_EQ(cat.resident_count(), 1u);
  CatalogStats stats = cat.Stats();
  EXPECT_EQ(stats.pinned, 1);
  EXPECT_EQ(stats.evictions, 1);

  // Once released it becomes fair game.
  ref.Release();
  (void)cat.EvictResidentDownTo(0);
  EXPECT_EQ(cat.resident_count(), 0u);

  // And the reload path still works: eviction is invisible to correctness.
  TenantCatalog::TenantRef again = cat.Acquire("pinned");
  EXPECT_TRUE(again.valid());
  EXPECT_GE(cat.Stats().reloads, 1);
}

TEST(TenantCatalogTest, AcquirePastCapSweepsIdleTenants) {
  TenantCatalog::Options options;
  options.shards = 1;
  options.max_resident = 8;
  TenantCatalog cat(options);

  for (int i = 0; i < 32; ++i) {
    std::string name = "app" + std::to_string(i);
    cat.Install(name, RecordOn({0}));
    cat.Acquire(name).Release();
  }
  // Steady state: the Acquire path itself keeps residency at or under the
  // cap; no external sweeper needed.
  EXPECT_LE(cat.resident_count(), 8u);
  EXPECT_EQ(cat.tenant_count(), 32u);
  EXPECT_GT(cat.Stats().evictions, 0);
}

TEST(TenantCatalogTest, EraseWhilePinnedKeepsCountsBalanced) {
  TenantCatalog cat;
  cat.Install("app0", RecordOn({0}));
  TenantCatalog::TenantRef ref = cat.Acquire("app0");
  ASSERT_TRUE(cat.Erase("app0").ok());
  EXPECT_FALSE(cat.Contains("app0"));
  // Releasing a ref whose tenant is gone must not crash or underflow.
  ref.Release();
  CatalogStats stats = cat.Stats();
  EXPECT_EQ(stats.tenants, 0);
  EXPECT_EQ(stats.resident, 0);
}

TEST(TenantCatalogTest, ConcurrentAcquireAndSweep) {
  TenantCatalog::Options options;
  options.shards = 4;
  options.max_resident = 8;
  TenantCatalog cat(options);

  constexpr int kTenants = 64;
  for (int i = 0; i < kTenants; ++i) {
    cat.Install("app" + std::to_string(i), RecordOn({0}));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Acquirers: pin random-ish tenants, briefly, from several threads.
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cat, t] {
      for (int i = 0; i < 400; ++i) {
        int id = (i * 31 + t * 17) % kTenants;
        TenantCatalog::TenantRef ref =
            cat.Acquire("app" + std::to_string(id));
        ASSERT_TRUE(ref.valid());
      }
    });
  }
  // Sweeper: races full evictions against the acquirers.
  threads.emplace_back([&cat, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)cat.EvictResidentDownTo(0);
      std::this_thread::yield();
    }
  });
  for (size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();

  CatalogStats stats = cat.Stats();
  EXPECT_EQ(stats.pinned, 0);
  EXPECT_EQ(stats.tenants, kTenants);
  // Every tenant still answers after the storm.
  for (int i = 0; i < kTenants; ++i) {
    EXPECT_TRUE(cat.Acquire("app" + std::to_string(i)).valid());
  }
}

TEST(TenantCatalogTest, EvictionIsExactLruAcrossShards) {
  std::shared_ptr<PreparedStatement> stmt = MintStatement();
  ASSERT_NE(stmt, nullptr);
  const std::string& sql = stmt->sql();
  TenantCatalog cat;  // 16 shards: the names spread over all of them

  // Model of the evictable tenants, coldest first: a touch moves a tenant
  // to the hot end, a pin takes it off until its last release.
  std::vector<std::string> model;
  std::map<std::string, std::deque<TenantCatalog::TenantRef>> pins;
  auto to_hot_end = [&](const std::string& name) {
    model.erase(std::remove(model.begin(), model.end(), name), model.end());
    model.push_back(name);
  };
  auto pinned = [&](const std::string& name) { return !pins[name].empty(); };

  constexpr int kTenants = 24;
  std::vector<std::string> names;
  for (int i = 0; i < kTenants; ++i) {
    names.push_back("app" + std::to_string(i));
    cat.Install(names.back(), RecordOn({0}));
    cat.Acquire(names.back()).Release();
    ASSERT_EQ(cat.InternPrepared(names.back(), sql, stmt), stmt);
    to_hot_end(names.back());
  }

  // Interleaved touches, back to back with no sleeps: the order is the
  // order of the calls, not of clock readings.
  std::deque<std::string> pin_order;
  for (int k = 0; k < kTenants * 4; ++k) {
    const std::string& name = names[(k * 7 + 3) % kTenants];
    switch (k % 4) {
      case 0:  // Acquire + Unpin
        cat.Acquire(name).Release();
        if (!pinned(name)) to_hot_end(name);
        break;
      case 1:  // FindPrepared
        ASSERT_EQ(cat.FindPrepared(name, sql), stmt);
        if (!pinned(name)) to_hot_end(name);
        break;
      case 2:  // pin: off the list until released
        pins[name].push_back(cat.Acquire(name));
        pin_order.push_back(name);
        model.erase(std::remove(model.begin(), model.end(), name),
                    model.end());
        break;
      case 3:  // Unpin the oldest pin
        if (!pin_order.empty()) {
          std::string oldest = pin_order.front();
          pin_order.pop_front();
          pins[oldest].pop_front();
          if (!pinned(oldest)) to_hot_end(oldest);
        }
        break;
    }
  }
  while (!pin_order.empty()) {
    std::string oldest = pin_order.front();
    pin_order.pop_front();
    pins[oldest].pop_front();
    if (!pinned(oldest)) to_hot_end(oldest);
  }
  ASSERT_EQ(model.size(), static_cast<size_t>(kTenants));

  std::vector<std::string> evicted;
  cat.SetEvictionListener(
      [&](const std::string& tenant) { evicted.push_back(tenant); });
  EXPECT_EQ(cat.EvictResidentDownTo(0), static_cast<size_t>(kTenants));
  EXPECT_EQ(evicted, model);
}

TEST(TenantCatalogTest, ConcurrentAcquirePastCapStaysBoundedAndBalanced) {
  std::shared_ptr<PreparedStatement> stmt = MintStatement();
  ASSERT_NE(stmt, nullptr);
  const std::string& sql = stmt->sql();
  TenantCatalog::Options options;
  options.max_resident = 32;
  TenantCatalog cat(options);

  constexpr int kTenants = 512;
  constexpr int kThreads = 8;
  constexpr int kRounds = 1000;
  for (int i = 0; i < kTenants; ++i) {
    cat.Install("app" + std::to_string(i), RecordOn({0}));
  }

  std::atomic<size_t> max_resident{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      size_t seen = 0;
      for (int i = 0; i < kRounds; ++i) {
        // Stride 17 is coprime with 512: each thread visits every tenant.
        std::string name =
            "app" + std::to_string((t * 131 + i * 17) % kTenants);
        TenantCatalog::TenantRef ref = cat.Acquire(name);
        ASSERT_TRUE(ref.valid());
        if (i % 3 == 0) {
          (void)cat.InternPrepared(name, sql, stmt);
        } else if (i % 3 == 1) {
          (void)cat.FindPrepared(name, sql);
        }
        seen = std::max(seen, cat.resident_count());
      }
      size_t prev = max_resident.load();
      while (seen > prev && !max_resident.compare_exchange_weak(prev, seen)) {
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // An Acquire that finds a sweep running evicts one tenant for the one
  // it added, so the overshoot is at most one per thread.
  EXPECT_LE(max_resident.load(), options.max_resident + kThreads);
  CatalogStats stats = cat.Stats();
  EXPECT_EQ(stats.pinned, 0);
  EXPECT_EQ(static_cast<size_t>(stats.resident), cat.resident_count());
  EXPECT_LE(stats.resident, static_cast<int64_t>(options.max_resident) +
                                kThreads);
  // Every materialization (first load or reload) is resident or evicted.
  EXPECT_EQ(stats.evictions + stats.resident, kTenants + stats.reloads);
  // One statement text, so at most one registration per resident tenant.
  EXPECT_LE(stats.prepared, stats.resident);

  EXPECT_EQ(cat.EvictResidentDownTo(0), static_cast<size_t>(stats.resident));
  stats = cat.Stats();
  EXPECT_EQ(stats.resident, 0);
  EXPECT_EQ(stats.prepared, 0);
  EXPECT_EQ(stats.pinned, 0);
  EXPECT_GT(stats.prepared_evicted, 0);
}

// --- Controller-level coverage: the catalog wired into the real stack ---

class ControllerCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::Global().ResetForTest(); }
};

TEST_F(ControllerCatalogTest, PreparedRegistryEvictsPerTenantLru) {
  ClusterControllerOptions options;
  options.default_replicas = 1;
  options.catalog.max_prepared_per_tenant = 2;
  ClusterController controller(options);
  controller.AddMachine({});
  ASSERT_TRUE(controller.CreateDatabase("app").ok());
  ASSERT_TRUE(
      controller.ExecuteDdl("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
          .ok());

  auto* cat = controller.tenant_catalog();
  ASSERT_TRUE(
      controller.PrepareStatement("app", "SELECT v FROM t WHERE id = ?").ok());
  ASSERT_TRUE(
      controller.PrepareStatement("app", "SELECT id FROM t WHERE v = ?").ok());
  EXPECT_EQ(cat->prepared_count(), 2u);
  EXPECT_EQ(cat->Stats().prepared_evicted, 0);

  // A third distinct text pushes out the tenant's own LRU statement instead
  // of growing without bound.
  ASSERT_TRUE(controller.PrepareStatement("app", "SELECT id, v FROM t").ok());
  EXPECT_EQ(cat->prepared_count(), 2u);
  EXPECT_EQ(cat->Stats().prepared_evicted, 1);
  EXPECT_EQ(cat->FindPrepared("app", "SELECT v FROM t WHERE id = ?"), nullptr);
  EXPECT_NE(cat->FindPrepared("app", "SELECT id, v FROM t"), nullptr);
}

TEST_F(ControllerCatalogTest, EvictionIsInvisibleToQueries) {
  ClusterControllerOptions options;
  options.default_replicas = 1;
  ClusterController controller(options);
  controller.AddMachine({});
  controller.AddMachine({});

  for (int i = 0; i < 4; ++i) {
    std::string db = "app" + std::to_string(i);
    ASSERT_TRUE(controller.CreateDatabase(db).ok());
    ASSERT_TRUE(
        controller.ExecuteDdl(db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .ok());
    ASSERT_TRUE(
        controller.BulkLoad(db, "t", {{Value(int64_t{0}), Value(int64_t{i})}})
            .ok());
  }

  auto read_v = [&](const std::string& db) -> int64_t {
    auto conn = controller.Connect(db);
    auto result = conn->Execute("SELECT v FROM t WHERE id = ?",
                                {Value(int64_t{0})});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok() || result->rows.size() != 1) return -1;
    return result->at(0, 0).AsInt();
  };

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(read_v("app" + std::to_string(i)), i);
  }

  // Evict everything, then query again: first use reloads resident state
  // (catalog materialization, prepared re-registration, plan re-cache) with
  // identical results.
  auto* cat = controller.tenant_catalog();
  (void)cat->EvictResidentDownTo(0);
  EXPECT_EQ(cat->resident_count(), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(read_v("app" + std::to_string(i)), i);
  }
  EXPECT_GE(cat->Stats().reloads, 4);
}

TEST_F(ControllerCatalogTest, InFlightTransactionPinsTenant) {
  ClusterControllerOptions options;
  options.default_replicas = 1;
  ClusterController controller(options);
  controller.AddMachine({});
  ASSERT_TRUE(controller.CreateDatabase("app").ok());
  ASSERT_TRUE(
      controller.ExecuteDdl("app", "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
          .ok());

  auto* cat = controller.tenant_catalog();
  auto conn = controller.Connect("app");
  ASSERT_TRUE(conn->Begin().ok());
  EXPECT_EQ(cat->Stats().pinned, 1);

  // A sweep during the transaction must leave the tenant resident.
  (void)cat->EvictResidentDownTo(0);
  EXPECT_EQ(cat->resident_count(), 1u);

  ASSERT_TRUE(
      conn->Execute("INSERT INTO t (id, v) VALUES (?, ?)",
                    {Value(int64_t{1}), Value(int64_t{42})})
          .ok());
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(cat->Stats().pinned, 0);

  // Now unpinned: the same sweep evicts it, and the data is still there.
  (void)cat->EvictResidentDownTo(0);
  EXPECT_EQ(cat->resident_count(), 0u);
  auto result = conn->Execute("SELECT v FROM t WHERE id = ?",
                              {Value(int64_t{1})});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->at(0, 0).AsInt(), 42);
}

}  // namespace
}  // namespace mtdb
