// Tenant-metadata scale benchmark for the sharded lazy catalog
// (src/cluster/catalog/).
//
// The paper's sizing target is "a large number of small applications":
// 10^5-10^6 tiny databases per cluster, almost all of them idle at any
// moment. What has to stay cheap is (a) creating yet another tenant, (b)
// the controller's per-tenant resident memory, and (c) the first query of
// a tenant whose resident state was evicted while it slept.
//
// Phases:
//   create   N databases (one table, one row each) on a 4-machine cluster
//            with replication 2; per-create latency percentiles + RSS
//            growth per tenant.
//   cold     evict ALL resident catalog state, then run one point read on a
//            sample of tenants: the reload path (catalog materialize +
//            prepared re-registration + plan cache miss).
//   warm     the same reads again with everything resident.
//   reload   evict again and verify every sampled tenant still answers —
//            the "eviction is invisible to correctness" invariant.
//   churn    catalog only (installed records, no machines): cold Acquires
//            cycling through kChurnTenants and then 10x as many tenants
//            under the same small resident cap, so every Acquire
//            materializes and the eviction sweep runs at its steady rate.
//            Making a tenant cold must cost O(that tenant): the mean
//            Acquire at 10x the tenants may be at most 2x the mean at 1x.
//
// Prints one JSON object; exits non-zero if a sampled first query fails, if
// the churn ratio is over 2, or if --baseline=<file> is given and create
// p99 or bytes/tenant regress more than 20% (plus an absolute slack)
// against the committed numbers. CI runs
// `tenant_scale --databases=5000 --baseline=BENCH_tenant_scale.json`;
// the committed file comes from a full 100k run (see EXPERIMENTS.md).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/cluster_controller.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"

namespace mtdb {
namespace {

// VmRSS from /proc/self/status, in bytes; 0 when unavailable (non-Linux).
int64_t CurrentRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return atoll(line.c_str() + 6) * 1024;
    }
  }
  return 0;
}

// Pulls "key": value out of a committed baseline JSON (the same flat format
// this binary prints; no nesting, so a string scan is enough).
double BaselineValue(const std::string& text, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return 0;
  return atof(text.c_str() + pos + needle.size());
}

std::string DbName(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "app%06d", i);
  return buf;
}

constexpr int kChurnTenants = 2000;
constexpr size_t kChurnResident = 256;
constexpr int kChurnAcquires = 20000;
constexpr int kChurnRepeats = 3;

// Mean microseconds per Acquire + release on a catalog holding `tenants`
// records, cycling through them in order. The cycle is longer than the
// resident cap, so every Acquire finds its tenant evicted.
double ChurnAcquireUs(int tenants) {
  catalog::TenantCatalog::Options options;
  options.max_resident = kChurnResident;
  options.name = "churn";
  catalog::TenantCatalog cat(options);
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(tenants));
  for (int i = 0; i < tenants; ++i) {
    names.push_back(DbName(i));
    cat.Install(names.back(), catalog::TenantRecord{});
  }
  // Fill to the cap first, so the timed loop is all steady-state eviction.
  for (size_t i = 0; i < kChurnResident; ++i) {
    cat.Acquire(names[i]).Release();
  }
  int64_t start = NowMicros();
  for (int i = 0; i < kChurnAcquires; ++i) {
    cat.Acquire(names[(kChurnResident + static_cast<size_t>(i)) %
                      names.size()])
        .Release();
  }
  return static_cast<double>(NowMicros() - start) / kChurnAcquires;
}

}  // namespace
}  // namespace mtdb

int main(int argc, char** argv) {
  using namespace mtdb;
  int databases = 100000;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--databases=", 12) == 0) {
      databases = atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else {
      std::fprintf(stderr,
                   "usage: tenant_scale [--databases=N] [--baseline=FILE]\n");
      return 2;
    }
  }
  if (const char* env = std::getenv("MTDB_BENCH_DBS")) {
    databases = atoi(env);
  }

  ClusterControllerOptions options;
  options.default_replicas = 2;
  // A resident cap far below the tenant count, so the create phase itself
  // exercises steady-state eviction, not just the final sweep.
  options.catalog.max_resident = 4096;
  options.catalog.shards = 64;
  ClusterController controller(options);
  for (int m = 0; m < 4; ++m) controller.AddMachine({});

  // --- create ---
  int64_t rss_before = CurrentRssBytes();
  Histogram create_us;
  int64_t create_start = NowMicros();
  for (int i = 0; i < databases; ++i) {
    std::string db = DbName(i);
    int64_t t0 = NowMicros();
    if (!controller.CreateDatabase(db).ok() ||
        !controller.ExecuteDdl(db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
             .ok()) {
      std::fprintf(stderr, "tenant_scale: create %s failed\n", db.c_str());
      return 1;
    }
    create_us.Record(NowMicros() - t0);
    if (!controller.BulkLoad(db, "t", {{Value(int64_t{0}), Value(int64_t{7})}})
             .ok()) {
      std::fprintf(stderr, "tenant_scale: load %s failed\n", db.c_str());
      return 1;
    }
  }
  double create_total_s =
      static_cast<double>(NowMicros() - create_start) / 1e6;
  int64_t rss_after = CurrentRssBytes();
  int64_t bytes_per_tenant =
      rss_after > rss_before && databases > 0
          ? (rss_after - rss_before) / databases
          : 0;

  // Sampled tenants, spread across the whole id space.
  int sample = databases < 256 ? databases : 256;
  std::vector<std::string> sampled;
  for (int s = 0; s < sample; ++s) {
    sampled.push_back(DbName(static_cast<int>(
        static_cast<int64_t>(s) * databases / sample)));
  }

  auto run_reads = [&](Histogram* hist) -> bool {
    for (const std::string& db : sampled) {
      int64_t t0 = NowMicros();
      auto conn = controller.Connect(db);
      auto result = conn->Execute("SELECT v FROM t WHERE id = ?",
                                  {Value(int64_t{0})});
      if (!result.ok() || result->rows.size() != 1) {
        std::fprintf(stderr, "tenant_scale: first query on %s failed: %s\n",
                     db.c_str(), result.status().ToString().c_str());
        return false;
      }
      if (hist != nullptr) hist->Record(NowMicros() - t0);
    }
    return true;
  };

  // --- cold: nothing resident ---
  auto* catalog = controller.tenant_catalog();
  (void)catalog->EvictResidentDownTo(0);
  Histogram cold_us;
  if (!run_reads(&cold_us)) return 1;

  // --- warm: everything the sample touched is resident ---
  Histogram warm_us;
  if (!run_reads(&warm_us)) return 1;

  // --- reload: evict again, every tenant must still answer ---
  (void)catalog->EvictResidentDownTo(0);
  if (!run_reads(nullptr)) return 1;

  catalog::CatalogStats stats = catalog->Stats();

  // --- churn: the best of a few interleaved runs at each size ---
  double churn_us_n = 0;
  double churn_us_10n = 0;
  for (int r = 0; r < kChurnRepeats; ++r) {
    double at_n = ChurnAcquireUs(kChurnTenants);
    double at_10n = ChurnAcquireUs(10 * kChurnTenants);
    churn_us_n = r == 0 ? at_n : std::min(churn_us_n, at_n);
    churn_us_10n = r == 0 ? at_10n : std::min(churn_us_10n, at_10n);
  }
  double churn_ratio = churn_us_n > 0 ? churn_us_10n / churn_us_n : 0;

  bool pass = true;
  std::string gate;
  if (churn_ratio > 2.0) {
    gate += "cold Acquire cost grows with the tenant count; ";
    pass = false;
  }
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    double base_p99 = BaselineValue(text, "create_p99_us");
    double base_bytes = BaselineValue(text, "bytes_per_tenant");
    // 20% relative headroom plus an absolute slack floor, so sub-millisecond
    // jitter and RSS page granularity can't flip the gate.
    double p99 = static_cast<double>(create_us.Percentile(99));
    if (base_p99 > 0 && p99 > base_p99 * 1.2 + 1000.0) {
      gate += "create_p99 regressed; ";
      pass = false;
    }
    if (base_bytes > 0 && bytes_per_tenant > 0 &&
        static_cast<double>(bytes_per_tenant) > base_bytes * 1.2 + 512.0) {
      gate += "bytes_per_tenant regressed; ";
      pass = false;
    }
  }

  std::printf(
      "{\n"
      "  \"databases\": %d,\n"
      "  \"create_total_s\": %.1f,\n"
      "  \"create_p50_us\": %" PRId64 ",\n"
      "  \"create_p99_us\": %" PRId64 ",\n"
      "  \"bytes_per_tenant\": %" PRId64 ",\n"
      "  \"cold_first_query_p50_us\": %" PRId64 ",\n"
      "  \"cold_first_query_p99_us\": %" PRId64 ",\n"
      "  \"warm_query_p50_us\": %" PRId64 ",\n"
      "  \"warm_query_p99_us\": %" PRId64 ",\n"
      "  \"catalog_tenants\": %" PRId64 ",\n"
      "  \"catalog_resident\": %" PRId64 ",\n"
      "  \"catalog_evictions\": %" PRId64 ",\n"
      "  \"catalog_reloads\": %" PRId64 ",\n"
      "  \"prepared_evicted\": %" PRId64 ",\n"
      "  \"churn_tenants\": %d,\n"
      "  \"churn_acquire_us\": %.2f,\n"
      "  \"churn_acquire_us_10x\": %.2f,\n"
      "  \"churn_ratio\": %.2f,\n"
      "  \"pass\": %s\n"
      "}\n",
      databases, create_total_s, create_us.Percentile(50),
      create_us.Percentile(99), bytes_per_tenant, cold_us.Percentile(50),
      cold_us.Percentile(99), warm_us.Percentile(50), warm_us.Percentile(99),
      stats.tenants, stats.resident, stats.evictions, stats.reloads,
      stats.prepared_evicted, kChurnTenants, churn_us_n, churn_us_10n,
      churn_ratio, pass ? "true" : "false");
  if (!pass) {
    std::fprintf(stderr, "tenant_scale: GATE FAILED: %s\n", gate.c_str());
    return 1;
  }
  return 0;
}
