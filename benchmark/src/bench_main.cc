// End-to-end benchmark driver for mtdb: builds an in-process cluster for one
// workload, drives it closed-loop, checks the correctness oracles, and prints
// the metrics. Normally started through run.py, which builds this binary.
//
//   mtdb_bench --workload NAME --seed N --seconds S --trace 0|1
//              --out-dir DIR --run-dir DIR [--git-sha SHA] [--src-digest D]
//
// --trace 0 reports the end-to-end metrics of one measured pass. --trace 1
// reports the per-layer metrics of one traced pass, preceded and followed by
// alternating untraced and metrics-disabled slices on the same cluster. The
// last line of stdout is one JSON object: correct, attempted, failed,
// metrics.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/src/driver.h"
#include "benchmark/src/report.h"
#include "benchmark/src/workloads.h"
#include "src/analysis/invariants.h"
#include "src/obs/metrics.h"

namespace mtdb::bench {
namespace {

constexpr int kSetupRepeats = 3;
// The measured pass is split into this many windows; throughput and latency
// percentiles are the median over the windows, so a short stall of the host
// moves one window, not the result.
constexpr int kWindows = 10;
// p99 is reported only for classes with at least this many samples.
constexpr size_t kMinP99Samples = 1000;
// Upper bound on spans kept in memory by one traced run.
constexpr size_t kMaxSpans = 1'500'000;
constexpr const char* kFlushPolicy =
    "WAL group commit (default policy); each flush is fflush without fsync";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string run_dir;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--run-dir") {
      args->run_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--src-digest") {
      args->src_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->out_dir.empty() && !args->run_dir.empty();
}

const char* Sanitizer() {
#if defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(address_sanitizer)
  return "address";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

bool NdebugBuild() {
#if defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

bool MetricsCompiledIn() {
#if defined(MTDB_NO_METRICS)
  return false;
#else
  return true;
#endif
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Starts peak-RSS accounting afresh: hands freed heap back to the kernel and
// resets the kernel's high-water mark to the current RSS (Linux).
void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Current resident set size from /proc/self/status; 0 when unavailable.
double CurrentRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

// User plus system CPU time of the whole process, in microseconds.
double ProcessCpuUs() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void SleepSeconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

// Runs one pass: switches the driver into `phase`, waits, and returns the
// pass's wall time.
double RunPass(Driver* driver, int phase, double seconds) {
  auto start = std::chrono::steady_clock::now();
  driver->phase.store(phase, std::memory_order_release);
  SleepSeconds(seconds);
  return SecondsSince(start);
}

// Alternates short kUntraced and kMetricsOff slices for `seconds` in total,
// so slow drift of the host hits both the same; adds each phase's wall time
// to the totals.
void RunSidePasses(Driver* driver, double seconds, double* untraced_s,
                   double* metrics_off_s) {
  constexpr double kSlice = 0.25;
  for (double done = 0; done < seconds; done += 2 * kSlice) {
    *untraced_s += RunPass(driver, kUntraced, kSlice);
    obs::MetricsRegistry::SetEnabled(false);
    *metrics_off_s += RunPass(driver, kMetricsOff, kSlice);
    obs::MetricsRegistry::SetEnabled(true);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mtdb_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR --run-dir DIR [--git-sha SHA] "
                 "[--src-digest D]\n");
    return 2;
  }

  // --- build guard ---
  const std::string build_type = MTDB_BENCH_BUILD_TYPE;
  bool invariants = analysis::InvariantChecksEnabled();
  if (build_type == "Debug" || !NdebugBuild() ||
      std::strcmp(Sanitizer(), "none") != 0 || invariants) {
    std::fprintf(stderr,
                 "mtdb_bench: refusing to measure a %s build (NDEBUG %s, "
                 "sanitizer %s, invariant checks %s): the runtime auditors "
                 "change the program being measured\n",
                 build_type.c_str(), NdebugBuild() ? "on" : "off", Sanitizer(),
                 invariants ? "on" : "off");
    return 3;
  }

  RunConfig config;
  config.seed = args.seed;
  config.run_dir = args.run_dir + "/" + std::to_string(getpid());
  // Removes the machines' WAL files on every exit path; declared before the
  // workload, so the cluster is gone first.
  struct RunDirCleanup {
    std::string path;
    ~RunDirCleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } cleanup{config.run_dir};
  std::unique_ptr<Workload> workload = Workload::Create(args.workload, config);
  if (workload == nullptr) {
    std::fprintf(stderr, "mtdb_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code dir_error;
  std::filesystem::create_directories(config.run_dir, dir_error);
  std::filesystem::create_directories(args.out_dir, dir_error);

  std::string stamp =
      "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
      " cpu=\"" + CpuModel() + "\" compiler=\"" + MTDB_BENCH_CXX_COMPILER +
      " (" + __VERSION__ + ")\" build=" + build_type +
      " sanitizer=" + Sanitizer() +
      " invariant_checks=" + (invariants ? "on" : "off") +
      " metrics=" + (MetricsCompiledIn() ? "on" : "off") +
      " git=" + args.git_sha + " src=" + args.src_digest +
      " seed=" + std::to_string(args.seed);
  std::printf("== %s  (%s)\n", workload->name().c_str(),
              workload->DataSizes().c_str());
  std::printf("stamp: %s\n", stamp.c_str());
  std::printf("flush policy: %s\n", kFlushPolicy);
  std::fflush(stdout);

  // --- setup, several times; the last cluster is the one driven ---
  // setup_rss_mb is read after the first setup, in a process with no heap
  // left over from earlier clusters; peak_rss_mb covers the last cluster
  // from its setup until the load stops.
  std::vector<double> setup_times;
  double rss_after_setup_mb = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    bool last = r == kSetupRepeats - 1;
    if (last) ResetPeakRss();
    auto start = std::chrono::steady_clock::now();
    Status status = workload->Setup();
    setup_times.push_back(SecondsSince(start));
    if (!status.ok()) {
      std::fprintf(stderr, "mtdb_bench: setup of %s failed: %s\n",
                   workload->name().c_str(), status.ToString().c_str());
      return 1;
    }
    if (r == 0) rss_after_setup_mb = CurrentRssMb();
    if (!last) workload->TearDown();
  }
  int64_t wal_after_setup = workload->WalBytes();

  // --- load ---
  const int clients = workload->clients();
  const int threads = clients + (workload->migrates() ? 1 : 0);
  Driver driver(threads, args.trace,
                args.trace ? kMaxSpans / static_cast<size_t>(threads) : 0);
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] { workload->RunClient(c, &driver); });
  }
  if (workload->migrates()) {
    workers.emplace_back(
        [&] { workload->RunMigrator(clients, &driver); });
  }

  constexpr int kDone = kNumPhases;
  double side_seconds = std::max(1.0, args.seconds / 2);
  SleepSeconds(std::clamp(args.seconds * 0.1, 0.5, 2.0));  // warmup
  double measure_s = 0, untraced_s = 0, metrics_off_s = 0;
  int64_t measure_start_ns = 0;
  int64_t measure_end_ns = 0;
  TracedPass traced;
  double measure_cpu_us = 0;
  if (!args.trace) {
    measure_start_ns = NowNanos();
    measure_cpu_us = -ProcessCpuUs();
    measure_s = RunPass(&driver, kMeasure, args.seconds);
    measure_cpu_us += ProcessCpuUs();
    measure_end_ns = NowNanos();
  } else {
    // Side passes half before and half after the traced pass, for
    // bench.trace_overhead and obs.metrics_share.
    RunSidePasses(&driver, side_seconds / 2, &untraced_s, &metrics_off_s);
    traced.before =
        ReadRegistry(workload->controller()->tenant_catalog()->Stats());
    measure_s = RunPass(&driver, kMeasure, args.seconds);
    traced.after =
        ReadRegistry(workload->controller()->tenant_catalog()->Stats());
    RunSidePasses(&driver, side_seconds / 2, &untraced_s, &metrics_off_s);
  }
  double rss_end_mb = CurrentRssMb();
  driver.phase.store(kDone, std::memory_order_release);
  driver.stop.store(true);
  for (std::thread& worker : workers) worker.join();
  double peak_rss_mb = PeakRssMb();  // before the oracles allocate

  // --- oracles, after the load has stopped ---
  std::vector<std::string> violations;
  bool correct = workload->CheckOracles(&violations);
  PhaseStats all;
  for (int p = 0; p < kNumPhases; ++p) all.Merge(driver.Merged(p));
  if (driver.violated.load() ||
      all.outcomes[static_cast<int>(Outcome::kWrongResult)] > 0) {
    correct = false;
    violations.push_back("a check made during the load failed");
  }
  int64_t wal_bytes_run = workload->WalBytes() - wal_after_setup;

  PhaseStats measured = driver.Merged(kMeasure);
  auto tps = [](const PhaseStats& s, double seconds) {
    return static_cast<double>(s.ro.size() + s.rw.size()) / seconds;
  };

  std::vector<Metric> metrics;
  std::vector<std::string> counts;
  // Median over the windows of the measured pass; p < 0 is throughput.
  auto windowed = [&](const char* name, const std::vector<Sample>& samples,
                      double p, const char* unit) {
    if (samples.empty() || (p > 50 && samples.size() < kMinP99Samples)) {
      counts.push_back(std::string(name) + " omitted (n=" +
                       std::to_string(samples.size()) + ")");
      return;
    }
    std::vector<double> values =
        WindowValues(samples, measure_start_ns, measure_end_ns, kWindows, p);
    metrics.push_back({name, Median(values), unit});
    std::string line = std::string(name) + " n=" +
                       std::to_string(samples.size()) + ", windows:";
    for (double v : values) line += " " + std::to_string(v);
    counts.push_back(line);
  };
  if (!args.trace) {
    std::vector<Sample> both = measured.ro;
    both.insert(both.end(), measured.rw.begin(), measured.rw.end());
    windowed("txn_per_s", both, -1, "1/s");
    metrics.push_back({"cpu_us_per_txn",
                       both.empty() ? 0
                                    : measure_cpu_us /
                                          static_cast<double>(both.size()),
                       "us"});
    windowed("ro_txn_p50_us", measured.ro, 50, "us");
    windowed("ro_txn_p99_us", measured.ro, 99, "us");
    windowed("rw_txn_p50_us", measured.rw, 50, "us");
    windowed("rw_txn_p99_us", measured.rw, 99, "us");
    metrics.push_back(
        {"failed_ratio",
         measured.attempted() > 0
             ? static_cast<double>(measured.failed()) /
                   static_cast<double>(measured.attempted())
             : 0,
         "ratio"});
    metrics.push_back({"setup_s", Median(setup_times), "s"});
    counts.push_back("setup_s n=" + std::to_string(setup_times.size()));
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    metrics.push_back({"setup_rss_mb", rss_after_setup_mb, "MB"});
    if (workload->migrates()) {
      std::vector<int64_t> migrate_ns = measured.migrate_ns;
      if (!migrate_ns.empty()) {
        metrics.push_back(
            {"migrate_p50_ms", Percentile(&migrate_ns, 50) / 1e6, "ms"});
      }
      counts.push_back("migrate_p50_ms n=" +
                       std::to_string(migrate_ns.size()));
    }
  } else {
    std::vector<const Span*> spans;
    int64_t dropped = 0;
    for (const auto& log : driver.logs()) {
      for (const Span& span : log->spans()) spans.push_back(&span);
      dropped += log->dropped();
    }
    traced.spans = &spans;
    traced.stats = measured;
    traced.traced_tps = tps(measured, measure_s);
    traced.untraced_tps = tps(driver.Merged(kUntraced), untraced_s);
    traced.metrics_off_tps = tps(driver.Merged(kMetricsOff), metrics_off_s);
    traced.wal_bytes_run = wal_bytes_run;
    traced.rw_commits_run = static_cast<int64_t>(all.rw.size());
    metrics = PerLayerMetrics(traced);
    std::printf("per-layer self time of traced transactions (means):\n%s",
                LayerTable(traced).c_str());
    // One span file per workload: the latest traced run.
    std::string spans_path =
        args.out_dir + "/" + workload->name() + ".spans.csv";
    bool written = WriteSpans(spans_path, spans);
    std::printf("spans: %zu kept, %lld dropped, %s %s\n", spans.size(),
                static_cast<long long>(dropped),
                written ? "written to" : "could not write", spans_path.c_str());
  }

  // --- human-readable report ---
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& c : counts) std::printf("  samples: %s\n", c.c_str());
  std::printf("  outcomes:");
  for (int o = 0; o < kNumOutcomes; ++o) {
    std::printf(" %s=%lld", OutcomeName(static_cast<Outcome>(o)),
                static_cast<long long>(measured.outcomes[o]));
  }
  std::printf(" migrations_failed=%lld\n",
              static_cast<long long>(measured.migrations_failed));
  for (const std::string& note : driver.failure_notes()) {
    std::printf("  failure: %s\n", note.c_str());
  }
  std::printf("  memory: rss %.1f MB after the first setup, %.1f MB at the "
              "end of the load, peak %.1f MB\n",
              rss_after_setup_mb, rss_end_mb, peak_rss_mb);
  std::printf("oracles: %s\n", correct ? "ok" : "FAILED");
  for (const std::string& v : violations) {
    std::printf("  violation: %s\n", v.c_str());
  }

  int64_t migrations = static_cast<int64_t>(measured.migrate_ns.size());
  int64_t attempted = measured.attempted() + migrations +
                      measured.migrations_failed;
  int64_t failed = measured.failed() + measured.migrations_failed;
  std::string metrics_json;
  for (const Metric& m : metrics) {
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += JsonString(m.name) + ": {\"value\": " +
                    JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) +
                    "}";
  }
  std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {" + metrics_json + "}}";

  std::string results_path = args.out_dir + "/" + workload->name() + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
  if (std::FILE* file = std::fopen(results_path.c_str(), "w")) {
    std::fprintf(file,
                 "{\"workload\": %s, \"data\": %s, \"stamp\": %s, "
                 "\"flush_policy\": %s, \"result\": %s}\n",
                 JsonString(workload->name()).c_str(),
                 JsonString(workload->DataSizes()).c_str(),
                 JsonString(stamp).c_str(), JsonString(kFlushPolicy).c_str(),
                 result.c_str());
    std::fclose(file);
  }

  workload.reset();
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mtdb::bench

int main(int argc, char** argv) { return mtdb::bench::Main(argc, argv); }
