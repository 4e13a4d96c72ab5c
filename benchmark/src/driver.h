#ifndef MTDB_BENCHMARK_DRIVER_H_
#define MTDB_BENCHMARK_DRIVER_H_

// Closed-loop run state shared by the client threads and the main thread:
// the current phase, raw per-transaction samples per thread and phase, the
// failure classification, and the per-thread span logs.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "benchmark/src/trace.h"
#include "src/common/status.h"

namespace mtdb::bench {

// Phases of one run. Trace-off runs: warmup, then kMeasure. Traced runs:
// warmup, kUntraced, kMeasure (traced), kMetricsOff.
enum Phase : int {
  kWarmup = 0,
  kMeasure = 1,
  kUntraced = 2,
  kMetricsOff = 3,
  kNumPhases = 4,
};

enum class Outcome : int {
  kCommitted = 0,
  kAborted,
  kDeadlock,
  kThrottled,
  kUnavailable,
  kWrongResult,
  kNumOutcomes,
};

inline constexpr int kNumOutcomes = static_cast<int>(Outcome::kNumOutcomes);
const char* OutcomeName(Outcome outcome);
Outcome Classify(const Status& status);

// One committed transaction: when it ended and how long it took, in
// nanoseconds on the NowNanos clock.
struct Sample {
  int64_t end_ns;
  int64_t latency_ns;
};

// Raw samples of one thread in one phase, kept individually so percentiles
// are exact.
struct PhaseStats {
  std::vector<Sample> ro;
  std::vector<Sample> rw;
  std::vector<int64_t> migrate_ns;
  std::array<int64_t, kNumOutcomes> outcomes{};  // per transaction
  int64_t migrations_failed = 0;

  int64_t attempted() const {
    int64_t total = 0;
    for (int64_t n : outcomes) total += n;
    return total;
  }
  int64_t failed() const {
    return attempted() - outcomes[static_cast<int>(Outcome::kCommitted)];
  }
  void Merge(const PhaseStats& other);
};

class Driver {
 public:
  // One slot per driving thread (clients, then the migrator if any).
  Driver(int threads, bool trace, size_t spans_per_thread);

  std::atomic<int> phase{kWarmup};
  std::atomic<bool> stop{false};
  // A correctness check failed while the load was running.
  std::atomic<bool> violated{false};

  bool trace() const { return trace_; }
  PhaseStats& stats(int thread, int phase) {
    return stats_[static_cast<size_t>(thread)][static_cast<size_t>(phase)];
  }
  PhaseStats Merged(int phase) const;
  const std::vector<std::unique_ptr<SpanLog>>& logs() const { return logs_; }

  // Starts a transaction on `thread`: returns the phase it belongs to and,
  // when the phase is traced, points the thread's trace context at the
  // thread's span log. Pair with EndTxn.
  int BeginTxn(int thread, int8_t txn_class, int8_t label);
  // Records the outcome of the transaction that started at `start_ns` in
  // `phase` unless the phase moved on while it ran (straddling transactions
  // are dropped), and clears the thread's trace context.
  void EndTxn(int thread, int phase, bool rw, Outcome outcome,
              int64_t start_ns);

  // Keeps the first few failure messages for the report.
  void NoteFailure(const std::string& what);
  std::vector<std::string> failure_notes() const;

 private:
  bool trace_;
  std::vector<std::array<PhaseStats, kNumPhases>> stats_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::atomic<uint64_t> next_txn_{1};
  mutable std::mutex notes_mu_;
  std::vector<std::string> notes_;
};

}  // namespace mtdb::bench

#endif  // MTDB_BENCHMARK_DRIVER_H_
