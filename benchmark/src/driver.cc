#include "benchmark/src/driver.h"

namespace mtdb::bench {

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kCommitted: return "committed";
    case Outcome::kAborted: return "aborted";
    case Outcome::kDeadlock: return "deadlock";
    case Outcome::kThrottled: return "throttled";
    case Outcome::kUnavailable: return "unavailable";
    case Outcome::kWrongResult: return "wrong_result";
    case Outcome::kNumOutcomes: break;
  }
  return "?";
}

Outcome Classify(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return Outcome::kCommitted;
    case StatusCode::kDeadlock: return Outcome::kDeadlock;
    case StatusCode::kResourceExhausted: return Outcome::kThrottled;
    case StatusCode::kUnavailable: return Outcome::kUnavailable;
    default: return Outcome::kAborted;
  }
}

void PhaseStats::Merge(const PhaseStats& other) {
  ro.insert(ro.end(), other.ro.begin(), other.ro.end());
  rw.insert(rw.end(), other.rw.begin(), other.rw.end());
  migrate_ns.insert(migrate_ns.end(), other.migrate_ns.begin(),
                    other.migrate_ns.end());
  for (int i = 0; i < kNumOutcomes; ++i) outcomes[i] += other.outcomes[i];
  migrations_failed += other.migrations_failed;
}

Driver::Driver(int threads, bool trace, size_t spans_per_thread)
    : trace_(trace), stats_(static_cast<size_t>(threads)) {
  if (trace_) {
    for (int i = 0; i < threads; ++i) {
      logs_.push_back(std::make_unique<SpanLog>(spans_per_thread));
    }
  }
}

PhaseStats Driver::Merged(int phase) const {
  PhaseStats merged;
  for (const auto& per_thread : stats_) {
    merged.Merge(per_thread[static_cast<size_t>(phase)]);
  }
  return merged;
}

int Driver::BeginTxn(int thread, int8_t txn_class, int8_t label) {
  int current = phase.load(std::memory_order_acquire);
  TraceContext& ctx = CurrentTrace();
  ctx.parent = 0;
  ctx.txn_class = txn_class;
  ctx.label = label;
  if (trace_ && current == kMeasure) {
    ctx.log = logs_[static_cast<size_t>(thread)].get();
    ctx.txn = next_txn_.fetch_add(1, std::memory_order_relaxed);
  } else {
    ctx.log = nullptr;
    ctx.txn = 0;
  }
  return current;
}

void Driver::EndTxn(int thread, int txn_phase, bool rw, Outcome outcome,
                    int64_t start_ns) {
  int64_t end_ns = NowNanos();
  TraceContext& ctx = CurrentTrace();
  ctx.log = nullptr;
  ctx.txn = 0;
  if (phase.load(std::memory_order_acquire) != txn_phase) return;
  PhaseStats& s = stats(thread, txn_phase);
  s.outcomes[static_cast<int>(outcome)]++;
  if (outcome == Outcome::kCommitted) {
    (rw ? s.rw : s.ro).push_back({end_ns, end_ns - start_ns});
  }
}

void Driver::NoteFailure(const std::string& what) {
  std::lock_guard<std::mutex> lock(notes_mu_);
  if (notes_.size() < 8) notes_.push_back(what);
}

std::vector<std::string> Driver::failure_notes() const {
  std::lock_guard<std::mutex> lock(notes_mu_);
  return notes_;
}

}  // namespace mtdb::bench
