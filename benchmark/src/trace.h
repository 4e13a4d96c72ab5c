#ifndef MTDB_BENCHMARK_TRACE_H_
#define MTDB_BENCHMARK_TRACE_H_

// Span recording at the benchmark's own call sites, and the decorating
// transport that times every RPC from outside the program.
//
// Spans live in memory (one SpanLog per driving thread) and are written out
// once, after the load has stopped. A span is (id, parent, txn, kind, start,
// end); RPC spans also carry the RpcType and the machine-side
// server_duration_us echoed in the reply.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/inproc_transport.h"
#include "src/net/transport.h"

namespace mtdb::bench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kTxn,          // one client transaction, root of its tree
  kConnect,      // Connect + Prepare on a connection-pool miss
  kBegin,        // Connection::Begin
  kRead,         // Connection::ExecutePrepared of a SELECT
  kWrite,        // Connection::ExecutePrepared of an UPDATE
  kCommit,       // Connection::Commit
  kInteraction,  // workload::RunInteraction (root of a TPC-W transaction)
  kMigrate,      // rebalance::TenantMigrator::Migrate (root)
  kRpc,          // one Channel::Call until its reply arrived
};

std::string SpanName(SpanKind kind, int rpc_type, int label);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t txn = 0;  // benchmark-assigned transaction id; 0 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t server_us = -1;  // kRpc only
  SpanKind kind = SpanKind::kTxn;
  uint8_t rpc_type = 0;  // kRpc only (net::RpcType)
  int8_t txn_class = -1;  // 0 read-only, 1 read-write, -1 none
  int8_t label = -1;      // TPC-W interaction, -1 none
  bool ok = true;         // root spans: the transaction committed
};

// Spans recorded by one driving thread. RPC replies land on transport
// threads, so Add takes a (nearly always uncontended) mutex.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) { spans_.reserve(capacity); }

  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }
  // Call only after every thread that could Add has stopped.
  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

// Per-thread tracing context. `log` is non-null only while the thread runs a
// traced transaction (or a traced migration); the transport records nothing
// otherwise.
struct TraceContext {
  SpanLog* log = nullptr;
  uint64_t txn = 0;
  uint64_t parent = 0;
  int8_t txn_class = -1;
  int8_t label = -1;
};

TraceContext& CurrentTrace();
uint64_t NextSpanId();

// Times one call made on this thread as a child of the current span. A
// no-op when the thread is not tracing.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) {
    TraceContext& ctx = CurrentTrace();
    if (ctx.log == nullptr) return;
    active_ = true;
    span_.id = NextSpanId();
    span_.parent = ctx.parent;
    span_.txn = ctx.txn;
    span_.kind = kind;
    span_.txn_class = ctx.txn_class;
    span_.label = ctx.label;
    saved_parent_ = ctx.parent;
    ctx.parent = span_.id;
    span_.start_ns = NowNanos();
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = NowNanos();
    TraceContext& ctx = CurrentTrace();
    ctx.parent = saved_parent_;
    ctx.log->Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_ok(bool ok) { span_.ok = ok; }

 private:
  Span span_;
  bool active_ = false;
  uint64_t saved_parent_ = 0;
};

// Wraps an InProcTransport. Every channel it opens times each Call from the
// moment it is issued until its reply arrives, and keeps the reply's
// server_duration_us, so client-observed time splits into machine service
// time and everything else (codec, strand hop, queue wait, wakeups).
class TimingTransport : public net::Transport {
 public:
  TimingTransport() = default;

  std::unique_ptr<net::Channel> OpenChannel(int machine_id) override;
  void AttachLocal(int machine_id, net::MachineService* service) override {
    inner_.AttachLocal(machine_id, service);
  }
  std::string name() const override { return "timing+" + inner_.name(); }

 private:
  net::InProcTransport inner_;
};

}  // namespace mtdb::bench

#endif  // MTDB_BENCHMARK_TRACE_H_
