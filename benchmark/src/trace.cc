#include "benchmark/src/trace.h"

#include <utility>

#include "benchmark/src/names.h"
#include "src/net/message.h"

namespace mtdb::bench {

std::string SpanName(SpanKind kind, int rpc_type, int label) {
  switch (kind) {
    case SpanKind::kTxn: return "txn";
    case SpanKind::kConnect: return "cluster.connect";
    case SpanKind::kBegin: return "cluster.begin";
    case SpanKind::kRead: return "cluster.read";
    case SpanKind::kWrite: return "cluster.write";
    case SpanKind::kCommit: return "cluster.commit";
    case SpanKind::kInteraction:
      return "workload." + std::string(InteractionLabel(label));
    case SpanKind::kMigrate: return "rebalance.migrate";
    case SpanKind::kRpc:
      return "net." + std::string(net::RpcTypeName(
                          static_cast<net::RpcType>(rpc_type)));
  }
  return "?";
}

TraceContext& CurrentTrace() {
  thread_local TraceContext context;
  return context;
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

class TimingChannel : public net::Channel {
 public:
  explicit TimingChannel(std::unique_ptr<net::Channel> inner)
      : inner_(std::move(inner)) {}

  void Call(const net::RpcRequest& request,
            net::ResponseHandler handler) override {
    const TraceContext& ctx = CurrentTrace();
    if (ctx.log == nullptr) {
      inner_->Call(request, std::move(handler));
      return;
    }
    Span span;
    span.id = NextSpanId();
    span.parent = ctx.parent;
    span.txn = ctx.txn;
    span.kind = SpanKind::kRpc;
    span.rpc_type = static_cast<uint8_t>(request.type);
    span.txn_class = ctx.txn_class;
    span.label = ctx.label;
    SpanLog* log = ctx.log;
    span.start_ns = NowNanos();
    inner_->Call(request, [span, log, handler = std::move(handler)](
                              net::RpcResponse response) mutable {
      span.end_ns = NowNanos();
      span.server_us = response.server_duration_us;
      span.ok = response.ok();
      log->Add(span);
      handler(std::move(response));
    });
  }

 private:
  std::unique_ptr<net::Channel> inner_;
};

}  // namespace

std::unique_ptr<net::Channel> TimingTransport::OpenChannel(int machine_id) {
  return std::make_unique<TimingChannel>(inner_.OpenChannel(machine_id));
}

}  // namespace mtdb::bench
