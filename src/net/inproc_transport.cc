#include "src/net/inproc_transport.h"

#include <chrono>
#include <deque>
#include <exception>
#include <thread>
#include <utility>

#include "src/analysis/invariants.h"
#include "src/common/logging.h"
#include "src/net/codec.h"
#include "src/net/machine_service.h"
#include "src/obs/metrics.h"

namespace mtdb::net {

namespace {

// How long a worker that emptied its channel's queue waits for the
// channel's next call before it returns to the pool. Transactions send
// their statements back to back on one channel, and a worker still waiting
// takes the next one without a hand-off.
constexpr auto kLinger = std::chrono::milliseconds(2);

// One gauge across all channels: calls queued that have not started yet.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("mtdb_strand_queue_depth", {});
  return gauge;
}

// Decodes one complete frame, as the far end of a socket would.
template <typename Message>
Result<Message> Unframe(const std::string& frame,
                        Result<Message> (*decode)(std::string_view)) {
  size_t size = 0;
  Status error;
  auto payload = ExtractFrame(frame, &size, &error);
  if (!payload.has_value()) {
    return error.ok() ? Status::Internal("inproc: incomplete frame") : error;
  }
  return decode(*payload);
}

}  // namespace

struct InProcTransport::Queue {
  struct PendingCall {
    std::string frame;
    ResponseHandler handler;
  };

  explicit Queue(int machine_id) : machine_id(machine_id) {}

  const int machine_id;
  platform::Mutex mu{"net/InProcTransport::Queue::mu"};
  // Wakes the lingering worker on a new call or on close, and the closing
  // channel once the worker lets go.
  platform::CondVar cv;
  std::deque<PendingCall> calls MTDB_GUARDED_BY(mu);
  bool served MTDB_GUARDED_BY(mu) = false;  // a worker holds the queue
  bool closing MTDB_GUARDED_BY(mu) = false;
};

struct InProcTransport::Worker {
  platform::CondVar cv;  // waits under pool_mu_ for `queue` or stopping_
  std::shared_ptr<Queue> queue;  // guarded by pool_mu_
  std::thread thread;
};

// One in-process "connection": a FIFO queue of encoded calls that the pool
// delivers in order. Mirrors a dedicated client connection to the machine's
// DBMS process. The queue is shared with the worker serving it, so a closed
// channel's queue outlives the worker's last touch of it.
class InProcTransport::InProcChannel : public Channel {
 public:
  InProcChannel(InProcTransport* transport, int machine_id)
      : transport_(transport), queue_(std::make_shared<Queue>(machine_id)) {}

  // Waits until every call queued so far has been delivered.
  ~InProcChannel() override {
    platform::UniqueLock lock(queue_->mu);
    queue_->closing = true;
    queue_->cv.NotifyAll();
    while (queue_->served) queue_->cv.Wait(lock);
  }

  void Call(const RpcRequest& request, ResponseHandler handler) override {
    // Marshal up front: the bytes are what the fault hook conceptually acts
    // on, and encoding on the caller keeps the serialized cost there like a
    // real socket write.
    Queue::PendingCall call{.frame = {}, .handler = std::move(handler)};
    EncodeRequestFrame(request, &call.frame);
    obs::GaugeAdd(QueueDepthGauge(), 1);
    bool start = false;
    {
      platform::Guard lock(queue_->mu);
      queue_->calls.push_back(std::move(call));
      start = !std::exchange(queue_->served, true);
    }
    if (start) {
      transport_->Dispatch(queue_);
    } else {
      queue_->cv.NotifyOne();
    }
  }

 private:
  InProcTransport* transport_;
  std::shared_ptr<Queue> queue_;
};

InProcTransport::InProcTransport() = default;

InProcTransport::~InProcTransport() {
  std::vector<std::unique_ptr<Worker>> workers;
  {
    platform::Guard lock(pool_mu_);
    stopping_ = true;
    for (auto& worker : workers_) worker->cv.NotifyOne();
    workers.swap(workers_);
  }
  for (auto& worker : workers) worker->thread.join();
}

void InProcTransport::Dispatch(std::shared_ptr<Queue> queue) {
  platform::Guard lock(pool_mu_);
  if (idle_.empty()) {
    workers_.push_back(std::make_unique<Worker>());
    Worker* worker = workers_.back().get();
    worker->thread = std::thread([this, worker] { WorkerLoop(worker); });
    idle_.push_back(worker);
  }
  Worker* worker = idle_.back();
  idle_.pop_back();
  worker->queue = std::move(queue);
  worker->cv.NotifyOne();
}

void InProcTransport::WorkerLoop(Worker* self) {
  platform::UniqueLock lock(pool_mu_);
  while (true) {
    while (self->queue == nullptr && !stopping_) self->cv.Wait(lock);
    if (self->queue == nullptr) return;
    std::shared_ptr<Queue> queue = std::move(self->queue);
    lock.unlock();
    Serve(*queue);
    queue.reset();
    lock.lock();
    idle_.push_back(self);
  }
}

void InProcTransport::Serve(Queue& queue) {
  platform::UniqueLock lock(queue.mu);
  while (true) {
    if (queue.calls.empty()) {
      const auto until = std::chrono::steady_clock::now() + kLinger;
      while (queue.calls.empty() && !queue.closing &&
             queue.cv.WaitUntil(lock, until) == std::cv_status::no_timeout) {
      }
      if (queue.calls.empty()) {
        queue.served = false;
        queue.cv.NotifyAll();  // a closing channel waits for this
        return;
      }
    }
    Queue::PendingCall call = std::move(queue.calls.front());
    queue.calls.pop_front();
    lock.unlock();
    obs::GaugeAdd(QueueDepthGauge(), -1);
    // A throwing delivery must not kill the worker or stall the queue:
    // route it through the violation handler, which aborts loudly (or
    // records it in tests), and go on with the channel's next call.
    try {
      Deliver(queue.machine_id, call.frame, std::move(call.handler));
    } catch (const std::exception& e) {
      analysis::ReportViolation(
          "inproc", std::string("inproc channel call threw: ") + e.what());
    } catch (...) {
      analysis::ReportViolation(
          "inproc", "inproc channel call threw a non-std exception");
    }
    lock.lock();
  }
}

void InProcTransport::Deliver(int machine_id, const std::string& frame,
                              ResponseHandler handler) {
  Result<RpcRequest> request_or = Unframe(frame, &DecodeRequest);
  if (!request_or.ok()) {
    handler(RpcResponse::FromStatus(request_or.status()));
    return;
  }
  const RpcRequest& request = *request_or;

  Fault fault = EvaluateFault(machine_id, request);
  if (fault == Fault::kDropRequest) {
    MTDB_LOG(kDebug) << "inproc: dropped request "
                     << RpcTypeName(request.type) << " to machine "
                     << machine_id;
    return;  // the caller's deadline watchdog answers eventually
  }
  int64_t delay_us = EvaluateLatency(machine_id, request);
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }

  MachineService* service = Lookup(machine_id);
  RpcResponse response =
      service == nullptr
          ? RpcResponse::FromStatus(Status::Unavailable(
                "no machine " + std::to_string(machine_id) +
                " attached to inproc transport"))
          : service->Dispatch(request);

  if (fault == Fault::kDropReply) {
    MTDB_LOG(kDebug) << "inproc: dropped reply for "
                     << RpcTypeName(request.type) << " from machine "
                     << machine_id;
    return;  // executed on the machine, but the coordinator never hears
  }

  // Round-trip the response through the codec too.
  std::string reply_frame;
  EncodeResponseFrame(response, &reply_frame);
  Result<RpcResponse> reply = Unframe(reply_frame, &DecodeResponse);
  if (!reply.ok()) {
    handler(RpcResponse::FromStatus(reply.status()));
    return;
  }
  delivered_.fetch_add(1, std::memory_order_relaxed);
  handler(std::move(*reply));
}

std::unique_ptr<Channel> InProcTransport::OpenChannel(int machine_id) {
  return std::make_unique<InProcChannel>(this, machine_id);
}

void InProcTransport::AttachLocal(int machine_id, MachineService* service) {
  platform::Guard lock(mu_);
  services_[machine_id] = service;
}

void InProcTransport::SetFaultHook(FaultHook hook) {
  platform::Guard lock(mu_);
  fault_hook_ = std::move(hook);
}

void InProcTransport::SetLatencyHook(LatencyHook hook) {
  platform::Guard lock(mu_);
  latency_hook_ = std::move(hook);
}

void InProcTransport::PartitionMachine(int machine_id) {
  platform::Guard lock(mu_);
  partitioned_.insert(machine_id);
}

void InProcTransport::HealMachine(int machine_id) {
  platform::Guard lock(mu_);
  partitioned_.erase(machine_id);
}

MachineService* InProcTransport::Lookup(int machine_id) const {
  platform::Guard lock(mu_);
  auto it = services_.find(machine_id);
  return it == services_.end() ? nullptr : it->second;
}

InProcTransport::Fault InProcTransport::EvaluateFault(
    int machine_id, const RpcRequest& request) const {
  FaultHook hook;
  {
    platform::Guard lock(mu_);
    if (partitioned_.count(machine_id) > 0) return Fault::kDropRequest;
    hook = fault_hook_;
  }
  return hook ? hook(machine_id, request) : Fault::kDeliver;
}

int64_t InProcTransport::EvaluateLatency(int machine_id,
                                         const RpcRequest& request) const {
  LatencyHook hook;
  {
    platform::Guard lock(mu_);
    hook = latency_hook_;
  }
  return hook ? hook(machine_id, request) : 0;
}

}  // namespace mtdb::net
