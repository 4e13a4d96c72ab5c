#ifndef MTDB_NET_INPROC_TRANSPORT_H_
#define MTDB_NET_INPROC_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/platform/mutex.h"

namespace mtdb::net {

// Deterministic in-process transport. Every Call still runs the full
// marshalling round trip (encode request -> decode request -> dispatch ->
// encode response -> decode response), so the wire codec is exercised by
// every cluster test, but delivery is a function call on a pooled worker.
//
// Each channel is a FIFO queue of calls: the first call queued on an idle
// channel hands the channel to the transport's most recently idle worker
// (the pool starts a worker only when none is idle), which delivers the
// channel's calls in order — the same FIFO-per-(connection,machine)
// ordering a dedicated TCP connection provides. Once the queue is empty the
// worker waits a fixed ~2 ms for the channel's next call, then returns to
// the pool. A call that blocks (a lock wait, a fair-queue wait, a latency
// hook) holds only its own channel's worker, so channels never delay one
// another, and the thread count follows the channels busy at once, not the
// channels open.
//
// Fault injection:
//  * SetFaultHook decides per request whether to deliver it, drop it before
//    the service sees it (lost request), or execute it but drop the reply
//    (lost response — the dangerous 2PC case: the participant has voted but
//    the coordinator never hears it).
//  * SetLatencyHook adds per-request delivery delay.
//  * PartitionMachine makes a machine unreachable (every call times out at
//    the client) until HealMachine.
// Hooks run on the channel's worker, after the request is already
// serialized, so they see exactly what would have hit the wire.
class InProcTransport : public Transport {
 public:
  enum class Fault {
    kDeliver,      // normal delivery
    kDropRequest,  // lose the request before the service executes it
    kDropReply,    // execute the request, lose the response
  };

  using FaultHook = std::function<Fault(int machine_id, const RpcRequest&)>;
  using LatencyHook =
      std::function<int64_t(int machine_id, const RpcRequest&)>;

  InProcTransport();
  // Joins the pool. Every channel must be closed first.
  ~InProcTransport() override;

  std::unique_ptr<Channel> OpenChannel(int machine_id) override;
  void AttachLocal(int machine_id, MachineService* service) override;
  std::string name() const override { return "inproc"; }

  void SetFaultHook(FaultHook hook);
  void SetLatencyHook(LatencyHook hook);

  // Cuts / restores all delivery to one machine (requests and replies).
  void PartitionMachine(int machine_id);
  void HealMachine(int machine_id);

  // Number of requests fully delivered (dispatched with the reply handed to
  // the caller) since construction. Lets tests assert traffic actually
  // crossed the transport.
  int64_t delivered_count() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  class InProcChannel;
  struct Queue;
  struct Worker;

  // Hands a channel's queue to the most recently idle worker, starting
  // one when none is idle.
  void Dispatch(std::shared_ptr<Queue> queue);
  void WorkerLoop(Worker* self);
  // Delivers the queue's calls in order until it stays empty for the
  // linger time.
  void Serve(Queue& queue);
  void Deliver(int machine_id, const std::string& frame,
               ResponseHandler handler);

  // Looks up the service; null means unreachable.
  MachineService* Lookup(int machine_id) const;
  // Returns kDeliver/kDropRequest/kDropReply for this request, folding in
  // partitions.
  Fault EvaluateFault(int machine_id, const RpcRequest& request) const;
  int64_t EvaluateLatency(int machine_id, const RpcRequest& request) const;

  mutable platform::Mutex mu_{"net/InProcTransport::mu"};
  std::map<int, MachineService*> services_ MTDB_GUARDED_BY(mu_);
  std::set<int> partitioned_ MTDB_GUARDED_BY(mu_);
  FaultHook fault_hook_ MTDB_GUARDED_BY(mu_);
  LatencyHook latency_hook_ MTDB_GUARDED_BY(mu_);
  std::atomic<int64_t> delivered_{0};

  platform::Mutex pool_mu_{"net/InProcTransport::pool_mu"};
  std::vector<std::unique_ptr<Worker>> workers_ MTDB_GUARDED_BY(pool_mu_);
  std::vector<Worker*> idle_ MTDB_GUARDED_BY(pool_mu_);  // most recent last
  bool stopping_ MTDB_GUARDED_BY(pool_mu_) = false;
};

}  // namespace mtdb::net

#endif  // MTDB_NET_INPROC_TRANSPORT_H_
