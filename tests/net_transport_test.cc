// Fault-injection tests for the RPC layer: lost replies and partitions must
// surface as deadline expiries that feed the existing machine-failure and
// recovery path — no hang, no double-commit, no lost committed data.
//
// These tests run under the "sanitizer" ctest label (TSan/ASan in CI): the
// timeout watchdog, the reply path, and the controller race by design.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/invariants.h"
#include "src/cluster/cluster_controller.h"
#include "src/cluster/recovery.h"
#include "src/net/inproc_transport.h"
#include "src/net/machine_client.h"
#include "src/net/machine_service.h"
#include "src/obs/metrics.h"

namespace mtdb {
namespace {

class NetTransportTest : public ::testing::Test {
 protected:
  void Build(ClusterControllerOptions options, int machines = 3) {
    // Short RPC deadline so lost-reply tests resolve quickly; generous
    // enough that instrumented (TSan) builds do not trip it spuriously on
    // healthy calls.
    options.rpc.call_timeout_us = 2'000'000;
    controller_ = std::make_unique<ClusterController>(options);
    for (int m = 0; m < machines; ++m) controller_->AddMachine();
    ASSERT_TRUE(controller_->CreateDatabaseOn("shop", {0, 1}).ok());
    ASSERT_TRUE(controller_
                    ->ExecuteDdl("shop",
                                 "CREATE TABLE item (i_id INT PRIMARY KEY, "
                                 "i_stock INT)")
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 1; i <= 20; ++i) {
      rows.push_back({Value(i), Value(int64_t{100})});
    }
    ASSERT_TRUE(controller_->BulkLoad("shop", "item", rows).ok());
  }

  int64_t StockOnEngine(int machine_id, int64_t item) {
    Database* db = controller_->machine(machine_id)->engine()->GetDatabase(
        "shop");
    EXPECT_NE(db, nullptr);
    Table* table = db->GetTable("item");
    EXPECT_NE(table, nullptr);
    auto stored = table->Get(Value(item));
    if (!stored.has_value()) {
      ADD_FAILURE() << "item " << item << " not found on machine "
                    << machine_id;
      return -1;
    }
    return stored->values[1].AsInt();
  }

  std::unique_ptr<ClusterController> controller_;
};

TEST_F(NetTransportTest, DroppedPrepareReplyResolvesViaTimeoutAndRecovery) {
  Build(ClusterControllerOptions{});
  net::InProcTransport* transport = controller_->inproc_transport();
  ASSERT_NE(transport, nullptr);

  // Lose exactly the first PREPARE reply addressed to machine 1: the
  // participant votes (its engine state advances to prepared) but the
  // coordinator never hears the vote — the classic 2PC lost-ack case.
  std::atomic<int> dropped{0};
  transport->SetFaultHook(
      [&dropped](int machine_id, const net::RpcRequest& request) {
        if (machine_id == 1 && request.type == net::RpcType::kPrepare &&
            dropped.fetch_add(1) == 0) {
          return net::InProcTransport::Fault::kDropReply;
        }
        return net::InProcTransport::Fault::kDeliver;
      });

  auto conn = controller_->Connect("shop");
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Execute("UPDATE item SET i_stock = i_stock - 1 "
                            "WHERE i_id = 7")
                  .ok());
  // Must not hang: the deadline converts the silent machine into a failure.
  Status commit = conn->Commit();
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  EXPECT_EQ(dropped.load(), 1);

  // The silent machine was declared failed (fail-stop), and the commit went
  // through on the surviving replica exactly once.
  EXPECT_TRUE(controller_->machine(1)->failed());
  EXPECT_FALSE(controller_->machine(0)->failed());
  EXPECT_EQ(controller_->committed_transactions(), 1);
  EXPECT_EQ(StockOnEngine(0, 7), 99);

  // Recovery restores the replication factor; the new replica carries the
  // committed write (no lost update, no double-applied decrement).
  transport->SetFaultHook(nullptr);
  RecoveryManager recovery(controller_.get(), RecoveryOptions{});
  auto results = recovery.RecoverAll(2);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  int target = results[0].target_machine;
  EXPECT_NE(target, 1);
  EXPECT_EQ(StockOnEngine(target, 7), 99);

  // The cluster's committed histories stay serializable after all that.
  auto report = controller_->CheckClusterSerializability();
  EXPECT_TRUE(report.serializable) << report.ToString();

  // Sanity: the traffic above really crossed the transport as frames.
  EXPECT_GT(transport->delivered_count(), 0);
}

TEST_F(NetTransportTest, PartitionedReplicaFailsOverForReads) {
  ClusterControllerOptions options;
  options.read_option = ReadRoutingOption::kPerTransaction;
  Build(options);
  net::InProcTransport* transport = controller_->inproc_transport();

  // Cut machine 0 off entirely. The first read routed to it times out, the
  // controller declares it failed, and the retry path serves the read from
  // the surviving replica.
  transport->PartitionMachine(0);
  auto conn = controller_->Connect("shop");
  auto read = conn->Execute("SELECT i_stock FROM item WHERE i_id = 3");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->rows.size(), 1u);
  EXPECT_EQ(read->rows[0][0], Value(int64_t{100}));
  // The partitioned replica was declared failed by the deadline watchdog.
  EXPECT_TRUE(controller_->machine(0)->failed());
  EXPECT_FALSE(controller_->machine(1)->failed());

  transport->HealMachine(0);
}

TEST_F(NetTransportTest, LostReplyIncrementsTimeoutAndFailoverCounters) {
  // Same lost-PREPARE-ack scenario as above, but the assertion target is the
  // observability layer: the deadline expiry must surface as an RPC timeout
  // counter for the Prepare operation and as exactly one machine failover.
  auto& registry = obs::MetricsRegistry::Global();
  obs::MetricLabels prepare{.operation = "Prepare"};
  int64_t timeouts_before =
      registry.CounterValue("mtdb_rpc_timeout_total", prepare);
  int64_t failovers_before =
      registry.CounterValue("mtdb_machine_failover_total", {});
  int64_t prepares_before = registry.CounterValue("mtdb_rpc_total", prepare);

  Build(ClusterControllerOptions{});
  net::InProcTransport* transport = controller_->inproc_transport();
  ASSERT_NE(transport, nullptr);
  std::atomic<int> dropped{0};
  transport->SetFaultHook(
      [&dropped](int machine_id, const net::RpcRequest& request) {
        if (machine_id == 1 && request.type == net::RpcType::kPrepare &&
            dropped.fetch_add(1) == 0) {
          return net::InProcTransport::Fault::kDropReply;
        }
        return net::InProcTransport::Fault::kDeliver;
      });

  auto conn = controller_->Connect("shop");
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Execute("UPDATE item SET i_stock = i_stock - 1 "
                            "WHERE i_id = 5")
                  .ok());
  Status commit = conn->Commit();
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  transport->SetFaultHook(nullptr);

  // The watchdog fired for the silent Prepare and converted it into
  // kUnavailable; both the timeout and the total-call counters saw it.
  EXPECT_EQ(registry.CounterValue("mtdb_rpc_timeout_total", prepare),
            timeouts_before + 1);
  EXPECT_GE(registry.CounterValue("mtdb_rpc_total", prepare),
            prepares_before + 2);  // one answered, one timed out
  // One machine transitioned to failed — transition-counted even though
  // FailMachine can be re-entered by later timeouts against the same box.
  EXPECT_EQ(registry.CounterValue("mtdb_machine_failover_total", {}),
            failovers_before + 1);
  EXPECT_TRUE(controller_->machine(1)->failed());
}

TEST_F(NetTransportTest, DroppedControlRequestSurfacesAsUnavailable) {
  Build(ClusterControllerOptions{});
  net::InProcTransport* transport = controller_->inproc_transport();
  transport->SetFaultHook([](int machine_id, const net::RpcRequest& request) {
    if (machine_id == 2 && request.type == net::RpcType::kCreateDatabase) {
      return net::InProcTransport::Fault::kDropRequest;
    }
    return net::InProcTransport::Fault::kDeliver;
  });
  // The lost request times out; CreateDatabaseOn rolls back the replica it
  // already created and reports the failure instead of wedging.
  Status status = controller_->CreateDatabaseOn("other", {0, 2});
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_TRUE(controller_->DatabaseNames() ==
              std::vector<std::string>{"shop"});
  transport->SetFaultHook(nullptr);
}

// More transactions than twice the cores block in lock waits on the rows
// one writer holds; each blocked call holds a pooled worker, and the
// writer's commit still gets one of its own (the pool grows on demand), so
// it completes and releases them. Each waiter updates its own row, so the
// waiters do not conflict with one another once released.
TEST_F(NetTransportTest, LockWaitersDoNotStarveTheHoldersCommit) {
  Build(ClusterControllerOptions{});
  const int64_t cores = std::max(1u, std::thread::hardware_concurrency());
  const int64_t waiters = 2 * cores + 1;
  std::vector<Row> extra;
  for (int64_t i = 21; i <= waiters; ++i) {
    extra.push_back({Value(i), Value(int64_t{100})});
  }
  if (!extra.empty()) {
    ASSERT_TRUE(controller_->BulkLoad("shop", "item", extra).ok());
  }
  auto writer = controller_->Connect("shop");
  ASSERT_TRUE(writer->Begin().ok());
  ASSERT_TRUE(writer->Execute("UPDATE item SET i_stock = i_stock - 1").ok());

  std::atomic<int> updated{0};
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int64_t i = 1; i <= waiters; ++i) {
    threads.emplace_back([&, i] {
      auto conn = controller_->Connect("shop");
      if (!conn->Begin().ok()) return;
      if (!conn->Execute("UPDATE item SET i_stock = i_stock - 1 "
                         "WHERE i_id = " +
                         std::to_string(i))
               .ok()) {
        return;
      }
      updated.fetch_add(1);
      if (conn->Commit().ok()) committed.fetch_add(1);
    });
  }
  // Give every waiter time to reach the writer's locks; none gets past.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(updated.load(), 0);

  Status commit = writer->Commit();
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(committed.load(), waiters);
  for (int64_t i = 1; i <= waiters; ++i) EXPECT_EQ(StockOnEngine(0, i), 98);
  EXPECT_FALSE(controller_->machine(0)->failed());
  EXPECT_FALSE(controller_->machine(1)->failed());
}

// The deadline watchdog at the MachineClient level: a reply disarms its
// call's deadline (nothing stays armed once traffic is quiescent), and a
// lost reply still expires into kUnavailable plus the timeout listener.
TEST(MachineClientDeadlineTest, RepliesDisarmAndALostReplyStillTimesOut) {
  Machine machine(0, MachineOptions{});
  net::MachineService service(&machine);
  net::InProcTransport transport;
  transport.AttachLocal(0, &service);
  // Generous for healthy calls under TSan; the lost reply waits it out.
  net::MachineClient client(&transport, {.call_timeout_us = 1'000'000});
  std::atomic<int> timeouts{0};
  client.SetTimeoutListener([&timeouts](int machine_id) {
    if (machine_id == 0) timeouts.fetch_add(1);
  });
  ASSERT_TRUE(client.CreateDatabase(0, "db").ok());

  // Control calls and session calls, each completed by its reply.
  auto session = client.OpenSession(0);
  auto call = [](auto issue) {
    std::promise<net::RpcResponse> done;
    auto reply = done.get_future();
    issue([&done](net::RpcResponse response) {
      done.set_value(std::move(response));
    });
    return reply.get();
  };
  for (uint64_t txn = 1; txn <= 20; ++txn) {
    ASSERT_TRUE(client.Health(0).ok());
    ASSERT_TRUE(call([&](net::ResponseHandler h) {
                  session->BeginAsync(txn, "db", false, std::move(h));
                }).ok());
    ASSERT_TRUE(call([&](net::ResponseHandler h) {
                  session->CommitAsync(txn, std::move(h));
                }).ok());
  }
  EXPECT_EQ(client.ArmedDeadlineCount(), 0u);

  auto& registry = obs::MetricsRegistry::Global();
  obs::MetricLabels has_db{.operation = "HasDatabase"};
  int64_t timeouts_before =
      registry.CounterValue("mtdb_rpc_timeout_total", has_db);
  transport.SetFaultHook([](int, const net::RpcRequest& request) {
    return request.type == net::RpcType::kHasDatabase
               ? net::InProcTransport::Fault::kDropReply
               : net::InProcTransport::Fault::kDeliver;
  });
  Status lost = client.HasDatabase(0, "db");
  EXPECT_EQ(lost.code(), StatusCode::kUnavailable) << lost.ToString();
  // The listener runs right after the expired call's handler.
  for (int i = 0; i < 500 && timeouts.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(timeouts.load(), 1);
  EXPECT_EQ(registry.CounterValue("mtdb_rpc_timeout_total", has_db),
            timeouts_before + 1);
  EXPECT_EQ(client.ArmedDeadlineCount(), 0u);
  transport.SetFaultHook(nullptr);
}

// A timed-out call marks its machine failed before the caller hears
// kUnavailable: a caller reacting to the timeout must already see the
// failure, so the timeout listener runs before the call's handler.
TEST(MachineClientDeadlineTest, TimeoutListenerRunsBeforeTheCallsHandler) {
  std::atomic<bool> handler_ran{false};
  std::atomic<int> listener_calls{0};
  std::atomic<bool> handler_ran_first{false};
  net::InProcTransport transport;
  transport.SetFaultHook([](int, const net::RpcRequest&) {
    return net::InProcTransport::Fault::kDropRequest;
  });
  net::MachineClient client(&transport, {.call_timeout_us = 20'000});
  client.SetTimeoutListener([&](int) {
    handler_ran_first.store(handler_ran.load());
    listener_calls.fetch_add(1);
  });
  auto session = client.OpenSession(0);
  net::RpcResponse reply = net::AwaitReply([&](net::ResponseHandler done) {
    session->BeginAsync(1, "db", false,
                        [&, done = std::move(done)](net::RpcResponse r) {
                          handler_ran.store(true);
                          done(std::move(r));
                        });
  });
  EXPECT_EQ(reply.code, StatusCode::kUnavailable);
  EXPECT_EQ(listener_calls.load(), 1);
  EXPECT_FALSE(handler_ran_first.load());
}

// --- InProcTransport channels on the shared worker pool ---

// OS threads of this process, from /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// With no machine attached, a transport answers every request kUnavailable,
// through the full codec round trip.
net::RpcRequest HealthRequest() {
  net::RpcRequest request;
  request.type = net::RpcType::kHealth;
  return request;
}

void CallAndWait(net::Channel* channel) {
  (void)net::AwaitReply([&](net::ResponseHandler done) {
    channel->Call(HealthRequest(), std::move(done));
  });
}

// An in-process channel is a strand on the transport's worker pool: its
// calls are delivered one at a time, in the order they were made, and
// closing the channel drains them. The StrandTest cases check that contract
// on a channel; the InProcChannelTest cases check the pool behind it.

TEST(StrandTest, TasksRunInSubmissionOrder) {
  net::InProcTransport transport;
  std::vector<int> order;
  std::mutex mu;
  {
    auto channel = transport.OpenChannel(0);
    for (int i = 0; i < 100; ++i) {
      channel->Call(HealthRequest(), [&order, &mu, i](net::RpcResponse r) {
        EXPECT_EQ(r.code, StatusCode::kUnavailable);
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      });
    }
  }
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

// A call completes through its own handler, which a caller can wait on.
TEST(StrandTest, SubmitReturnsCompletionFuture) {
  net::InProcTransport transport;
  auto channel = transport.OpenChannel(0);
  net::RpcResponse response = net::AwaitReply([&](net::ResponseHandler done) {
    channel->Call(HealthRequest(), std::move(done));
  });
  EXPECT_EQ(response.code, StatusCode::kUnavailable);
}

// Closing a channel waits for every call queued on it, slow ones included.
TEST(StrandTest, DrainWaitsForEarlierWork) {
  net::InProcTransport transport;
  transport.SetLatencyHook(
      [](int, const net::RpcRequest&) -> int64_t { return 2000; });
  std::atomic<int> done{0};
  {
    auto channel = transport.OpenChannel(0);
    for (int i = 0; i < 10; ++i) {
      channel->Call(HealthRequest(), [&done](net::RpcResponse) { done++; });
    }
  }
  EXPECT_EQ(done.load(), 10);
}

TEST(StrandTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    net::InProcTransport transport;
    auto channel = transport.OpenChannel(0);
    for (int i = 0; i < 20; ++i) {
      channel->Call(HealthRequest(), [&done](net::RpcResponse) { done++; });
    }
  }
  EXPECT_EQ(done.load(), 20);
}

// A delivery that throws is reported to the violation handler, and the
// channel goes on with its later calls in order.
TEST(StrandTest, DetachedTaskExceptionSurfacesAsViolation) {
  std::vector<analysis::InvariantViolation> violations;
  std::vector<int> order;
  {
    analysis::ScopedViolationRecorder recorder(&violations);
    net::InProcTransport transport;
    auto channel = transport.OpenChannel(0);
    channel->Call(HealthRequest(), [](net::RpcResponse) {
      throw std::runtime_error("task boom");
    });
    channel->Call(HealthRequest(),
                  [&order](net::RpcResponse) { order.push_back(1); });
    channel->Call(HealthRequest(),
                  [&order](net::RpcResponse) { order.push_back(2); });
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].checker, "inproc");
  EXPECT_NE(violations[0].detail.find("task boom"), std::string::npos);
}

// A throwing delivery does not stall the channel: a caller waiting on the
// next call is still answered.
TEST(StrandTest, ThrowingSubmitStillResolvesItsFuture) {
  std::vector<analysis::InvariantViolation> violations;
  {
    analysis::ScopedViolationRecorder recorder(&violations);
    net::InProcTransport transport;
    auto channel = transport.OpenChannel(0);
    channel->Call(HealthRequest(), [](net::RpcResponse) {
      throw std::runtime_error("sync boom");
    });
    CallAndWait(channel.get());
  }
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].detail.find("sync boom"), std::string::npos);
}

TEST(StrandTest, NonStdExceptionIsReportedToo) {
  std::vector<analysis::InvariantViolation> violations;
  {
    analysis::ScopedViolationRecorder recorder(&violations);
    net::InProcTransport transport;
    auto channel = transport.OpenChannel(0);
    channel->Call(HealthRequest(),
                  [](net::RpcResponse) { throw 42; });  // NOLINT
  }
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].detail.find("non-std"), std::string::npos);
}

// Concurrent callers on one channel: every call is delivered, and each
// caller's calls keep their order.
TEST(InProcChannelTest, ConcurrentCallersAreDeliveredInEachCallersOrder) {
  constexpr int kCallers = 4;
  constexpr int kCalls = 50;
  net::InProcTransport transport;
  std::vector<std::vector<int>> seen(kCallers);
  std::mutex mu;
  {
    auto channel = transport.OpenChannel(0);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (int i = 0; i < kCalls; ++i) {
          channel->Call(HealthRequest(), [&, c, i](net::RpcResponse) {
            std::lock_guard<std::mutex> lock(mu);
            seen[c].push_back(i);
          });
        }
      });
    }
    for (auto& caller : callers) caller.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    ASSERT_EQ(seen[c].size(), static_cast<size_t>(kCalls));
    for (int i = 0; i < kCalls; ++i) EXPECT_EQ(seen[c][i], i);
  }
}

// A call blocked on one channel holds only that channel's worker: another
// channel's calls are delivered meanwhile.
TEST(InProcChannelTest, ABlockedChannelDoesNotDelayAnother) {
  net::InProcTransport transport;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  transport.SetLatencyHook(
      [released](int machine_id, const net::RpcRequest&) -> int64_t {
        if (machine_id == 1) released.wait();
        return 0;
      });
  auto blocked = transport.OpenChannel(1);
  auto other = transport.OpenChannel(0);
  std::atomic<bool> blocked_done{false};
  blocked->Call(HealthRequest(),
                [&blocked_done](net::RpcResponse) { blocked_done = true; });
  for (int i = 0; i < 10; ++i) CallAndWait(other.get());
  EXPECT_FALSE(blocked_done.load());
  release.set_value();
  blocked.reset();
  EXPECT_TRUE(blocked_done.load());
}

// Channels start no thread of their own: 1,000 open channels add none, and
// using them a few at a time reuses the pool's workers.
TEST(InProcChannelTest, OpenChannelsDoNotAddThreads) {
  constexpr int kChannels = 1000;
  constexpr int kBatch = 8;
  net::InProcTransport transport;
  const int before = ProcessThreads();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<net::Channel>> channels;
  for (int i = 0; i < kChannels; ++i) {
    channels.push_back(transport.OpenChannel(i % 4));
  }
  EXPECT_LE(ProcessThreads() - before, 0);
  for (int i = 0; i < kChannels; ++i) {
    CallAndWait(channels[i].get());
    // Let the batch's workers finish their wait for a next call.
    if (i % kBatch == kBatch - 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_LE(ProcessThreads() - before, 2 * kBatch);
}

}  // namespace
}  // namespace mtdb
