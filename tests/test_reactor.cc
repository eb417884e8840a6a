// Sharded-reactor server core: connection distribution across
// reactors (SO_REUSEPORT shards for TCP, fd handoff for unix
// sockets), shed accounting summed across reactors under saturation,
// graceful drain finishing in-flight work on every reactor, and
// work-stealing correctness with the fault harness slowing one
// shard's handlers. Suite names carry Backpressure/Drain/Fault/Chaos
// so the chaos CI leg (scripts/check.sh chaos) picks them up.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "rpc/async_client.h"
#include "rpc/health.h"
#include "rpc/protocol.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"

namespace hvac {
namespace {

using rpc::AsyncRpcClient;
using rpc::Bytes;
using rpc::RpcClient;
using rpc::RpcServer;
using rpc::RpcServerOptions;

uint64_t sum_conns(const std::vector<RpcServer::ReactorStats>& stats) {
  uint64_t total = 0;
  for (const auto& s : stats) total += s.conns;
  return total;
}

uint64_t sum_requests(const std::vector<RpcServer::ReactorStats>& stats) {
  uint64_t total = 0;
  for (const auto& s : stats) total += s.requests;
  return total;
}

uint64_t sum_shed(const std::vector<RpcServer::ReactorStats>& stats) {
  uint64_t total = 0;
  for (const auto& s : stats) total += s.shed;
  return total;
}

std::string unix_endpoint(const std::string& tag) {
  return "unix:" + ::testing::TempDir() + "hvac_reactor_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ---- work-stealing pool (the dispatch tier on its own) --------------------

TEST(ReactorChaos, WorkStealingPoolRunsEverySubmittedTask) {
  WorkStealingPool::Options o;
  o.shards = 4;
  o.workers_per_shard = 1;
  o.shard_capacity = 1024;
  WorkStealingPool pool(o);
  ASSERT_EQ(pool.shard_count(), 4u);
  ASSERT_EQ(pool.num_threads(), 4u);

  std::atomic<int> ran{0};
  constexpr int kTasks = 400;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.submit(size_t(i) % 4, [&] { ran.fetch_add(1); }).ok());
  }
  pool.shutdown();  // drains: every accepted task runs before exit
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_FALSE(pool.submit(0, [] {}).ok());  // after shutdown: rejected
}

TEST(ReactorChaos, WorkStealingPoolStealsFromBusyShard) {
  WorkStealingPool::Options o;
  o.shards = 2;
  o.workers_per_shard = 1;
  WorkStealingPool pool(o);

  // Park shard 1's worker so its queue sits idle, then pile work on
  // shard 0: shard 1's worker must steal shard-0 backlog once it
  // frees up, and the steals land on the victim shard's counter.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ASSERT_TRUE(pool.submit(1, [gate] { gate.wait(); }).ok());

  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.submit(0, [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    }).ok());
  }
  release.set_value();
  pool.shutdown();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_GT(pool.steals(0), 0u);  // victim-shard accounting
}

TEST(ReactorChaos, WorkStealingPoolBoundsQueueWithCapacityError) {
  WorkStealingPool::Options o;
  o.shards = 1;
  o.workers_per_shard = 1;
  o.shard_capacity = 4;
  WorkStealingPool pool(o);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<bool> started{false};
  ASSERT_TRUE(pool.submit(0, [&started, gate] {
    started.store(true);
    gate.wait();
  }).ok());
  while (!started.load()) std::this_thread::yield();
  // Worker is provably blocked and the queue empty: it takes exactly
  // shard_capacity more, then rejects with kCapacity instead of
  // growing without bound.
  int accepted = 0;
  Status last = Status::Ok();
  for (int i = 0; i < 64; ++i) {
    Status s = pool.submit(0, [] {});
    if (s.ok()) {
      ++accepted;
    } else {
      last = std::move(s);
      break;
    }
  }
  EXPECT_EQ(accepted, 4);
  ASSERT_FALSE(last.ok());
  EXPECT_EQ(last.error().code, ErrorCode::kCapacity);
  release.set_value();
  pool.shutdown();
}

TEST(ReactorWake, NoStealSyncRoundTripIsBounded) {
  // With stealing off only a home worker may run a task, so submit()
  // must wake one of those — not any sleeper, which would leave the
  // task until the home worker's sleep timed out (tens of ms).
  ::setenv("HVAC_STEAL", "0", 1);
  RpcServerOptions so;
  so.bind_address = "127.0.0.1:0";
  so.handler_threads = 4;
  so.reactors = 4;
  RpcServer server(so);
  server.register_handler(1, [](const Bytes& req) {
    return Result<Bytes>(req);
  });
  const Status started = server.start();
  ::unsetenv("HVAC_STEAL");
  ASSERT_TRUE(started.ok());

  std::vector<std::unique_ptr<RpcClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<RpcClient>(server.endpoint()));
  }
  // Round-robin over connections spread across reactors. A lost wake
  // costs up to the 50 ms sleep timeout (measured: a 14-35 ms mean);
  // a delivered one, tens of microseconds.
  constexpr int kCalls = 64;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalls; ++i) {
    const Bytes req{uint8_t(i)};
    const auto resp = clients[i % 4]->call(1, req);
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    EXPECT_EQ(*resp, req);
  }
  const double mean_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count() /
                         kCalls;
  EXPECT_LT(mean_ms, 2.0) << "mean sync round trip (ms)";
  server.stop();
}

// ---- connection distribution ----------------------------------------------

TEST(ReactorChaos, TcpRequestsConservedAcrossReactors) {
  RpcServerOptions so;
  so.bind_address = "127.0.0.1:0";
  so.handler_threads = 4;
  so.reactors = 4;
  RpcServer server(so);
  server.register_handler(1, [](const Bytes& req) {
    return Result<Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());
  ASSERT_EQ(server.reactor_count(), 4u);

  // 16 connections, 8 echoes each. SO_REUSEPORT hashes the 4-tuple,
  // so per-reactor counts are kernel-dependent — what must hold is
  // conservation: nothing lost, nothing double-counted.
  constexpr int kClients = 16;
  constexpr int kCallsEach = 8;
  std::vector<std::unique_ptr<RpcClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<RpcClient>(server.endpoint()));
  }
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kCallsEach; ++i) {
      const Bytes req{uint8_t(c), uint8_t(i)};
      const auto resp = clients[c]->call(1, req);
      ASSERT_TRUE(resp.ok()) << resp.error().to_string();
      EXPECT_EQ(*resp, req);
    }
  }

  const auto stats = server.reactor_stats();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_EQ(sum_conns(stats), uint64_t(kClients));
  EXPECT_EQ(sum_requests(stats), uint64_t(kClients) * kCallsEach);
  EXPECT_EQ(server.requests_served(), uint64_t(kClients) * kCallsEach);
  server.stop();
}

TEST(ReactorChaos, UnixHandoffRoundRobinsConnections) {
  RpcServerOptions so;
  so.bind_address = unix_endpoint("handoff");
  so.handler_threads = 4;
  so.reactors = 4;
  RpcServer server(so);
  server.register_handler(1, [](const Bytes& req) {
    return Result<Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());
  ASSERT_EQ(server.reactor_count(), 4u);

  // Unix sockets cannot shard the listener: reactor 0 accepts and
  // hands fds round-robin, so 8 connections land exactly 2 per
  // reactor. The ping makes each handoff observable before we look.
  constexpr int kClients = 8;
  std::vector<std::unique_ptr<RpcClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<RpcClient>(server.endpoint()));
    const auto resp = clients.back()->call(1, Bytes{uint8_t(i)});
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  }

  const auto stats = server.reactor_stats();
  ASSERT_EQ(stats.size(), 4u);
  for (size_t r = 0; r < stats.size(); ++r) {
    EXPECT_EQ(stats[r].conns, 2u) << "reactor " << r;
  }
  EXPECT_EQ(sum_requests(stats), uint64_t(kClients));
  server.stop();
}

// ---- saturation / shed accounting -----------------------------------------

TEST(ReactorBackpressure, ShedAccountingSumsAcrossReactors) {
  RpcServerOptions so;
  so.bind_address = unix_endpoint("shed");
  so.handler_threads = 2;
  so.max_inflight_per_conn = 2;
  so.reactors = 2;
  RpcServer server(so);
  server.register_handler(1, [](const Bytes& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return Result<Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());

  rpc::HealthRegistry::global().reset();
  // Two pipelined clients — the unix handoff puts one on each
  // reactor — each firing far past its per-connection in-flight cap,
  // so both reactors shed.
  AsyncRpcClient a(server.endpoint());
  AsyncRpcClient b(server.endpoint());
  std::vector<std::future<Result<Bytes>>> futures;
  for (uint8_t i = 0; i < 24; ++i) {
    futures.push_back(a.call_async(1, Bytes{i}));
    futures.push_back(b.call_async(1, Bytes{i}));
  }
  size_t ok = 0, shed = 0;
  for (auto& fut : futures) {
    const auto resp = fut.get();  // every call resolves, none hang
    if (resp.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(resp.error().code, ErrorCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);

  const auto stats = server.reactor_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(sum_shed(stats), shed);
  EXPECT_EQ(server.requests_shed(), shed);
  EXPECT_EQ(sum_requests(stats), ok);
  server.stop();
  rpc::HealthRegistry::global().reset();
}

TEST(ReactorBackpressure, PeerThatNeverReadsCannotParkItsReactor) {
  // One reactor serves both connections. The stalled peer asks for a
  // 32 MiB reply and never reads it, so the inline handler's send
  // fills the socket buffers (a few MiB on loopback) and waits. That wait is bounded: the send
  // fails with kTimeout after rpc::kSendStallMs, the server drops the
  // stalled connection, and a ping on the other connection answers
  // within the bound instead of never.
  RpcServerOptions so;
  so.bind_address = "127.0.0.1:0";
  so.handler_threads = 1;
  so.reactors = 1;
  RpcServer server(so);
  constexpr size_t kReplyBytes = 32u << 20;
  server.register_handler(
      1, [](const Bytes&) { return Result<Bytes>(Bytes(kReplyBytes, 0x5a)); },
      rpc::DispatchHint::kInline);
  server.register_handler(
      2, [](const Bytes& req) { return Result<Bytes>(req); },
      rpc::DispatchHint::kInline);
  ASSERT_TRUE(server.start().ok());

  auto stalled = rpc::connect_to(server.endpoint());
  ASSERT_TRUE(stalled.ok()) << stalled.error().to_string();
  rpc::FrameHeader req;
  req.request_id = 1;
  req.opcode = 1;
  uint8_t hdr[rpc::kMaxHeaderSize];
  const size_t hdr_len = rpc::encode_header(req, hdr);
  ASSERT_TRUE(rpc::send_all(stalled->get(), hdr, hdr_len).ok());
  // Let the reactor pick the request up and block in its send.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  RpcClient pinger(server.endpoint());
  const auto t0 = std::chrono::steady_clock::now();
  const auto pong = pinger.call(2, Bytes{7});
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  ASSERT_TRUE(pong.ok()) << pong.error().to_string();
  EXPECT_EQ(*pong, Bytes{7});
  EXPECT_LT(waited_ms, double(rpc::kSendStallMs) + 1000.0);

  // The stalled connection was dropped mid-frame: draining it ends in
  // EOF or a reset, well short of the promised reply.
  timeval tv{5, 0};
  ::setsockopt(stalled->get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::vector<uint8_t> buf(1 << 16);
  size_t drained = 0;
  for (;;) {
    const ssize_t n = ::recv(stalled->get(), buf.data(), buf.size(), 0);
    if (n <= 0) {
      EXPECT_TRUE(n == 0 || errno == ECONNRESET) << "errno " << errno;
      break;
    }
    drained += size_t(n);
  }
  EXPECT_LT(drained, hdr_len + kReplyBytes);
  server.stop();
}

// ---- graceful drain across reactors ---------------------------------------

TEST(ReactorDrain, DrainFinishesInflightOnAllReactors) {
  RpcServerOptions so;
  so.bind_address = unix_endpoint("drain");
  so.handler_threads = 4;
  so.reactors = 4;
  RpcServer server(so);
  server.register_handler(1, [](const Bytes& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Result<Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());
  rpc::HealthRegistry::global().reset();

  // One in-flight request per reactor (round-robin handoff), then
  // drain: all four must be answered, not cut, and late arrivals on
  // the still-open connections get a shed response rather than a hang.
  std::vector<std::unique_ptr<AsyncRpcClient>> clients;
  std::vector<std::future<Result<Bytes>>> inflight;
  for (uint8_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<AsyncRpcClient>(server.endpoint()));
    inflight.push_back(clients.back()->call_async(1, Bytes{i}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.drain(3000);
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.inflight(), 0u);

  for (uint8_t i = 0; i < 4; ++i) {
    const auto resp = inflight[i].get();
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    EXPECT_EQ((*resp)[0], i);
  }
  for (auto& client : clients) {
    const auto late = client->call(1, Bytes{9});
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.error().code, ErrorCode::kUnavailable);
    EXPECT_NE(late.error().message.find("draining"), std::string::npos);
  }
  server.stop();
  rpc::HealthRegistry::global().reset();
}

// ---- work stealing under fault injection ----------------------------------

TEST(ReactorFaultSteal, StealsKeepAnswersCorrectUnderInjectedDelay) {
  RpcServerOptions so;
  so.bind_address = unix_endpoint("steal");
  so.handler_threads = 2;
  so.reactors = 2;
  RpcServer server(so);
  // Pooled handler slowed by the fault harness (the mover-bound
  // shape): every request checks the kRead site, which is configured
  // to sleep.
  server.register_handler(1, [](const Bytes& req) -> Result<Bytes> {
    (void)fault::check(fault::Site::kRead);
    return req;
  });
  ASSERT_TRUE(server.start().ok());
  ASSERT_TRUE(fault::configure("read:delay_ms=2").ok());

  // Both clients land on reactor 0/1 via handoff; only client A sends,
  // so reactor 0's shard backs up while reactor 1's worker idles — it
  // must steal, and every stolen request must still return its own
  // payload (no cross-wiring of connections or responses).
  AsyncRpcClient a(server.endpoint());
  AsyncRpcClient b(server.endpoint());
  const auto warm = b.call(1, Bytes{0xFF});  // materialize b's conn
  ASSERT_TRUE(warm.ok());

  std::vector<std::future<Result<Bytes>>> futures;
  constexpr uint8_t kCalls = 48;
  for (uint8_t i = 0; i < kCalls; ++i) {
    futures.push_back(a.call_async(1, Bytes{i}));
  }
  for (uint8_t i = 0; i < kCalls; ++i) {
    const auto resp = futures[i].get();
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    ASSERT_EQ(resp->size(), 1u);
    EXPECT_EQ((*resp)[0], i);
  }

  const auto stats = server.reactor_stats();
  ASSERT_EQ(stats.size(), 2u);
  const uint64_t steals = stats[0].steals + stats[1].steals;
  EXPECT_GT(steals, 0u);
  EXPECT_GT(fault::total_injected(), 0u);
  server.stop();
  fault::reset();
}

// ---- single-reactor fallback ----------------------------------------------

TEST(ReactorChaos, SingleReactorIsStatusQuo) {
  RpcServerOptions so;
  so.bind_address = "127.0.0.1:0";
  so.handler_threads = 2;
  so.reactors = 1;
  RpcServer server(so);
  server.register_handler(1, [](const Bytes& req) {
    return Result<Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());
  ASSERT_EQ(server.reactor_count(), 1u);

  RpcClient client(server.endpoint());
  for (uint8_t i = 0; i < 8; ++i) {
    const auto resp = client.call(1, Bytes{i});
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ((*resp)[0], i);
  }
  const auto stats = server.reactor_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].conns, 1u);
  EXPECT_EQ(stats[0].requests, 8u);
  server.stop();
}

TEST(ReactorPinning, PinnedReactorsStillServe) {
  // HVAC_REACTOR_PIN=1 pins each reactor to one allowed CPU. The pin
  // is opt-in and warn-on-failure, so the observable contract is
  // simply: the server works exactly as before, whatever the runner's
  // cpuset looks like (more reactors than allowed CPUs included).
  ::setenv("HVAC_REACTOR_PIN", "1", 1);
  RpcServerOptions so;
  so.bind_address = "127.0.0.1:0";
  so.handler_threads = 2;
  so.reactors = 4;
  RpcServer server(so);
  server.register_handler(1, [](const Bytes& req) {
    return Result<Bytes>(req);
  });
  ASSERT_TRUE(server.start().ok());

  RpcClient client(server.endpoint());
  for (uint8_t i = 0; i < 16; ++i) {
    const auto resp = client.call(1, Bytes{i});
    ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    EXPECT_EQ((*resp)[0], i);
  }
  EXPECT_EQ(server.requests_served(), 16u);
  server.stop();
  ::unsetenv("HVAC_REACTOR_PIN");
}

}  // namespace
}  // namespace hvac
