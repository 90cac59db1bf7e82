// Fault-injection suite: SIGKILL channel participants at the worst points
// of the IPC protocols and verify the survivors recover — locks are stolen
// and repaired, leaked nodes swept, dead clients reaped by the duplex
// server — all within bounded time (no test sleeps anywhere near the ctest
// timeout; liveness timeouts are tens of milliseconds).
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>

#include <gtest/gtest.h>

#include "protocols/bsw.hpp"
#include "queue/queue_recovery.hpp"
#include "runtime/duplex_server.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

constexpr std::int64_t kLivenessTimeoutNs = 50'000'000;  // 50 ms

/// Cross-process scratch the duplex tests use to ship results and to
/// sequence the kill (the victim signals "ready to die" through it).
struct CrashOut {
  std::atomic<std::uint32_t> victim_ready{0};
  std::uint64_t echo_messages = 0;
  std::uint32_t crashed_clients = 0;
  std::uint32_t crashed_id = 0;
  std::uint32_t drained = 0;
};

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void build(std::uint32_t clients, bool duplex) {
    ShmChannel::Config cfg;
    cfg.max_clients = clients;
    cfg.queue_capacity = 32;
    cfg.duplex = duplex;
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
    out_region_ = ShmRegion::create_anonymous(4096);
    out_ = new (out_region_.base()) CrashOut();
  }

  /// Spins (bounded) until the victim reports it is parked and killable.
  void await_victim_ready() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (out_->victim_ready.load(std::memory_order_acquire) == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "victim never reached its kill point";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ShmRegion region_;
  ShmRegion out_region_;
  std::optional<ShmChannel> channel_;
  CrashOut* out_ = nullptr;
};

// A producer SIGKILLed between "link node" and "advance tail" leaves the
// tail lock held and tail_ lagging. The next enqueuer must steal the lock,
// repair the tail from head, and no message may be lost or duplicated.
TEST_F(CrashRecoveryTest, TailStealRepairsHalfFinishedEnqueue) {
  build(1, /*duplex=*/false);
  TwoLockQueue& q = *channel_->server_endpoint().queue;
  const std::uint32_t free0 = channel_->node_pool().free_count();

  ASSERT_TRUE(q.enqueue(Message(Op::kEcho, 0, 1.0)));
  ChildProcess victim = ChildProcess::spawn([&] {
    return q.crash_mid_enqueue_for_test(Message(Op::kEcho, 0, 2.0)) !=
                   kNullIndex
               ? 0
               : 1;
  });
  ASSERT_EQ(victim.join(), 0);

  // The corpse still owns the tail lock.
  EXPECT_NE(q.tail_lock().owner(), 0u);
  EXPECT_NE(q.tail_lock().owner(), robust_self_pid());

  // This enqueue must steal, repair, and append after the half-linked node.
  ASSERT_TRUE(q.enqueue(Message(Op::kEcho, 0, 3.0)));
  EXPECT_EQ(q.tail_lock().steal_count(), 1u);

  Message m;
  ASSERT_TRUE(q.dequeue(&m));
  EXPECT_EQ(m.value, 1.0);
  ASSERT_TRUE(q.dequeue(&m));
  EXPECT_EQ(m.value, 2.0);  // linking is the commit point: not lost
  ASSERT_TRUE(q.dequeue(&m));
  EXPECT_EQ(m.value, 3.0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(channel_->node_pool().free_count(), free0);
}

// A process dying between NodePool::allocate() and the queue link leaks a
// node invisible to every queue. reclaim_client() must sweep it back.
TEST_F(CrashRecoveryTest, LeakedNodeOfDeadClientIsSwept) {
  build(1, /*duplex=*/false);
  const std::uint32_t free0 = channel_->node_pool().free_count();

  ChildProcess victim = ChildProcess::spawn([&] {
    return channel_->node_pool().allocate() != kNullIndex ? 0 : 1;
  });
  channel_->register_client_pid(
      0, static_cast<std::uint32_t>(victim.pid()));
  ASSERT_EQ(victim.join(), 0);
  ASSERT_TRUE(channel_->client_crashed(0));

  const ShmChannel::ReclaimStats rs = channel_->reclaim_client(0);
  EXPECT_EQ(rs.nodes_reclaimed, 1u);
  EXPECT_EQ(channel_->node_pool().free_count(), free0);
  EXPECT_FALSE(channel_->client_crashed(0));  // seat vacated
}

// The sweep must NOT reclaim a node whose owner is alive — a live process
// may be microseconds away from linking it into a queue.
TEST_F(CrashRecoveryTest, SweepSparesNodesOfLiveOwners) {
  build(1, /*duplex=*/false);
  NodePool& pool = channel_->node_pool();
  const ShmIndex mine = pool.allocate();  // in flight, owner = this process
  ASSERT_NE(mine, kNullIndex);
  const std::uint32_t free_before = pool.free_count();

  ChildProcess victim = ChildProcess::spawn([] { return 0; });
  channel_->register_client_pid(
      0, static_cast<std::uint32_t>(victim.pid()));
  ASSERT_EQ(victim.join(), 0);

  const ShmChannel::ReclaimStats rs = channel_->reclaim_client(0);
  EXPECT_EQ(rs.nodes_reclaimed, 0u);
  EXPECT_EQ(pool.free_count(), free_before);
  pool.release(mine);
}

/// Shared duplex-crash rig: two clients, client 0 is the victim (runs
/// `victim_body` after connecting and is then SIGKILLed), client 1 runs a
/// full clean workload. The server runs with a 50 ms liveness timeout and
/// must reap exactly client 0 and end with every pool node recovered.
template <typename VictimBody>
void run_duplex_crash(ShmChannel& channel, CrashOut* out,
                      std::uint64_t clean_messages, VictimBody&& victim_body,
                      bool kill_after_ready,
                      const std::function<void()>& await_ready,
                      std::uint64_t min_echoes) {
  const std::uint32_t free0 = channel.node_pool().free_count();

  ChildProcess server = ChildProcess::spawn([&] {
    DuplexServerOptions opts;
    opts.liveness_timeout_ns = kLivenessTimeoutNs;
    const DuplexServerResult r = run_duplex_server(
        channel, Bsw<NativePlatform>(), 2, NativePlatform::Config{}, opts);
    out->echo_messages = r.echo_messages;
    out->crashed_clients = r.crashed_clients;
    if (!r.crash_events.empty()) {
      out->crashed_id = r.crash_events.front().client_id;
      out->drained = r.crash_events.front().drained_messages;
    }
    return r.crashed_clients == 1 ? 0 : 1;
  });

  ChildProcess victim = ChildProcess::spawn([&] {
    NativePlatform plat;
    Bsw<NativePlatform> proto;
    NativeEndpoint& req = channel.client_request_endpoint(0);
    NativeEndpoint& mine = channel.client_endpoint(0);
    client_connect(plat, proto, req, mine, 0);
    victim_body(plat, proto, req, mine);
    return 0;
  });
  channel.register_client_pid(0, static_cast<std::uint32_t>(victim.pid()));

  ChildProcess clean = ChildProcess::spawn([&] {
    NativePlatform plat;
    Bsw<NativePlatform> proto;
    NativeEndpoint& req = channel.client_request_endpoint(1);
    NativeEndpoint& mine = channel.client_endpoint(1);
    client_connect(plat, proto, req, mine, 1);
    const std::uint64_t ok =
        client_echo_loop(plat, proto, req, mine, 1, clean_messages);
    client_disconnect(plat, proto, req, mine, 1);
    return ok == clean_messages ? 0 : 1;
  });
  channel.register_client_pid(1, static_cast<std::uint32_t>(clean.pid()));

  if (kill_after_ready) {
    await_ready();
    victim.kill();
    EXPECT_LT(victim.join(), 0);  // -SIGKILL
  } else {
    EXPECT_EQ(victim.join(), 0);  // victim exits itself mid-operation
  }

  EXPECT_EQ(clean.join(), 0);
  EXPECT_EQ(server.join(), 0) << "server failed to reap the dead client";

  EXPECT_EQ(out->crashed_clients, 1u);
  EXPECT_EQ(out->crashed_id, 0u);
  EXPECT_GE(out->echo_messages, min_echoes);
  // Count free nodes only after every participant has joined: a client
  // releases its final reply node after the server has already finished,
  // so a server-side count would race with that release.
  EXPECT_EQ(channel.node_pool().free_count(), free0)
      << "pool leaked nodes across the crash";
}

// Victim killed while ASLEEP: it finishes a burst of echoes, parks in
// pause(), and is SIGKILLed. The server thread serving it is blocked in a
// timed receive; it must time out, probe, and reap.
TEST_F(CrashRecoveryTest, ServerReapsClientKilledWhileAsleep) {
  build(2, /*duplex=*/true);
  run_duplex_crash(
      *channel_, out_, /*clean_messages=*/500,
      [&](NativePlatform& plat, Bsw<NativePlatform>& proto,
          NativeEndpoint& req, NativeEndpoint& mine) {
        client_echo_loop(plat, proto, req, mine, 0, 100);
        out_->victim_ready.store(1, std::memory_order_release);
        for (;;) pause();
      },
      /*kill_after_ready=*/true, [&] { await_victim_ready(); },
      /*min_echoes=*/600);
}

// Victim dies MID-CRITICAL-SECTION: inside an enqueue on its request
// queue, after linking the node but before advancing the tail, still
// holding the tail lock. The linked request is either served (the link is
// the commit point) or drained during the reap — never stranded — and
// recovery must steal + repair the abandoned lock.
TEST_F(CrashRecoveryTest, ServerReapsClientKilledMidCriticalSection) {
  build(2, /*duplex=*/true);
  run_duplex_crash(
      *channel_, out_, /*clean_messages=*/500,
      [&](NativePlatform&, Bsw<NativePlatform>&, NativeEndpoint& req,
          NativeEndpoint&) {
        req.queue->crash_mid_enqueue_for_test(Message(Op::kEcho, 0, 7.0));
        // exits with the tail lock held
      },
      /*kill_after_ready=*/false, [] {},
      /*min_echoes=*/500);
  EXPECT_EQ(
      channel_->client_request_endpoint(0).queue->tail_lock().steal_count(),
      1u)
      << "recovery should have stolen the corpse's tail lock";
}

// Victim killed MID-SEND at an arbitrary instruction: it hammers echoes in
// an unbounded loop and is SIGKILLed after ~25 ms, landing wherever the
// scheduler put it (enqueueing, waking the server, sleeping on its reply
// semaphore, ...). Whatever the interleaving, the server must reap it and
// the pool must end whole.
TEST_F(CrashRecoveryTest, ServerReapsClientKilledMidSend) {
  build(2, /*duplex=*/true);
  run_duplex_crash(
      *channel_, out_, /*clean_messages=*/500,
      [&](NativePlatform& plat, Bsw<NativePlatform>& proto,
          NativeEndpoint& req, NativeEndpoint& mine) {
        out_->victim_ready.store(1, std::memory_order_release);
        for (std::uint64_t i = 0;; ++i) {
          Message ans;
          proto.send(plat, req, mine, Message(Op::kEcho, 0, double(i)),
                     &ans);
        }
      },
      /*kill_after_ready=*/true,
      [&] {
        await_victim_ready();
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      },
      /*min_echoes=*/500);
}

// Liveness timeouts must not misfire on healthy-but-slow clients: a client
// that stalls longer than the timeout (without dying) still completes.
TEST_F(CrashRecoveryTest, SlowLiveClientIsNotReaped) {
  build(2, /*duplex=*/true);
  const std::uint32_t free0 = channel_->node_pool().free_count();

  ChildProcess server = ChildProcess::spawn([&] {
    DuplexServerOptions opts;
    opts.liveness_timeout_ns = kLivenessTimeoutNs;
    const DuplexServerResult r = run_duplex_server(
        *channel_, Bsw<NativePlatform>(), 2, NativePlatform::Config{}, opts);
    out_->crashed_clients = r.crashed_clients;
    out_->echo_messages = r.echo_messages;
    return r.crashed_clients == 0 ? 0 : 1;
  });

  std::vector<ChildProcess> clients;
  for (std::uint32_t i = 0; i < 2; ++i) {
    clients.push_back(ChildProcess::spawn([&, i] {
      NativePlatform plat;
      Bsw<NativePlatform> proto;
      NativeEndpoint& req = channel_->client_request_endpoint(i);
      NativeEndpoint& mine = channel_->client_endpoint(i);
      client_connect(plat, proto, req, mine, i);
      client_echo_loop(plat, proto, req, mine, i, 50);
      // Stall for 4x the server's liveness timeout, then resume: the
      // server probes kill(pid, 0), finds us alive, and keeps waiting.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const std::uint64_t ok =
          client_echo_loop(plat, proto, req, mine, i, 50);
      client_disconnect(plat, proto, req, mine, i);
      return ok == 50 ? 0 : 1;
    }));
    channel_->register_client_pid(
        i, static_cast<std::uint32_t>(clients.back().pid()));
  }

  for (auto& c : clients) EXPECT_EQ(c.join(), 0);
  EXPECT_EQ(server.join(), 0) << "server reaped a live client";
  EXPECT_EQ(out_->crashed_clients, 0u);
  EXPECT_EQ(out_->echo_messages, 200u);
  // Counted after all joins — a server-side count would race with the
  // clients releasing their final disconnect-reply nodes.
  EXPECT_EQ(channel_->node_pool().free_count(), free0);
}

}  // namespace
}  // namespace ulipc
