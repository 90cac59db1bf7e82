// WaitSet suite: the readiness plane under real processes. Covers backend
// resolution (probe + ULIPC_FORCE_EVENTFD_BRIDGE), the single-worker
// fan-in echo over many channels on BOTH backends, membership changes
// while a waiter is blocked, and a SIGKILLed doorbell-armed client whose
// member slot is reclaimed by the recovery sweep. The lost-wakeup shape at
// every arm/recheck/block edge is pinned separately in
// tests/explore/waitset_explore_test.cpp.
#include <poll.h>
#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "protocols/bsw.hpp"
#include "protocols/detail.hpp"
#include "runtime/shm_channel.hpp"
#include "runtime/waitset.hpp"
#include "shm/futex_waitv.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

/// Env guard: forces (or clears) ULIPC_FORCE_EVENTFD_BRIDGE for one test
/// body and restores the prior state on exit, so tests cannot leak the
/// override into each other.
class ForceBridgeEnv {
 public:
  explicit ForceBridgeEnv(const char* value) {
    const char* prev = getenv(kVar);
    had_ = prev != nullptr;
    if (had_) saved_ = prev;
    if (value != nullptr) {
      setenv(kVar, value, 1);
    } else {
      unsetenv(kVar);
    }
  }
  ~ForceBridgeEnv() {
    if (had_) {
      setenv(kVar, saved_.c_str(), 1);
    } else {
      unsetenv(kVar);
    }
  }

 private:
  static constexpr const char* kVar = "ULIPC_FORCE_EVENTFD_BRIDGE";
  bool had_ = false;
  std::string saved_;
};

TEST(WaitSetBackendTest, ResolutionHonorsProbeAndEnv) {
  {
    ForceBridgeEnv env(nullptr);  // no override: probe decides kAuto
    const WaitSetBackend resolved =
        WaitSet::resolve_backend(WaitSetBackend::kAuto);
    if (futex_waitv_available()) {
      EXPECT_EQ(resolved, WaitSetBackend::kFutexWaitv);
    } else {
      EXPECT_EQ(resolved, WaitSetBackend::kEventfdBridge);
    }
    // An explicit bridge request always sticks.
    EXPECT_EQ(WaitSet::resolve_backend(WaitSetBackend::kEventfdBridge),
              WaitSetBackend::kEventfdBridge);
  }
  {
    ForceBridgeEnv env("ON");
    EXPECT_EQ(WaitSet::resolve_backend(WaitSetBackend::kAuto),
              WaitSetBackend::kEventfdBridge);
  }
  {
    // "0" and "OFF" mean not forced.
    ForceBridgeEnv env("0");
    if (futex_waitv_available()) {
      EXPECT_EQ(WaitSet::resolve_backend(WaitSetBackend::kAuto),
                WaitSetBackend::kFutexWaitv);
    }
  }
}

/// Builds N independent single-client channels on anonymous regions.
struct ChannelFarm {
  explicit ChannelFarm(std::uint32_t n, std::uint32_t queue_capacity = 64) {
    ShmChannel::Config cfg;
    cfg.max_clients = 1;
    cfg.queue_capacity = queue_capacity;
    cfg.payload_max_bytes = 0;
    regions.reserve(n);
    chans.reserve(n);
    for (std::uint32_t c = 0; c < n; ++c) {
      regions.push_back(
          ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg)));
      chans.push_back(ShmChannel::create(regions.back(), cfg));
    }
  }
  std::vector<ShmChannel*> ptrs() {
    std::vector<ShmChannel*> p;
    for (ShmChannel& ch : chans) p.push_back(&ch);
    return p;
  }
  std::vector<ShmRegion> regions;
  std::vector<ShmChannel> chans;
};

class WaitSetFaninTest : public ::testing::TestWithParam<WaitSetBackend> {};

INSTANTIATE_TEST_SUITE_P(Backends, WaitSetFaninTest,
                         ::testing::Values(WaitSetBackend::kFutexWaitv,
                                           WaitSetBackend::kEventfdBridge),
                         [](const auto& param_info) {
                           return std::string(
                               waitset_backend_name(param_info.param));
                         });

// One waitset worker process serves 12 channels' echo clients end to end:
// every round trip verified, the server's aggregate-wait accounting sane,
// and every channel's node pool whole afterwards.
TEST_P(WaitSetFaninTest, SingleWorkerServesManyChannels) {
  if (GetParam() == WaitSetBackend::kFutexWaitv &&
      !futex_waitv_available()) {
    GTEST_SKIP() << "kernel lacks futex_waitv";
  }
  constexpr std::uint32_t kChannels = 12;
  constexpr std::uint64_t kMessages = 40;
  ChannelFarm farm(kChannels);
  std::vector<std::uint32_t> free0;
  for (ShmChannel& ch : farm.chans) {
    free0.push_back(ch.node_pool().free_count());
  }

  struct Out {
    std::uint64_t echo_messages = 0;
    std::uint64_t waits = 0;
    std::uint64_t ready_members = 0;
    std::uint64_t doorbell_arms = 0;
    std::uint32_t disconnected = 0;
    bool gave_up = true;
  };
  ShmRegion out_region = ShmRegion::create_anonymous(4096);
  auto* out = new (out_region.base()) Out();

  ChildProcess server = ChildProcess::spawn([&] {
    NativePlatform plat;
    FaninOptions fo;
    fo.backend = GetParam();
    fo.liveness_timeout_ns = 5'000'000'000;
    auto ptrs = farm.ptrs();
    const FaninResult fr =
        run_waitset_fanin_server(plat, ptrs, kChannels, fo);
    out->echo_messages = fr.server.echo_messages;
    out->waits = fr.waits;
    out->ready_members = fr.ready_members;
    out->doorbell_arms = plat.counters().doorbell_arms;
    out->disconnected = fr.disconnected;
    out->gave_up = fr.gave_up;
    return fr.gave_up ? 1 : 0;
  });

  std::vector<ChildProcess> clients;
  for (std::uint32_t c = 0; c < kChannels; ++c) {
    clients.push_back(ChildProcess::spawn([&, c] {
      NativePlatform plat;
      Bsw<NativePlatform> proto;
      NativeEndpoint& srv = farm.chans[c].server_endpoint();
      NativeEndpoint& mine = farm.chans[c].client_endpoint(0);
      client_connect(plat, proto, srv, mine, 0);
      const std::uint64_t ok =
          client_echo_loop(plat, proto, srv, mine, 0, kMessages);
      client_disconnect(plat, proto, srv, mine, 0);
      return ok == kMessages ? 0 : 1;
    }));
  }

  for (auto& c : clients) EXPECT_EQ(c.join(), 0);
  EXPECT_EQ(server.join(), 0);
  EXPECT_FALSE(out->gave_up);
  EXPECT_EQ(out->disconnected, kChannels);
  EXPECT_EQ(out->echo_messages, kChannels * kMessages);
  EXPECT_GT(out->waits, 0u);
  EXPECT_GE(out->ready_members, out->waits);  // every wait claimed >= 1
  EXPECT_GT(out->doorbell_arms, 0u);
  for (std::uint32_t c = 0; c < kChannels; ++c) {
    EXPECT_EQ(farm.chans[c].node_pool().free_count(), free0[c])
        << "channel " << c << " leaked nodes";
  }
}

class WaitSetChunkRotationTest
    : public ::testing::TestWithParam<WaitSetBackend> {};

INSTANTIATE_TEST_SUITE_P(Backends, WaitSetChunkRotationTest,
                         ::testing::Values(WaitSetBackend::kFutexWaitv,
                                           WaitSetBackend::kEventfdBridge),
                         [](const auto& param_info) {
                           return std::string(
                               waitset_backend_name(param_info.param));
                         });

// More members than one futex_waitv can watch: the control word occupies a
// waitv slot, so kFutexWaitvMax (128) members already overflow one call and
// the waiter falls back to chunk rotation (bridge backend: the one-word
// rotating FUTEX_WAIT scan). Pins the guarantees that path must keep:
//  * a ring landing in a chunk the waiter is NOT currently parked on still
//    wakes it (the between-slice rescan bounds the latency to one slice);
//  * membership churn on both sides of the chunk boundary — which shifts
//    where the split falls — leaves removed members resting and re-added
//    members immediately waitable;
//  * an all-members burst is claimed exactly once per member across
//    however many aggregate wake rounds it takes, with no pool leaks.
TEST_P(WaitSetChunkRotationTest, FanInAndChurnPastOneWaitvChunk) {
  if (GetParam() == WaitSetBackend::kFutexWaitv &&
      !futex_waitv_available()) {
    GTEST_SKIP() << "kernel lacks futex_waitv";
  }
  constexpr std::uint32_t kMembers = 140;  // 141 blocking words: two chunks
  ChannelFarm farm(kMembers, /*queue_capacity=*/8);
  NativePlatform plat;
  WaitSetOptions opts;
  opts.backend = GetParam();
  WaitSet ws(plat, opts);
  std::vector<std::uint32_t> free0;
  for (std::uint32_t i = 0; i < kMembers; ++i) {
    free0.push_back(farm.chans[i].node_pool().free_count());
    ASSERT_TRUE(ws.add(&farm.chans[i].server_endpoint(), i));
  }
  ASSERT_EQ(ws.size(), kMembers);

  const auto ring = [&](std::uint32_t i) {
    detail::enqueue_and_wake(plat, farm.chans[i].server_endpoint(),
                             Message(Op::kEcho, 0, static_cast<double>(i)));
  };
  const auto drain = [&](std::uint64_t tag) {
    Message m;
    ASSERT_TRUE(farm.chans[tag].server_endpoint().queue->dequeue(&m));
    EXPECT_DOUBLE_EQ(m.value, static_cast<double>(tag));
  };

  // Probe indices straddling the 128-word boundary. The waiter settles
  // into the rotation first (25 ms >> the 2 ms scan slice), so most rings
  // land while it is parked on some OTHER chunk's words.
  const std::uint32_t probes[] = {0, 64, 126, 127, 128, 129, kMembers - 1};
  for (const std::uint32_t p : probes) {
    std::thread producer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      ring(p);
    });
    std::vector<std::uint64_t> ready;
    const Status st = ws.wait(plat.time_ns() + 10'000'000'000, &ready);
    producer.join();
    ASSERT_EQ(st, Status::kOk) << "probe member " << p << " never woke us";
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], p);
    drain(ready[0]);
  }

  // Churn across the boundary: removing a low member shifts the split by
  // one (a former second-chunk word migrates into the first chunk);
  // removing a high member shrinks the tail chunk.
  NativeEndpoint& low = farm.chans[5].server_endpoint();
  NativeEndpoint& high = farm.chans[130].server_endpoint();
  ASSERT_TRUE(ws.remove(&low));
  ASSERT_TRUE(ws.remove(&high));
  EXPECT_FALSE(doorbell_is_armed(low.doorbell));
  EXPECT_TRUE(plat.tas_awake(high));  // resting: producers pay no V
  EXPECT_EQ(ws.size(), kMembers - 2);
  ASSERT_TRUE(ws.add(&low, 5));
  ASSERT_TRUE(ws.add(&high, 130));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    ring(130);
  });
  std::vector<std::uint64_t> ready;
  ASSERT_EQ(ws.wait(plat.time_ns() + 10'000'000'000, &ready), Status::kOk);
  producer.join();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 130u);
  drain(130);

  // Burst fan-in: every member rings, then aggregate waits claim each tag
  // exactly once.
  std::vector<bool> seen(kMembers, false);
  for (std::uint32_t i = 0; i < kMembers; ++i) ring(i);
  std::uint32_t claimed = 0;
  while (claimed < kMembers) {
    ready.clear();
    ASSERT_EQ(ws.wait(plat.time_ns() + 10'000'000'000, &ready), Status::kOk);
    for (const std::uint64_t tag : ready) {
      ASSERT_LT(tag, kMembers);
      ASSERT_FALSE(seen[tag]) << "tag " << tag << " claimed twice";
      seen[tag] = true;
      drain(tag);
      ++claimed;
    }
  }

  for (std::uint32_t i = 0; i < kMembers; ++i) {
    ASSERT_TRUE(ws.remove(&farm.chans[i].server_endpoint()));
    EXPECT_EQ(farm.chans[i].node_pool().free_count(), free0[i])
        << "channel " << i << " leaked nodes";
  }
  EXPECT_EQ(ws.size(), 0u);
}

// Membership changes must take effect against a BLOCKED waiter: an add()
// becomes rearm-able traffic the waiter sees without re-entering wait()
// from scratch, and a remove() restores the member to the resting
// single-consumer state (doorbell disarmed, awake set, no banked token).
TEST(WaitSetMembershipTest, AddAndRemoveWhileWaiterBlocked) {
  ChannelFarm farm(2);
  NativePlatform plat;
  NativeEndpoint& a = farm.chans[0].server_endpoint();
  NativeEndpoint& b = farm.chans[1].server_endpoint();

  WaitSet ws(plat);
  ASSERT_TRUE(ws.add(&a, /*tag=*/100));
  ASSERT_FALSE(ws.add(&a, /*tag=*/101));  // duplicate endpoint

  std::atomic<bool> got_b{false};
  std::thread waiter([&] {
    std::vector<std::uint64_t> ready;
    const Status st = ws.wait(plat.time_ns() + 10'000'000'000, &ready);
    ASSERT_EQ(st, Status::kOk);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], 200u);
    got_b.store(true, std::memory_order_release);
  });

  // Let the waiter arm and block, then grow the set under it and produce
  // into the NEW member only.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(ws.add(&b, /*tag=*/200));
  detail::enqueue_and_wake(plat, b, Message(Op::kEcho, 0, 1.0));
  waiter.join();
  ASSERT_TRUE(got_b.load(std::memory_order_acquire));
  Message m;
  ASSERT_TRUE(b.queue->dequeue(&m));

  // Remove while a waiter is blocked: the waiter must survive (ungated,
  // snapshot rebuilt) and b must leave in the resting state.
  std::thread waiter2([&] {
    std::vector<std::uint64_t> ready;
    const Status st = ws.wait(plat.time_ns() + 10'000'000'000, &ready);
    ASSERT_EQ(st, Status::kOk);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], 100u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(ws.remove(&b));
  EXPECT_FALSE(ws.remove(&b));  // already gone
  EXPECT_FALSE(doorbell_is_armed(b.doorbell));
  // Resting single-consumer state: awake is set, so a producer pays no V.
  EXPECT_TRUE(plat.tas_awake(b));
  detail::enqueue_and_wake(plat, a, Message(Op::kEcho, 0, 2.0));
  waiter2.join();
  ASSERT_TRUE(a.queue->dequeue(&m));
  ASSERT_TRUE(ws.remove(&a));
  EXPECT_EQ(ws.size(), 0u);
}

// kick() ungates a blocked waiter without any member being ready: the
// waiter rechecks (a spurious ungate, counted), re-arms, and blocks again
// until the deadline.
TEST(WaitSetMembershipTest, KickUngatesAndCountsSpurious) {
  ChannelFarm farm(1);
  NativePlatform plat;
  WaitSet ws(plat);
  ASSERT_TRUE(ws.add(&farm.chans[0].server_endpoint(), 7));
  const std::uint64_t spurious0 = plat.counters().spurious_ungates;

  std::thread kicker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ws.kick();
  });
  std::vector<std::uint64_t> ready;
  const Status st = ws.wait(plat.time_ns() + 200'000'000, &ready);
  kicker.join();
  EXPECT_EQ(st, Status::kTimeout);
  EXPECT_GT(plat.counters().spurious_ungates, spurious0);
  ASSERT_TRUE(ws.remove(&farm.chans[0].server_endpoint()));
}

// Bridge backend: poll_fd() joins an external poll loop — it becomes
// readable when a member is rung, and a past-deadline wait() claims the
// traffic. The futex_waitv backend has no fd.
TEST(WaitSetBridgeTest, PollFdIntegratesWithExternalPoll) {
  ChannelFarm farm(1);
  NativePlatform plat;
  NativeEndpoint& ep = farm.chans[0].server_endpoint();
  WaitSetOptions opts;
  opts.backend = WaitSetBackend::kEventfdBridge;
  WaitSet ws(plat, opts);
  ASSERT_EQ(ws.backend(), WaitSetBackend::kEventfdBridge);
  ASSERT_GE(ws.poll_fd(), 0);
  ASSERT_TRUE(ws.add(&ep, 1));

  // Arm + publish without blocking: a wait with a past deadline.
  std::vector<std::uint64_t> ready;
  ASSERT_EQ(ws.wait(plat.time_ns() - 1, &ready), Status::kTimeout);

  detail::enqueue_and_wake(plat, ep, Message(Op::kEcho, 0, 3.0));
  struct pollfd pfd = {ws.poll_fd(), POLLIN, 0};
  ASSERT_GT(poll(&pfd, 1, 5000), 0) << "bridge eventfd never fired";
  ASSERT_NE(pfd.revents & POLLIN, 0);

  ASSERT_EQ(ws.wait(plat.time_ns() - 1, &ready), Status::kOk);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 1u);
  Message m;
  ASSERT_TRUE(ep.queue->dequeue(&m));
  ASSERT_TRUE(ws.remove(&ep));

  WaitSet wv(plat);  // auto backend: fd only exists on the bridge
  if (wv.backend() == WaitSetBackend::kFutexWaitv) {
    EXPECT_EQ(wv.poll_fd(), -1);
  }
}

// A client SIGKILLed mid-enqueue on a waitset-armed endpoint: the corpse
// leaves a half-finished enqueue (tail lock held, node linked) and a leaked
// node. The waitset worker's idle path — crash probe + reclaim sweep — must
// repair the queue, recover every node, and the member then detaches back
// to a clean resting state.
TEST(WaitSetCrashTest, SigkilledArmedClientIsSweptAndSlotReclaimed) {
  ChannelFarm farm(2);
  NativePlatform plat;
  NativeEndpoint& victim_ep = farm.chans[0].server_endpoint();
  const std::uint32_t free0 = farm.chans[0].node_pool().free_count();

  WaitSet ws(plat);
  ASSERT_TRUE(ws.add(&victim_ep, 0));
  ASSERT_TRUE(ws.add(&farm.chans[1].server_endpoint(), 1));

  // Arm the doorbells (past-deadline wait = arm + recheck, no block).
  std::vector<std::uint64_t> ready;
  ASSERT_EQ(ws.wait(plat.time_ns() - 1, &ready), Status::kTimeout);
  ASSERT_TRUE(doorbell_is_armed(victim_ep.doorbell));

  ChildProcess victim = ChildProcess::spawn([&] {
    NativePlatform p;
    // One committed message (with its V against the armed doorbell), then
    // die mid-enqueue: node linked, tail lock still held.
    detail::enqueue_and_wake(p, victim_ep, Message(Op::kEcho, 0, 1.0));
    return victim_ep.queue->crash_mid_enqueue_for_test(
               Message(Op::kEcho, 0, 2.0)) != kNullIndex
               ? 0
               : 1;
  });
  farm.chans[0].register_client_pid(
      0, static_cast<std::uint32_t>(victim.pid()));
  ASSERT_EQ(victim.join(), 0);
  ASSERT_TRUE(farm.chans[0].client_crashed(0));

  // The committed message must be claimable through the aggregate wait
  // despite the corpse: the doorbell was rung before the crash.
  ASSERT_EQ(ws.wait(plat.time_ns() + 5'000'000'000, &ready), Status::kOk);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 0u);
  Message m;
  ASSERT_TRUE(victim_ep.queue->dequeue(&m));
  EXPECT_EQ(m.value, 1.0);
  ASSERT_TRUE(victim_ep.queue->dequeue(&m));
  EXPECT_EQ(m.value, 2.0);  // linking is the commit point: not lost

  // The sweep (the fan-in worker's on_idle job) reaps the corpse and
  // vacates the seat; the abandoned tail lock is repaired by the next
  // enqueuer's steal, and the queue must be fully usable again.
  const ShmChannel::ReclaimStats rs = farm.chans[0].reclaim_client(0);
  EXPECT_TRUE(rs.reaped);
  EXPECT_FALSE(farm.chans[0].client_crashed(0));  // seat vacated
  ASSERT_TRUE(victim_ep.queue->enqueue(Message(Op::kEcho, 0, 3.0)));
  // That enqueue had to steal the corpse's tail lock.
  EXPECT_GE(victim_ep.queue->tail_lock().steal_count(), 1u);
  ASSERT_TRUE(victim_ep.queue->dequeue(&m));
  EXPECT_EQ(m.value, 3.0);

  // Detach the member slot: resting state, every node home again.
  ASSERT_TRUE(ws.remove(&victim_ep));
  EXPECT_FALSE(doorbell_is_armed(victim_ep.doorbell));
  EXPECT_EQ(farm.chans[0].node_pool().free_count(), free0);
  ASSERT_TRUE(ws.remove(&farm.chans[1].server_endpoint()));
}

}  // namespace
}  // namespace ulipc
