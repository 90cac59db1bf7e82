// Concurrency properties of the two-lock queue:
//  * no message lost or duplicated under MPMC stress;
//  * FIFO preserved per producer (the queue is globally FIFO, so each
//    producer's messages must come out in its send order);
//  * the same through the batched ops, with a pool small enough that the
//    node-pool chain pops and pushes race each other, and the pool balances;
//  * the capacity bound holds, and refused enqueues keep no node, under
//    multi-producer contention;
//  * works across real process boundaries (fork + anonymous shared region).
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "queue/ms_two_lock_queue.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

struct MpmcParam {
  int producers;
  int consumers;
  int messages_per_producer;
};

constexpr std::uint32_t kBatchWidth = 8;  // widest burst on batched shapes

// received[c][p] lists the sequence numbers consumer c saw from producer
// p, in arrival order.
using Received = std::vector<std::vector<std::vector<int>>>;

/// Runs param.producers threads that call `send(p, next, call)` — it
/// enqueues producer p's messages next, next+1, ... (channel p, value =
/// sequence number) and returns how many went in, 0 meaning "retry" — and
/// param.consumers threads that call `receive(out)`, which writes up to
/// kBatchWidth messages and returns how many. Returns when every message
/// has arrived and all threads are joined.
template <typename Send, typename Receive>
Received run_mpmc(const MpmcParam& param, Send send, Receive receive) {
  const int total = param.producers * param.messages_per_producer;
  std::atomic<int> consumed{0};
  Received received(
      static_cast<std::size_t>(param.consumers),
      std::vector<std::vector<int>>(static_cast<std::size_t>(param.producers)));

  std::vector<std::thread> threads;
  for (int c = 0; c < param.consumers; ++c) {
    threads.emplace_back([&, c] {
      Message out[kBatchWidth];
      while (consumed.load(std::memory_order_relaxed) < total) {
        const std::uint32_t k = receive(out);
        if (k == 0) continue;
        consumed.fetch_add(static_cast<int>(k), std::memory_order_relaxed);
        for (std::uint32_t i = 0; i < k; ++i) {
          received[static_cast<std::size_t>(c)][out[i].channel].push_back(
              static_cast<int>(out[i].value));
        }
      }
    });
  }
  for (int p = 0; p < param.producers; ++p) {
    threads.emplace_back([&, p] {
      int next = 0;
      for (std::uint32_t call = 0; next < param.messages_per_producer; ++call) {
        const std::uint32_t k = send(p, next, call);
        if (k == 0) std::this_thread::yield();  // pool or queue full
        next += static_cast<int>(k);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(consumed.load(), total);
  return received;
}

/// Single-consumer FIFO check: with one consumer the per-producer streams
/// must be exactly 0..n-1 in order. With multiple consumers, each
/// consumer's view of one producer must be strictly increasing, and the
/// views together must hold every message once.
void expect_no_loss_and_fifo(const MpmcParam& param, const Received& received) {
  std::vector<int> counts(static_cast<std::size_t>(param.producers), 0);
  for (int c = 0; c < param.consumers; ++c) {
    for (int p = 0; p < param.producers; ++p) {
      const auto& seq = received[static_cast<std::size_t>(c)]
                                [static_cast<std::size_t>(p)];
      for (std::size_t i = 1; i < seq.size(); ++i) {
        EXPECT_LT(seq[i - 1], seq[i])
            << "per-producer order violated (p=" << p << ", c=" << c << ")";
      }
      counts[static_cast<std::size_t>(p)] += static_cast<int>(seq.size());
    }
  }
  for (int p = 0; p < param.producers; ++p) {
    EXPECT_EQ(counts[static_cast<std::size_t>(p)], param.messages_per_producer)
        << "lost or duplicated messages from producer " << p;
  }
}

class MpmcStressTest : public ::testing::TestWithParam<MpmcParam> {};

TEST_P(MpmcStressTest, NoLossNoDupFifoPerProducer) {
  const MpmcParam param = GetParam();
  ShmRegion region = ShmRegion::create_anonymous(8 * 1024 * 1024);
  ShmArena arena = ShmArena::format(region);
  NodePool* pool = NodePool::create(
      arena, static_cast<std::uint32_t>(param.producers * 64 + 8));
  TwoLockQueue* q = TwoLockQueue::create(arena, pool);
  const std::uint32_t free0 = pool->free_count();

  const Received received = run_mpmc(
      param,
      [&](int p, int next, std::uint32_t) -> std::uint32_t {
        const Message m(Op::kEcho, static_cast<std::uint32_t>(p),
                        static_cast<double>(next));
        return q->enqueue(m) ? 1 : 0;
      },
      [&](Message* out) -> std::uint32_t { return q->dequeue(out) ? 1 : 0; });

  EXPECT_TRUE(q->empty());
  EXPECT_EQ(pool->free_count(), free0);
  expect_no_loss_and_fifo(param, received);
}

// The same shapes through the chain ops: producers send bursts whose width
// cycles 1..kBatchWidth, consumers take up to kBatchWidth per call. The
// pool is sized so the producers' chains run it dry (partial chain pops)
// and the queue's capacity bound cuts chains under the tail lock (spare
// chains go back), while consumers push their detached runs back — every
// chain path of the pool races every other. The pool must balance.
TEST_P(MpmcStressTest, BatchedNoLossNoDupFifoPerProducer) {
  const MpmcParam param = GetParam();
  ShmRegion region = ShmRegion::create_anonymous(8 * 1024 * 1024);
  ShmArena arena = ShmArena::format(region);
  const auto nodes =
      static_cast<std::uint32_t>(param.producers) * kBatchWidth / 2 + 2;
  NodePool* pool = NodePool::create(arena, nodes);
  TwoLockQueue* q = TwoLockQueue::create(arena, pool, kBatchWidth);
  const std::uint32_t free0 = pool->free_count();

  const Received received = run_mpmc(
      param,
      [&](int p, int next, std::uint32_t call) -> std::uint32_t {
        const auto left =
            static_cast<std::uint32_t>(param.messages_per_producer - next);
        const std::uint32_t n = std::min(1 + call % kBatchWidth, left);
        Message burst[kBatchWidth];
        for (std::uint32_t i = 0; i < n; ++i) {
          burst[i] = Message(Op::kEcho, static_cast<std::uint32_t>(p),
                             static_cast<double>(next) + i);
        }
        return q->enqueue_batch(burst, n);
      },
      [&](Message* out) {
        const std::uint32_t k = q->dequeue_batch(out, kBatchWidth);
        // A shape runs up to eight threads, and the pool holds only a few
        // chains: an idle consumer yields so that producers can refill.
        if (k == 0) std::this_thread::yield();
        return k;
      });

  EXPECT_TRUE(q->empty());
  EXPECT_EQ(pool->free_count(), free0) << "a chain op lost or doubled a node";
  expect_no_loss_and_fifo(param, received);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MpmcStressTest,
    ::testing::Values(MpmcParam{1, 1, 20'000}, MpmcParam{2, 1, 10'000},
                      MpmcParam{4, 1, 5'000}, MpmcParam{1, 2, 20'000},
                      MpmcParam{2, 2, 10'000}, MpmcParam{4, 4, 5'000}),
    [](const ::testing::TestParamInfo<MpmcParam>& pinfo) {
      return std::to_string(pinfo.param.producers) + "p" +
             std::to_string(pinfo.param.consumers) + "c";
    });

// Four producers (two scalar, two batched) race one consumer through a
// queue with room for 8. The capacity bound is checked under the tail lock
// against the dequeue count, so the length the consumer reads — it is the
// only dequeuer, so the count it subtracts cannot move under the read —
// never exceeds 8. Refused enqueues must hand their nodes back: the pool
// balances at the end.
TEST(MpscCapacity, LengthNeverExceedsCapacityAndPoolBalances) {
  constexpr std::uint32_t kCapacity = 8;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5'000;
  ShmRegion region = ShmRegion::create_anonymous(4 * 1024 * 1024);
  ShmArena arena = ShmArena::format(region);
  NodePool* pool = NodePool::create(arena, 64);
  TwoLockQueue* q = TwoLockQueue::create(arena, pool, kCapacity);
  const std::uint32_t free0 = pool->free_count();

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto ch = static_cast<std::uint32_t>(p);
      int sent = 0;
      while (sent < kPerProducer) {
        if (p % 2 == 0) {
          if (q->enqueue(Message(Op::kEcho, ch, double(sent)))) ++sent;
        } else {
          Message burst[3];
          const int n = std::min(3, kPerProducer - sent);
          for (int i = 0; i < n; ++i) {
            burst[i] = Message(Op::kEcho, ch, double(sent + i));
          }
          sent += static_cast<int>(
              q->enqueue_batch(burst, static_cast<std::uint32_t>(n)));
        }
        std::this_thread::yield();
      }
    });
  }

  std::vector<double> next(kProducers, 0.0);
  std::uint32_t max_seen = 0;
  int out_of_order = 0;
  int received = 0;
  Message out[4];
  while (received < kProducers * kPerProducer) {
    max_seen = std::max(max_seen, q->size());
    const std::uint32_t k = q->dequeue_batch(out, 4);
    for (std::uint32_t i = 0; i < k; ++i) {
      out_of_order += out[i].value != next[out[i].channel];
      next[out[i].channel] = out[i].value + 1.0;
    }
    received += static_cast<int>(k);
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(out_of_order, 0) << "per-producer FIFO violated";
  EXPECT_LE(max_seen, kCapacity);
  EXPECT_GT(max_seen, 0u);
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(pool->free_count(), free0) << "a refused enqueue leaked a node";
}

TEST(QueueCrossProcess, ProducerChildConsumerParent) {
  ShmRegion region = ShmRegion::create_anonymous(4 * 1024 * 1024);
  ShmArena arena = ShmArena::format(region);
  NodePool* pool = NodePool::create(arena, 128);
  TwoLockQueue* q = TwoLockQueue::create(arena, pool, 64);
  constexpr int kMessages = 50'000;

  ChildProcess producer = ChildProcess::spawn([&] {
    for (int i = 0; i < kMessages; ++i) {
      while (!q->enqueue(Message(Op::kEcho, 0, static_cast<double>(i)))) {
        sched_yield();
      }
    }
    return 0;
  });

  int expected = 0;
  while (expected < kMessages) {
    Message m;
    if (q->dequeue(&m)) {
      ASSERT_DOUBLE_EQ(m.value, static_cast<double>(expected))
          << "cross-process FIFO violated";
      ++expected;
    }
  }
  EXPECT_EQ(producer.join(), 0);
  EXPECT_TRUE(q->empty());
}

TEST(QueueCrossProcess, BidirectionalPingPong) {
  ShmRegion region = ShmRegion::create_anonymous(4 * 1024 * 1024);
  ShmArena arena = ShmArena::format(region);
  NodePool* pool = NodePool::create(arena, 64);
  TwoLockQueue* request = TwoLockQueue::create(arena, pool, 16);
  TwoLockQueue* reply = TwoLockQueue::create(arena, pool, 16);
  constexpr int kRounds = 20'000;

  ChildProcess server = ChildProcess::spawn([&] {
    Message m;
    for (int i = 0; i < kRounds; ++i) {
      while (!request->dequeue(&m)) sched_yield();
      m.value += 1.0;
      while (!reply->enqueue(m)) sched_yield();
    }
    return 0;
  });

  for (int i = 0; i < kRounds; ++i) {
    while (!request->enqueue(Message(Op::kEcho, 0, static_cast<double>(i)))) {
      sched_yield();
    }
    Message m;
    while (!reply->dequeue(&m)) sched_yield();
    ASSERT_DOUBLE_EQ(m.value, static_cast<double>(i) + 1.0);
  }
  EXPECT_EQ(server.join(), 0);
}

// Request and reply queues draw on one pool, so a node is filled in one
// process and read in the other, over and over. Every message field and the
// span stamp must survive each trip, and the pool must balance at the end.
TEST(QueueCrossProcess, PingPongRecyclesNodesAcrossQueues) {
  ShmRegion region = ShmRegion::create_anonymous(4 * 1024 * 1024);
  ShmArena arena = ShmArena::format(region);
  NodePool* pool = NodePool::create(arena, 64);
  TwoLockQueue* request = TwoLockQueue::create(arena, pool, 16);
  TwoLockQueue* reply = TwoLockQueue::create(arena, pool, 16);
  const std::uint32_t free0 = pool->free_count();
  constexpr int kRounds = 10'000;

  ChildProcess server = ChildProcess::spawn([&] {
    Message m;
    SpanStamp sp;
    for (int i = 0; i < kRounds; ++i) {
      while (!request->dequeue(&m, &sp)) sched_yield();
      m.value += 0.5;
      sp.tick += 1;
      while (!reply->enqueue(m, sp)) sched_yield();
    }
    return 0;
  });

  for (int i = 0; i < kRounds; ++i) {
    const auto n = static_cast<std::uint32_t>(i);
    const Message out(Op::kCompute, n % 7, static_cast<double>(i), n * 3u);
    while (!request->enqueue(out, SpanStamp{n + 1u, i})) sched_yield();
    Message m;
    SpanStamp sp;
    while (!reply->dequeue(&m, &sp)) sched_yield();
    ASSERT_EQ(m.opcode, Op::kCompute);
    ASSERT_EQ(m.channel, n % 7);
    ASSERT_DOUBLE_EQ(m.value, static_cast<double>(i) + 0.5);
    ASSERT_EQ(m.ext_offset, n * 3u);
    ASSERT_EQ(sp.id, n + 1u);
    ASSERT_EQ(sp.tick, i + 1);
  }
  EXPECT_EQ(server.join(), 0);
  EXPECT_EQ(pool->free_count(), free0);
}

}  // namespace
}  // namespace ulipc
