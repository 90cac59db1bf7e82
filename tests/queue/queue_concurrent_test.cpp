// Concurrency properties of the two-lock queue:
//  * no message lost or duplicated under MPMC stress;
//  * FIFO preserved per producer (the queue is globally FIFO, so each
//    producer's messages must come out in its send order);
//  * works across real process boundaries (fork + anonymous shared region).
#include <gtest/gtest.h>
#include <sched.h>

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

class MpmcStressTest : public ::testing::TestWithParam<MpmcParam> {};

TEST_P(MpmcStressTest, NoLossNoDupFifoPerProducer) {
  const MpmcParam param = GetParam();
  ShmRegion region = ShmRegion::create_anonymous(8 * 1024 * 1024);
  ShmArena arena = ShmArena::format(region);
  NodePool* pool = NodePool::create(
      arena, static_cast<std::uint32_t>(param.producers * 64 + 8));
  TwoLockQueue* q = TwoLockQueue::create(arena, pool);

  const int total = param.producers * param.messages_per_producer;
  std::atomic<int> consumed{0};
  // received[p] collects sequence numbers seen from producer p, in arrival
  // order, per consumer; we validate monotonicity per (producer, consumer)
  // then global completeness.
  std::vector<std::vector<std::vector<int>>> received(
      static_cast<std::size_t>(param.consumers),
      std::vector<std::vector<int>>(static_cast<std::size_t>(param.producers)));

  std::vector<std::thread> threads;
  for (int c = 0; c < param.consumers; ++c) {
    threads.emplace_back([&, c] {
      Message m;
      while (consumed.load(std::memory_order_relaxed) < total) {
        if (q->dequeue(&m)) {
          consumed.fetch_add(1, std::memory_order_relaxed);
          received[static_cast<std::size_t>(c)][m.channel].push_back(
              static_cast<int>(m.value));
        }
      }
    });
  }
  for (int p = 0; p < param.producers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < param.messages_per_producer; ++i) {
        const Message m(Op::kEcho, static_cast<std::uint32_t>(p),
                        static_cast<double>(i));
        while (!q->enqueue(m)) {
          std::this_thread::yield();  // pool momentarily exhausted
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(consumed.load(), total);
  EXPECT_TRUE(q->empty());

  // Single-consumer FIFO check: with one consumer the per-producer streams
  // must be exactly 0..n-1 in order. With multiple consumers, each
  // consumer's view of one producer must be strictly increasing.
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

INSTANTIATE_TEST_SUITE_P(
    Shapes, MpmcStressTest,
    ::testing::Values(MpmcParam{1, 1, 20'000}, MpmcParam{2, 1, 10'000},
                      MpmcParam{4, 1, 5'000}, MpmcParam{1, 2, 20'000},
                      MpmcParam{2, 2, 10'000}, MpmcParam{4, 4, 5'000}),
    [](const ::testing::TestParamInfo<MpmcParam>& pinfo) {
      return std::to_string(pinfo.param.producers) + "p" +
             std::to_string(pinfo.param.consumers) + "c";
    });

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
