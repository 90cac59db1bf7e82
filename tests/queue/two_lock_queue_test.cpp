#include "queue/ms_two_lock_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

class TwoLockQueueTest : public ::testing::Test {
 protected:
  TwoLockQueueTest()
      : region_(ShmRegion::create_anonymous(1024 * 1024)),
        arena_(ShmArena::format(region_)),
        pool_(NodePool::create(arena_, 64)) {}

  TwoLockQueue* make_queue(std::uint32_t capacity = 0) {
    return TwoLockQueue::create(arena_, pool_, capacity);
  }

  ShmRegion region_;
  ShmArena arena_;
  NodePool* pool_;
};

TEST_F(TwoLockQueueTest, StartsEmpty) {
  TwoLockQueue* q = make_queue();
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(q->size(), 0u);
  Message m;
  EXPECT_FALSE(q->dequeue(&m));
}

TEST_F(TwoLockQueueTest, FifoOrder) {
  TwoLockQueue* q = make_queue();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, static_cast<double>(i))));
  }
  EXPECT_EQ(q->size(), 20u);
  for (int i = 0; i < 20; ++i) {
    Message m;
    ASSERT_TRUE(q->dequeue(&m));
    EXPECT_DOUBLE_EQ(m.value, static_cast<double>(i));
  }
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, FifoThenDequeueFailsWhenEmpty) {
  TwoLockQueue* q = make_queue();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, i)));
  }
  Message m;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q->dequeue(&m));
    EXPECT_DOUBLE_EQ(m.value, double(i));
  }
  EXPECT_FALSE(q->dequeue(&m)) << "a drained queue must refuse a dequeue";
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, MessageFieldsSurviveTransit) {
  TwoLockQueue* q = make_queue();
  ASSERT_TRUE(q->enqueue(Message(Op::kCompute, 5, 3.75, 0xABCD)));
  Message m;
  ASSERT_TRUE(q->dequeue(&m));
  EXPECT_EQ(m.opcode, Op::kCompute);
  EXPECT_EQ(m.channel, 5u);
  EXPECT_DOUBLE_EQ(m.value, 3.75);
  EXPECT_EQ(m.ext_offset, 0xABCDu);
}

TEST_F(TwoLockQueueTest, CapacityBoundRejectsWhenFull) {
  TwoLockQueue* q = make_queue(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q->enqueue(Message(Op::kEcho, 0, 0.0)));
  }
  EXPECT_FALSE(q->enqueue(Message(Op::kEcho, 0, 0.0))) << "queue full";
  Message m;
  EXPECT_TRUE(q->dequeue(&m));
  EXPECT_TRUE(q->enqueue(Message(Op::kEcho, 0, 0.0))) << "space reclaimed";
}

TEST_F(TwoLockQueueTest, CapacityBoundAndSizeTrack) {
  TwoLockQueue* q = make_queue(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, i)));
  }
  const std::uint32_t free_full = pool_->free_count();
  EXPECT_FALSE(q->enqueue(Message(Op::kEcho, 0, 99)));
  EXPECT_EQ(q->size(), 4u) << "a refused enqueue must leave the size alone";
  EXPECT_EQ(pool_->free_count(), free_full)
      << "a refused enqueue must not keep a node";
  Message m;
  ASSERT_TRUE(q->dequeue(&m));
  EXPECT_EQ(q->size(), 3u);
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 4)));
  EXPECT_EQ(q->size(), 4u);
}

TEST_F(TwoLockQueueTest, PoolExhaustionReportsFull) {
  // Pool has 64 nodes; each queue consumes one dummy.
  TwoLockQueue* q = make_queue();
  int enqueued = 0;
  while (q->enqueue(Message(Op::kEcho, 0, 0.0))) ++enqueued;
  EXPECT_EQ(enqueued, 63) << "64 nodes - 1 dummy";
  Message m;
  ASSERT_TRUE(q->dequeue(&m));
  EXPECT_TRUE(q->enqueue(Message(Op::kEcho, 0, 0.0)))
      << "released node must be reusable";
}

TEST_F(TwoLockQueueTest, NodesRecycleThroughPool) {
  TwoLockQueue* q = make_queue();
  const std::uint32_t free_before = pool_->free_count();
  for (int round = 0; round < 500; ++round) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, static_cast<double>(round))));
    Message m;
    ASSERT_TRUE(q->dequeue(&m));
    EXPECT_DOUBLE_EQ(m.value, static_cast<double>(round));
  }
  EXPECT_EQ(pool_->free_count(), free_before);
}

// Each round fills one queue until the shared pool runs dry, then drains
// it, so the next round (on the other queue) can only run on the nodes
// this one gave back.
TEST_F(TwoLockQueueTest, NodesRecycleThroughSharedPool) {
  TwoLockQueue* a = make_queue();
  TwoLockQueue* b = make_queue();
  const std::uint32_t free0 = pool_->free_count();
  Message m;
  for (int round = 0; round < 4; ++round) {
    TwoLockQueue* q = round % 2 == 0 ? a : b;
    std::uint32_t n = 0;
    while (q->enqueue(Message(Op::kEcho, 0, double(n)))) ++n;
    EXPECT_EQ(n, free0) << "round " << round << " did not get every node";
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(q->dequeue(&m));
      EXPECT_DOUBLE_EQ(m.value, double(i));
    }
    EXPECT_TRUE(q->empty());
    EXPECT_EQ(pool_->free_count(), free0);
  }
}

TEST_F(TwoLockQueueTest, TwoQueuesShareOnePool) {
  TwoLockQueue* a = make_queue();
  TwoLockQueue* b = make_queue();
  ASSERT_TRUE(a->enqueue(Message(Op::kEcho, 0, 1.0)));
  ASSERT_TRUE(b->enqueue(Message(Op::kEcho, 0, 2.0)));
  Message m;
  ASSERT_TRUE(a->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 1.0);
  ASSERT_TRUE(b->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 2.0);
}

TEST_F(TwoLockQueueTest, InterleavedEnqueueDequeue) {
  TwoLockQueue* q = make_queue();
  int next_in = 0;
  int next_out = 0;
  // Sawtooth fill levels exercise the empty<->nonempty transition.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < (round % 5) + 1; ++i) {
      ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, static_cast<double>(next_in++))));
    }
    Message m;
    while (q->dequeue(&m)) {
      EXPECT_DOUBLE_EQ(m.value, static_cast<double>(next_out++));
    }
    EXPECT_EQ(next_in, next_out);
  }
}

TEST_F(TwoLockQueueTest, EmptyProbeConsistentWithDequeue) {
  TwoLockQueue* q = make_queue();
  EXPECT_TRUE(q->empty());
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 0.0)));
  EXPECT_FALSE(q->empty());
  Message m;
  ASSERT_TRUE(q->dequeue(&m));
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, BatchFifoAcrossBatchBoundaries) {
  TwoLockQueue* q = make_queue();
  Message in[15];
  for (int i = 0; i < 15; ++i) in[i] = Message(Op::kEcho, 0, double(i));
  EXPECT_EQ(q->enqueue_batch(in, 5), 5u);
  EXPECT_EQ(q->enqueue_batch(in + 5, 5), 5u);
  EXPECT_EQ(q->enqueue_batch(in + 10, 5), 5u);
  EXPECT_EQ(q->size(), 15u);
  Message out[15];
  EXPECT_EQ(q->dequeue_batch(out, 7), 7u);
  EXPECT_EQ(q->dequeue_batch(out + 7, 15), 8u);
  for (int i = 0; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(out[i].value, double(i))
        << "order must survive uneven batch boundaries";
  }
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, BatchPartialOnCapacityBound) {
  // Room for 3 of a 10-message batch: it must link 3 and take exactly 3
  // nodes from the shared pool — a refused tail must not hold nodes other
  // queues need.
  TwoLockQueue* q = make_queue(5);
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, -2.0)));
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, -1.0)));
  const std::uint32_t free_before = pool_->free_count();
  Message in[10];
  for (int i = 0; i < 10; ++i) in[i] = Message(Op::kEcho, 0, double(i));
  EXPECT_EQ(q->enqueue_batch(in, 10), 3u) << "capacity caps the batch";
  EXPECT_EQ(pool_->free_count(), free_before - 3);
  EXPECT_EQ(q->enqueue_batch(in + 3, 2), 0u) << "full queue takes nothing";
  EXPECT_EQ(pool_->free_count(), free_before - 3);
  Message out[8];
  EXPECT_EQ(q->dequeue_batch(out, 8), 5u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(out[i + 2].value, double(i));
  }
}

TEST_F(TwoLockQueueTest, BatchPartialOnPoolExhaustion) {
  // Pool has 64 nodes and the queue consumed one dummy: a 100-message batch
  // must land exactly the 63 that have nodes and report the short count.
  TwoLockQueue* q = make_queue();
  const std::uint32_t free_before = pool_->free_count();
  Message in[100];
  for (int i = 0; i < 100; ++i) in[i] = Message(Op::kEcho, 0, double(i));
  EXPECT_EQ(q->enqueue_batch(in, 100), 63u);
  EXPECT_EQ(q->size(), 63u);
  EXPECT_FALSE(q->enqueue(Message(Op::kEcho, 0, 0.0)));
  Message out[100];
  EXPECT_EQ(q->dequeue_batch(out, 100), 63u);
  for (int i = 0; i < 63; ++i) {
    EXPECT_DOUBLE_EQ(out[i].value, double(i));
  }
  EXPECT_EQ(pool_->free_count(), free_before)
      << "every node (and none of the phantom 37) returned to the pool";
}

TEST_F(TwoLockQueueTest, BatchDequeueOnEmptyAndZeroCounts) {
  TwoLockQueue* q = make_queue();
  Message out[4];
  EXPECT_EQ(q->dequeue_batch(out, 4), 0u);
  EXPECT_EQ(q->enqueue_batch(nullptr, 0), 0u);
  EXPECT_EQ(q->dequeue_batch(nullptr, 0), 0u);
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, ScalarAndBatchInterleaveFifo) {
  TwoLockQueue* q = make_queue();
  Message in[3] = {Message(Op::kEcho, 0, 1.0), Message(Op::kEcho, 0, 2.0),
                   Message(Op::kEcho, 0, 3.0)};
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 0.0)));
  ASSERT_EQ(q->enqueue_batch(in, 3), 3u);
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 4.0)));
  Message m;
  ASSERT_TRUE(q->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 0.0);
  Message out[8];
  ASSERT_EQ(q->dequeue_batch(out, 8), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(out[i].value, double(i + 1));
  }
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, SpanStampRidesScalarPath) {
  TwoLockQueue* q = make_queue();
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 1.0), SpanStamp{42, 7}));
  Message m;
  SpanStamp sp;
  ASSERT_TRUE(q->dequeue(&m, &sp));
  EXPECT_EQ(sp.id, 42u);
  EXPECT_EQ(sp.tick, 7);
}

TEST_F(TwoLockQueueTest, BatchRoundTripPreservesOrderAndStamps) {
  TwoLockQueue* q = make_queue();
  Message in[8];
  for (int i = 0; i < 8; ++i) in[i] = Message(Op::kEcho, 0, i);
  ASSERT_EQ(q->enqueue_batch(in, 8, SpanStamp{7, 100}), 8u);
  Message out[8];
  SpanStamp sp;
  ASSERT_EQ(q->dequeue_batch(out, 8, &sp), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(out[i].value, double(i));
  EXPECT_EQ(sp.id, 7u) << "the batch's single stamp must survive transit";
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, DrainDiscardsAndBalances) {
  TwoLockQueue* q = make_queue();
  const std::uint32_t free0 = pool_->free_count();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, i)));
  }
  EXPECT_EQ(q->drain(), 12u);
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(pool_->free_count(), free0);
}

TEST_F(TwoLockQueueTest, MarkReachableCountsAndConserves) {
  TwoLockQueue* q = make_queue();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, i)));
  }
  std::vector<char> mark(pool_->capacity(), 0);
  EXPECT_EQ(q->mark_reachable(mark), 5u);
  std::uint32_t marked = 0;
  for (char c : mark) marked += c != 0;
  EXPECT_EQ(marked, 6u) << "5 elements + the dummy";
  EXPECT_EQ(q->size(), 5u) << "a quiescent recount must agree with the count";
}

TEST_F(TwoLockQueueTest, ForEachPendingSkipsTheDummy) {
  TwoLockQueue* q = make_queue();
  Message m;
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 1.0)));
  ASSERT_TRUE(q->dequeue(&m));  // dummy now holds a stale copy of 1.0
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 2.0)));
  double sum = 0.0;
  std::uint32_t visits = 0;
  q->for_each_pending([&](const Message& pm) {
    sum += pm.value;
    ++visits;
  });
  EXPECT_EQ(visits, 1u);
  EXPECT_DOUBLE_EQ(sum, 2.0);
}

TEST_F(TwoLockQueueTest, ThreadedBatchProducerConsumer) {
  NodePool* pool = NodePool::create(arena_, 256);
  TwoLockQueue* q = TwoLockQueue::create(arena_, pool, 128);
  constexpr int kMessages = 50'000;
  std::thread producer([&] {
    Message burst[8];
    int sent = 0;
    while (sent < kMessages) {
      const int n = std::min(8, kMessages - sent);
      for (int i = 0; i < n; ++i) {
        burst[i] = Message(Op::kEcho, 0, static_cast<double>(sent + i));
      }
      std::uint32_t done = 0;
      while (done < static_cast<std::uint32_t>(n)) {
        done += q->enqueue_batch(burst + done,
                                 static_cast<std::uint32_t>(n) - done);
      }
      sent += n;
    }
  });
  Message out[16];
  int received = 0;
  while (received < kMessages) {
    const std::uint32_t k = q->dequeue_batch(out, 16);
    for (std::uint32_t i = 0; i < k; ++i) {
      ASSERT_DOUBLE_EQ(out[i].value, static_cast<double>(received + i));
    }
    received += static_cast<int>(k);
  }
  producer.join();
  EXPECT_TRUE(q->empty());
}

}  // namespace
}  // namespace ulipc
