// google-benchmark microbenchmarks for the queue substrate: the Michael &
// Scott two-lock queue, the SPSC ring, and the node pool, uncontended and
// under cross-thread contention.
#include <benchmark/benchmark.h>

#include <thread>

#include "queue/ms_two_lock_queue.hpp"
#include "queue/spsc_ring.hpp"
#include "shm/shm_region.hpp"

namespace {

using namespace ulipc;

struct QueueFixture {
  QueueFixture()
      : region(ShmRegion::create_anonymous(8 * 1024 * 1024)),
        arena(ShmArena::format(region)),
        pool(NodePool::create(arena, 4096)),
        queue(TwoLockQueue::create(arena, pool)) {}

  ShmRegion region;
  ShmArena arena;
  NodePool* pool;
  TwoLockQueue* queue;
};

void BM_TwoLockEnqueueDequeuePair(benchmark::State& state) {
  QueueFixture f;
  const Message msg(Op::kEcho, 0, 1.0);
  Message out;
  for (auto _ : state) {
    f.queue->enqueue(msg);
    f.queue->dequeue(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoLockEnqueueDequeuePair);

void BM_TwoLockEnqueueOnly(benchmark::State& state) {
  QueueFixture f;
  const Message msg(Op::kEcho, 0, 1.0);
  Message out;
  std::int64_t n = 0;
  for (auto _ : state) {
    if (!f.queue->enqueue(msg)) {
      state.PauseTiming();
      while (f.queue->dequeue(&out)) {
      }
      state.ResumeTiming();
    }
    ++n;
  }
  state.SetItemsProcessed(n);
}
BENCHMARK(BM_TwoLockEnqueueOnly);

void BM_TwoLockEmptyProbe(benchmark::State& state) {
  QueueFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.queue->empty());
  }
}
BENCHMARK(BM_TwoLockEmptyProbe);

void BM_TwoLockFailedDequeue(benchmark::State& state) {
  // The cost of the consumer's empty-queue checks (C.1/C.3): a head-lock
  // round trip that finds only the dummy.
  QueueFixture f;
  Message out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.queue->dequeue(&out));
  }
}
BENCHMARK(BM_TwoLockFailedDequeue);

void BM_TwoLockContendedPingPong(benchmark::State& state) {
  // Two roles on two threads: producer enqueues, consumer dequeues.
  // Measures per-message cost under head/tail lock separation.
  QueueFixture f;
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    const Message msg(Op::kEcho, 0, 1.0);
    while (!stop.load(std::memory_order_relaxed)) {
      f.queue->enqueue(msg);
    }
  });
  Message out;
  std::int64_t received = 0;
  for (auto _ : state) {
    while (!f.queue->dequeue(&out)) {
    }
    ++received;
  }
  stop.store(true);
  producer.join();
  while (f.queue->dequeue(&out)) {
  }
  state.SetItemsProcessed(received);
}
BENCHMARK(BM_TwoLockContendedPingPong)->UseRealTime();

void BM_SpscRingPair(benchmark::State& state) {
  ShmRegion region = ShmRegion::create_anonymous(1 << 20);
  ShmArena arena = ShmArena::format(region);
  SpscRing* ring = SpscRing::create(arena, 1024);
  const Message msg(Op::kEcho, 0, 1.0);
  Message out;
  for (auto _ : state) {
    ring->enqueue(msg);
    ring->dequeue(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscRingPair);

void BM_NodePoolAllocRelease(benchmark::State& state) {
  ShmRegion region = ShmRegion::create_anonymous(1 << 20);
  ShmArena arena = ShmArena::format(region);
  NodePool* pool = NodePool::create(arena, 1024);
  for (auto _ : state) {
    const ShmIndex idx = pool->allocate();
    benchmark::DoNotOptimize(idx);
    pool->release(idx);
  }
}
BENCHMARK(BM_NodePoolAllocRelease);

}  // namespace

BENCHMARK_MAIN();
