#include "queue/msg_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "shm/robust_spinlock.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

class NodePoolTest : public ::testing::Test {
 protected:
  NodePoolTest()
      : region_(ShmRegion::create_anonymous(256 * 1024)),
        arena_(ShmArena::format(region_)) {}

  ShmRegion region_;
  ShmArena arena_;
};

TEST_F(NodePoolTest, CapacityAndInitialFreeCount) {
  NodePool* pool = NodePool::create(arena_, 16);
  EXPECT_EQ(pool->capacity(), 16u);
  EXPECT_EQ(pool->free_count(), 16u);
}

TEST_F(NodePoolTest, AllocateAllThenExhaust) {
  NodePool* pool = NodePool::create(arena_, 8);
  std::set<ShmIndex> seen;
  for (int i = 0; i < 8; ++i) {
    const ShmIndex idx = pool->allocate();
    ASSERT_NE(idx, kNullIndex);
    EXPECT_TRUE(seen.insert(idx).second) << "duplicate node handed out";
  }
  EXPECT_EQ(pool->allocate(), kNullIndex);
  EXPECT_EQ(pool->free_count(), 0u);
}

TEST_F(NodePoolTest, ReleaseRecycles) {
  NodePool* pool = NodePool::create(arena_, 2);
  const ShmIndex a = pool->allocate();
  const ShmIndex b = pool->allocate();
  EXPECT_EQ(pool->allocate(), kNullIndex);
  pool->release(a);
  const ShmIndex c = pool->allocate();
  EXPECT_EQ(c, a) << "LIFO free list returns the last released node";
  pool->release(b);
  pool->release(c);
  EXPECT_EQ(pool->free_count(), 2u);
}

TEST_F(NodePoolTest, NodePayloadIsWritable) {
  NodePool* pool = NodePool::create(arena_, 4);
  const ShmIndex idx = pool->allocate();
  pool->node(idx).msg = Message(Op::kEcho, 9, 2.25);
  EXPECT_EQ(pool->node(idx).msg.channel, 9u);
  EXPECT_DOUBLE_EQ(pool->node(idx).msg.value, 2.25);
}

TEST_F(NodePoolTest, ManyCycles) {
  NodePool* pool = NodePool::create(arena_, 4);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ShmIndex idx[4];
    for (auto& i : idx) {
      i = pool->allocate();
      ASSERT_NE(i, kNullIndex);
    }
    for (const auto i : idx) pool->release(i);
  }
  EXPECT_EQ(pool->free_count(), 4u);
}

// Walks a popped chain: checks it is linked first to last, ends in a null
// link and carries the caller's stamp on every node; returns its nodes.
std::vector<ShmIndex> walk_chain(const NodePool& pool, ShmIndex first,
                                 ShmIndex last, std::uint32_t n) {
  std::vector<ShmIndex> nodes;
  ShmIndex i = first;
  for (std::uint32_t k = 0; k < n; ++k) {
    EXPECT_NE(i, kNullIndex) << "chain ends after " << k << " of " << n;
    if (i == kNullIndex) break;
    EXPECT_EQ(node_load(pool.node(i).owner_pid), robust_self_pid());
    nodes.push_back(i);
    if (k + 1 == n) {
      EXPECT_EQ(i, last) << "the last link must reach *last";
      EXPECT_EQ(node_load(pool.node(i).next), kNullIndex);
    }
    i = node_load(pool.node(i).next);
  }
  return nodes;
}

TEST_F(NodePoolTest, AllocateChainBelowAndAtTheFreeCount) {
  NodePool* pool = NodePool::create(arena_, 8);
  ShmIndex first = kNullIndex;
  ShmIndex last = kNullIndex;
  ASSERT_EQ(pool->allocate_chain(3, &first, &last), 3u);
  const std::vector<ShmIndex> a = walk_chain(*pool, first, last, 3);
  EXPECT_EQ(pool->free_count(), 5u);
  ASSERT_EQ(pool->allocate_chain(5, &first, &last), 5u);
  const std::vector<ShmIndex> b = walk_chain(*pool, first, last, 5);
  EXPECT_EQ(pool->free_count(), 0u);
  std::set<ShmIndex> seen(a.begin(), a.end());
  seen.insert(b.begin(), b.end());
  EXPECT_EQ(seen.size(), 8u) << "a node was handed out twice";
}

TEST_F(NodePoolTest, AllocateChainAboveTheFreeCountReturnsWhatIsLeft) {
  NodePool* pool = NodePool::create(arena_, 6);
  ShmIndex first = kNullIndex;
  ShmIndex last = kNullIndex;
  ASSERT_EQ(pool->allocate_chain(4, &first, &last), 4u);
  EXPECT_EQ(pool->allocate_chain(5, &first, &last), 2u);
  (void)walk_chain(*pool, first, last, 2);
  EXPECT_EQ(pool->free_count(), 0u);
  EXPECT_EQ(pool->allocate(), kNullIndex);
}

TEST_F(NodePoolTest, AllocateChainFromAnEmptyPoolReturnsZero) {
  NodePool* pool = NodePool::create(arena_, 2);
  ASSERT_NE(pool->allocate(), kNullIndex);
  ASSERT_NE(pool->allocate(), kNullIndex);
  ShmIndex first = kNullIndex;
  ShmIndex last = kNullIndex;
  EXPECT_EQ(pool->allocate_chain(3, &first, &last), 0u);
  EXPECT_EQ(first, kNullIndex) << "an empty pop must not write the chain";
  EXPECT_EQ(pool->free_count(), 0u);
}

TEST_F(NodePoolTest, ReleaseChainRestoresCountClearsStampsAndIsLifo) {
  NodePool* pool = NodePool::create(arena_, 8);
  ShmIndex first = kNullIndex;
  ShmIndex last = kNullIndex;
  ASSERT_EQ(pool->allocate_chain(5, &first, &last), 5u);
  const std::vector<ShmIndex> chain = walk_chain(*pool, first, last, 5);
  pool->release_chain(first, last, 5);
  EXPECT_EQ(pool->free_count(), 8u);
  for (const ShmIndex i : chain) {
    EXPECT_EQ(node_load(pool->node(i).owner_pid), 0u)
        << "node " << i << " kept its stamp on the free list";
  }
  EXPECT_EQ(pool->allocate(), first) << "LIFO: the chain's first node";
}

TEST_F(NodePoolTest, MixedScalarAndChainOpsBalance) {
  constexpr std::uint32_t kCapacity = 16;
  NodePool* pool = NodePool::create(arena_, kCapacity);
  std::vector<ShmIndex> held;
  for (std::uint32_t round = 0; round < 500; ++round) {
    ShmIndex first = kNullIndex;
    ShmIndex last = kNullIndex;
    const std::uint32_t want = 1 + round % 7;
    const std::uint32_t got = pool->allocate_chain(want, &first, &last);
    ASSERT_LE(got, want);
    for (const ShmIndex i : walk_chain(*pool, first, last, got)) {
      held.push_back(i);
    }
    if (const ShmIndex one = pool->allocate(); one != kNullIndex) {
      held.push_back(one);
    }
    ASSERT_EQ(pool->free_count() + held.size(), kCapacity);
    // Give back a mix: one node alone, then a chain of up to four.
    if (!held.empty()) {
      pool->release(held.back());
      held.pop_back();
    }
    const std::size_t back = std::min<std::size_t>(held.size(), round % 5);
    if (back > 0) {
      // Link the tail of `held` into a chain, as a dequeuer's run is.
      const std::size_t from = held.size() - back;
      for (std::size_t k = from; k + 1 < held.size(); ++k) {
        node_store(pool->node(held[k]).next, held[k + 1]);
      }
      pool->release_chain(held[from], held.back(),
                          static_cast<std::uint32_t>(back));
      held.resize(from);
    }
    ASSERT_EQ(pool->free_count() + held.size(), kCapacity);
  }
  for (const ShmIndex i : held) pool->release(i);
  EXPECT_EQ(pool->free_count(), kCapacity);
  ShmIndex first = kNullIndex;
  ShmIndex last = kNullIndex;
  EXPECT_EQ(pool->allocate_chain(kCapacity + 1, &first, &last), kCapacity)
      << "every node must be back on one intact free list";
  (void)walk_chain(*pool, first, last, kCapacity);
}

}  // namespace
}  // namespace ulipc
