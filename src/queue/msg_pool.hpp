// Free pool of queue nodes in shared memory.
//
// "The interface uses fixed sized messages to permit efficient free-pool
// management." Nodes are identified by 32-bit indices into a contiguous
// array (see ShmIndex in shm/offset_ptr.hpp); links are indices, never
// pointers, so the structure is valid at any mapping address.
//
// The free list is a LIFO protected by a RobustSpinlock. Producers
// allocate, consumers release; both may live in different processes — and
// may die at any instruction. Crash-safety measures:
//  * every allocated node is stamped with its allocator's pid, so a
//    recovery sweep can tell "in flight on a live process" from "orphaned
//    by a corpse" (see queue/queue_recovery.hpp);
//  * a stolen free-list lock triggers recount_free_locked(), which repairs
//    free_count_ after a death inside allocate()/release() (the list links
//    themselves stay consistent at every intermediate step — the only
//    damage a corpse can do here is a stale counter or a leaked node, and
//    leaked nodes are reclaimed by the sweep).
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/cacheline.hpp"
#include "queue/message.hpp"
#include "shm/offset_ptr.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_allocator.hpp"

namespace ulipc {

/// One queue node: an intrusive link, the allocator's pid (0 while the
/// node sits on the free list), the message payload, and the causal-trace
/// stamp riding next to it (see SpanStamp in queue/message.hpp — the stamp
/// is per-node metadata precisely so the wire Message stays 24 bytes).
/// `next` is the queue link AND the free-list link (a node is never in
/// both roles at once). Access every field through node_load/node_store.
struct MsgNode {
  ShmIndex next = kNullIndex;
  std::uint32_t owner_pid = 0;
  Message msg;
  SpanStamp span;
};

// The access rule for MsgNode fields: every read and write is a relaxed
// atomic access through node_load/node_store. A node travels between the
// threads of one process through other processes (a worker thread
// releases it, a forked client allocates, fills and links it, another
// worker thread dequeues it), and ThreadSanitizer cannot see a
// happens-before edge that runs through another process, so plain
// accesses would be reported as races. Atomic accesses never race in its
// model. On x86-64 a relaxed access is the same plain move. Ordering is
// carried only where a caller passes one: the queue's release store and
// acquire load of the link publish a filled node.

/// Atomic load of one scalar field.
template <typename T>
  requires std::is_scalar_v<T>
[[nodiscard]] T node_load(
    const T& field, std::memory_order mo = std::memory_order_relaxed) noexcept {
  return std::atomic_ref<T>(const_cast<T&>(field)).load(mo);
}

/// Atomic store of one scalar field.
template <typename T>
  requires std::is_scalar_v<T>
void node_store(T& field, std::type_identity_t<T> value,
                std::memory_order mo = std::memory_order_relaxed) noexcept {
  std::atomic_ref<T>(field).store(value, mo);
}

// The payload and the stamp are copied field by field. message.hpp pins
// both sizes, so neither can grow a field that these copies would miss.
[[nodiscard]] inline Message node_load(const Message& m) noexcept {
  return Message(node_load(m.opcode), node_load(m.channel),
                 node_load(m.value), node_load(m.ext_offset));
}
inline void node_store(Message& m, const Message& v) noexcept {
  node_store(m.opcode, v.opcode);
  node_store(m.channel, v.channel);
  node_store(m.value, v.value);
  node_store(m.ext_offset, v.ext_offset);
}
[[nodiscard]] inline SpanStamp node_load(const SpanStamp& s) noexcept {
  return SpanStamp{node_load(s.id), node_load(s.tick)};
}
inline void node_store(SpanStamp& s, const SpanStamp& v) noexcept {
  node_store(s.id, v.id);
  node_store(s.tick, v.tick);
}

class NodePool {
 public:
  /// Carves a pool of `capacity` nodes out of `arena`; returns the pool,
  /// which lives (header + node array) inside the arena.
  static NodePool* create(ShmArena& arena, std::uint32_t capacity) {
    auto* pool = arena.construct<NodePool>();
    auto* nodes = arena.construct_array<MsgNode>(capacity);
    pool->nodes_.set(nodes);
    pool->capacity_ = capacity;
    // Thread every node onto the free list.
    for (std::uint32_t i = 0; i < capacity; ++i) {
      node_store(nodes[i].next, i + 1 < capacity ? i + 1 : kNullIndex);
      node_store(nodes[i].owner_pid, 0);
    }
    pool->free_head_ = 0;
    pool->free_count_ = capacity;
    return pool;
  }

  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  /// Pops a node; returns kNullIndex when the pool is exhausted. The node
  /// is stamped with the caller's pid until release().
  ShmIndex allocate() noexcept {
    RobustGuard g(lock_.value);
    if (g.stolen()) recount_free_locked();
    const ShmIndex idx = free_head_;
    if (idx == kNullIndex) return kNullIndex;
    free_head_ = node_load(node(idx).next);
    node_store(node(idx).next, kNullIndex);
    node_store(node(idx).owner_pid, robust_self_pid());
    --free_count_;
    return idx;
  }

  /// Returns a node to the pool.
  void release(ShmIndex idx) noexcept {
    RobustGuard g(lock_.value);
    if (g.stolen()) recount_free_locked();
    node_store(node(idx).owner_pid, 0);
    node_store(node(idx).next, free_head_);
    free_head_ = idx;
    ++free_count_;
  }

  [[nodiscard]] MsgNode& node(ShmIndex idx) noexcept {
    return nodes_.get()[idx];
  }
  [[nodiscard]] const MsgNode& node(ShmIndex idx) const noexcept {
    return nodes_.get()[idx];
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Racy snapshot of free node count (diagnostics).
  [[nodiscard]] std::uint32_t free_count() const noexcept {
    return free_count_;
  }

  /// The free-list lock, for recovery tooling and tests.
  [[nodiscard]] RobustSpinlock& lock() noexcept { return lock_.value; }

  // ---- recovery primitives (see queue/queue_recovery.hpp) ----

  /// Marks every index currently on the free list in `mark` (which must
  /// have capacity() entries) and repairs free_count_.
  void mark_free(std::vector<char>& mark) noexcept {
    RobustGuard g(lock_.value);
    std::uint32_t count = 0;
    for (ShmIndex i = free_head_;
         i != kNullIndex && count < capacity_; i = node_load(node(i).next)) {
      mark[i] = 1;
      ++count;
    }
    free_count_ = count;
  }

  /// Releases every node that is NOT marked (neither free nor reachable
  /// from a queue) and whose owner is dead per `is_alive`. Returns the
  /// number reclaimed. Caller must serialize sweeps (one recovery sweep at
  /// a time) and pass a `mark` freshly produced by mark_free + the queues'
  /// mark_reachable.
  template <typename LivenessFn>
  std::uint32_t reclaim_unmarked_dead(const std::vector<char>& mark,
                                      LivenessFn&& is_alive) noexcept {
    std::uint32_t reclaimed = 0;
    for (ShmIndex i = 0; i < capacity_; ++i) {
      if (mark[i]) continue;
      const std::uint32_t owner = node_load(node(i).owner_pid);
      if (owner != 0 && !is_alive(owner)) {
        release(i);
        ++reclaimed;
      }
    }
    return reclaimed;
  }

 private:
  /// Walks the free list under the (already held) lock and resets
  /// free_count_ — the only field a corpse can leave stale.
  void recount_free_locked() noexcept {
    std::uint32_t count = 0;
    for (ShmIndex i = free_head_;
         i != kNullIndex && count < capacity_; i = node_load(node(i).next)) {
      ++count;
    }
    free_count_ = count;
  }

  CacheAligned<RobustSpinlock> lock_;
  ShmIndex free_head_ = kNullIndex;
  std::uint32_t free_count_ = 0;
  std::uint32_t capacity_ = 0;
  OffsetPtr<MsgNode> nodes_;
};

}  // namespace ulipc
