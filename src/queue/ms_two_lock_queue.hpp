// Michael & Scott two-lock concurrent FIFO queue, shared-memory resident.
//
// The paper: "The evaluation software uses a common implementation of the
// Michael and Scott two-lock queue [9]". The algorithm (PODC'96) keeps a
// dummy node so that enqueuers (tail lock) and dequeuers (head lock) never
// touch the same node except at the empty<->nonempty transition, which is
// safe because an enqueuer writes node.next only after fully initializing
// the node, and the dequeuer reads head->next under the head lock.
//
// Differences from the textbook version, required by our setting:
//  * nodes come from a bounded NodePool in the same shared region and are
//    linked by 32-bit indices (position independent);
//  * the queue is bounded: enqueue() returns false on a full queue (node
//    pool exhausted or per-queue capacity reached) — the paper's protocols
//    handle that with sleep(1) flow control;
//  * each side's word carries that side's running message count next to
//    its index: the head word is {head index, dequeue count} and the tail
//    word {tail index, enqueue count}, each published by the one release
//    store that ends its critical section. size() is enqueue count minus
//    dequeue count, so size() and the empty() probe the BSLS protocol
//    polls read the LINKED length; the capacity bound is checked under the
//    tail lock. A producer caches the last dequeue count it read in its own
//    line and re-reads the head word only when that cached length says
//    full, so neither side writes a line the other side writes;
//  * batched variants (enqueue_batch/dequeue_batch) amortize one queue-lock
//    acquisition AND one pool-lock acquisition over a whole burst: the
//    enqueuer pops an already-linked node chain from the pool in one pass
//    (NodePool::allocate_chain), fills it outside both locks and splices
//    it with two writes; the dequeuer walks the list once under the head
//    lock and, after dropping it, pushes the detached run — still linked —
//    back to the pool in one pass (NodePool::release_chain). The one extra
//    pool pass is the enqueuer's return of the nodes that lost the
//    capacity check under the tail lock;
//  * the empty<->nonempty hand-off is the one point where the two critical
//    sections touch without a common lock: the enqueuer link-publishes
//    old_tail->next under the TAIL lock while a dequeuer reads it under the
//    HEAD lock. That store is therefore a release and every dequeue-side
//    read of a possibly-live next link an acquire, which also orders the
//    node's msg writes before the consumer's copy-out. Every other node
//    access is relaxed (the MsgNode access rule in queue/msg_pool.hpp);
//  * the head/tail locks are RobustSpinlocks: if a process dies inside a
//    critical section, the next contender steals the lock after a liveness
//    probe and runs a repair path. The enqueue critical section orders its
//    two writes (link chain, then store the tail word) so the only possible
//    mid-update state is "tail word lags the last linked node" — in its
//    index and in its count. Crucially, a stale tail index must never be
//    DEREFERENCED during repair: while the tail lock sat with the corpse,
//    dequeuers may have drained past the lagging tail and released the
//    node it names back to the free list (whose next links are free-list
//    links). repair_tail_from_head() therefore recomputes the last node by
//    walking from the head under BOTH locks, and sets the enqueue count to
//    the dequeue count plus the nodes it walked. Lock order wherever both
//    are taken: tail, then head (the steal path already holds tail;
//    dequeue takes head alone and never tail, so the ordering cannot
//    deadlock). The dequeue critical section ends in one store of the head
//    word — batched or not — and needs no structural repair; a corpse can
//    only leak its detached nodes, which the recovery sweep reclaims
//    (queue/queue_recovery.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/cacheline.hpp"
#include "explore/hooks.hpp"
#include "queue/message.hpp"
#include "queue/msg_pool.hpp"
#include "shm/offset_ptr.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_allocator.hpp"

namespace ulipc {

class TwoLockQueue {
 public:
  /// Builds a queue in `arena`, drawing nodes from `pool` (which must live
  /// in the same region). `capacity` bounds the number of queued messages;
  /// 0 means "bounded only by pool exhaustion".
  static TwoLockQueue* create(ShmArena& arena, NodePool* pool,
                              std::uint32_t capacity = 0) {
    auto* q = arena.construct<TwoLockQueue>();
    q->pool_.set(pool);
    q->capacity_ = capacity == 0 ? std::numeric_limits<std::uint32_t>::max()
                                 : capacity;
    const ShmIndex dummy = pool->allocate();
    ULIPC_INVARIANT(dummy != kNullIndex, "pool exhausted creating queue");
    node_store(pool->node(dummy).owner_pid, 0);  // the dummy is the queue's
    q->head_.value.store(pack(dummy, 0), std::memory_order_relaxed);
    q->tail_.store(pack(dummy, 0), std::memory_order_relaxed);
    return q;
  }

  TwoLockQueue() = default;
  TwoLockQueue(const TwoLockQueue&) = delete;
  TwoLockQueue& operator=(const TwoLockQueue&) = delete;

  /// Appends a message. Returns false (queue full) if the capacity bound is
  /// reached or the node pool is exhausted. `stamp` rides in the node next
  /// to the message (default: untraced); it is written before the link
  /// publication, so the dequeuer's acquire read of the next link orders it
  /// exactly like the msg bytes.
  bool enqueue(const Message& msg, SpanStamp stamp = {}) noexcept {
    // A full queue refuses before allocating, so refused producers cannot
    // drain the pool that every queue shares.
    if (room_for(1) == 0) return false;
    NodePool& pool = *pool_;
    const ShmIndex node_idx = pool.allocate();
    if (node_idx == kNullIndex) return false;
    MsgNode& node = pool.node(node_idx);
    node_store(node.msg, msg);
    node_store(node.span, stamp);
    explore::point(explore::Point::kQEnqueueNodeReady);
    bool linked = false;
    {
      RobustGuard g(tail_lock_.value);
      if (g.stolen()) repair_tail_from_head(pool);
      const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
      if (admit_locked(count_of(tail), 1) == 1) {
        node_store(pool.node(index_of(tail)).next, node_idx,
                   std::memory_order_release);
        explore::point(explore::Point::kQEnqueueLinked);
        tail_.store(pack(node_idx, count_of(tail) + 1),
                    std::memory_order_release);
        linked = true;
      }
    }
    if (!linked) {  // filled while another producer took the last slot
      pool.release(node_idx);
      return false;
    }
    explore::point(explore::Point::kQEnqueueDone);
    return true;
  }

  /// Appends up to `n` messages with ONE tail-lock acquisition: pops an
  /// already-linked chain from the pool in one pass — no longer than the
  /// room the queue showed before allocating — fills it outside both
  /// locks, then splices it in with the same two ordered writes as a
  /// scalar enqueue (so the crash invariant is unchanged — the tail word
  /// can only lag the last linked node). Returns how many were appended;
  /// fewer than `n` (possibly 0) when the capacity bound or the node pool
  /// runs out. Nodes that lose the capacity check under the lock go back
  /// to the pool, as one chain, before this returns. The batch carries at
  /// most one stamp, on its first node — span fidelity degrades to
  /// one-sample-per-batch on batched paths.
  std::uint32_t enqueue_batch(const Message* msgs, std::uint32_t n,
                              SpanStamp stamp = {}) noexcept {
    const std::uint32_t want = room_for(n);
    if (want == 0) return 0;

    NodePool& pool = *pool_;
    ShmIndex first = kNullIndex;
    ShmIndex last = kNullIndex;
    // A short chain when the pool runs low: splice what we have.
    const std::uint32_t got = pool.allocate_chain(want, &first, &last);
    if (got == 0) return 0;
    ShmIndex idx = first;
    for (std::uint32_t i = 0; i < got; ++i) {
      MsgNode& node = pool.node(idx);
      node_store(node.msg, msgs[i]);
      node_store(node.span, i == 0 ? stamp : SpanStamp{});
      idx = node_load(node.next);
    }
    explore::point(explore::Point::kQEnqueueNodeReady);
    std::uint32_t linked;
    ShmIndex cut = last;     // last node spliced in
    ShmIndex spare = first;  // start of the nodes that did not fit
    {
      RobustGuard g(tail_lock_.value);
      if (g.stolen()) repair_tail_from_head(pool);
      const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
      linked = admit_locked(count_of(tail), got);
      if (linked != 0) {
        if (linked < got) {  // the chain is still private: cut it
          cut = first;
          for (std::uint32_t i = 1; i < linked; ++i) {
            cut = node_load(pool.node(cut).next);
          }
          spare = node_load(pool.node(cut).next);
          node_store(pool.node(cut).next, kNullIndex);
        }
        node_store(pool.node(index_of(tail)).next, first,
                   std::memory_order_release);
        explore::point(explore::Point::kQEnqueueLinked);
        tail_.store(pack(cut, count_of(tail) + linked),
                    std::memory_order_release);
      }
    }
    if (linked < got) pool.release_chain(spare, last, got - linked);
    if (linked == 0) return 0;
    explore::point(explore::Point::kQEnqueueDone);
    return linked;
  }

  /// Removes the oldest message into *out. Returns false if empty. When
  /// `stamp` is non-null it receives the node's span stamp (id 0 =
  /// untraced).
  bool dequeue(Message* out, SpanStamp* stamp = nullptr) noexcept {
    NodePool& pool = *pool_;
    ShmIndex old_head;
    {
      RobustGuard g(head_lock_.value);
      // A steal here needs no structural repair: the head word always
      // names a valid dummy whose next link is either null or a complete
      // node, and its count matches that dummy.
      explore::point(explore::Point::kQDequeueLocked);
      const std::uint64_t head = head_.value.load(std::memory_order_relaxed);
      old_head = index_of(head);
      const ShmIndex next =
          node_load(pool.node(old_head).next, std::memory_order_acquire);
      if (next == kNullIndex) return false;  // only the dummy remains
      *out = node_load(pool.node(next).msg);  // new dummy keeps its msg
      if (stamp != nullptr) *stamp = node_load(pool.node(next).span);
      // Take ownership of the dummy BEFORE detaching it: once the head
      // advances it is unreachable, and the recovery sweep only reclaims
      // unreachable nodes with a provably-dead owner. The initial dummy's
      // owner is 0 (the queue's), and a later dummy's owner is whichever
      // enqueuer brought it — likely still alive; either way, if we die
      // between the advance and release(), nobody could reclaim it.
      node_store(pool.node(old_head).owner_pid, robust_self_pid());
      head_.value.store(pack(next, count_of(head) + 1),
                        std::memory_order_release);
      explore::point(explore::Point::kQDequeueAdvanced);
    }
    pool.release(old_head);
    explore::point(explore::Point::kQDequeueDone);
    return true;
  }

  /// Removes up to `max` messages with ONE head-lock acquisition. The
  /// critical section stays a single head-word store (after copying the
  /// messages out), so the crash invariant matches scalar dequeue. The
  /// detached nodes — unreachable once the head advances, and still linked
  /// to each other — go back to the pool as one chain after the lock is
  /// dropped. Returns how many were removed (0 when empty). When `stamp`
  /// is non-null it receives the LAST traced stamp in the batch (id 0 if
  /// none was traced).
  std::uint32_t dequeue_batch(Message* out, std::uint32_t max,
                              SpanStamp* stamp = nullptr) noexcept {
    if (max == 0) return 0;
    NodePool& pool = *pool_;
    ShmIndex chain;  // old dummy; start of the detached run
    ShmIndex chain_last = kNullIndex;  // last node of the detached run
    std::uint32_t got = 0;
    {
      RobustGuard g(head_lock_.value);
      explore::point(explore::Point::kQDequeueLocked);
      const std::uint64_t word = head_.value.load(std::memory_order_relaxed);
      ShmIndex head = index_of(word);
      chain = head;
      // Own every node of the soon-to-be-detached run (see scalar dequeue):
      // the chain holds the old dummy plus nodes owned by their enqueuers,
      // who may be alive — a crash between the head advance and the
      // releases below must leave the run reclaimable by the sweep.
      const std::uint32_t me = robust_self_pid();
      node_store(pool.node(head).owner_pid, me);
      if (stamp != nullptr) *stamp = SpanStamp{};
      while (got < max) {
        const ShmIndex next =
            node_load(pool.node(head).next, std::memory_order_acquire);
        if (next == kNullIndex) break;
        out[got++] = node_load(pool.node(next).msg);
        if (stamp != nullptr) {
          const SpanStamp sp = node_load(pool.node(next).span);
          if (sp.traced()) *stamp = sp;
        }
        chain_last = head;
        head = next;
        node_store(pool.node(head).owner_pid, me);
      }
      if (got == 0) return 0;
      // The last dequeued node is the new dummy.
      head_.value.store(pack(head, count_of(word) + got),
                        std::memory_order_release);
      explore::point(explore::Point::kQDequeueAdvanced);
    }
    // Push the old dummy plus the first got-1 message nodes in one pool
    // pass: their next links still chain them, and no other process can
    // reach them.
    pool.release_chain(chain, chain_last, got);
    explore::point(explore::Point::kQDequeueDone);
    return got;
  }

  /// Cheap emptiness probe (no locks) — what BSLS's poll loop reads.
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Racy length snapshot: enqueue count minus dequeue count. The head
  /// word is read first, so a dequeue that overlaps the read can only make
  /// the result too high. A producer that died between its link and its
  /// tail-word store leaves the enqueue count short until the tail repair;
  /// a negative difference reads as 0.
  [[nodiscard]] std::uint32_t size() const noexcept {
    const std::uint32_t deq =
        count_of(head_.value.load(std::memory_order_acquire));
    const std::uint32_t enq = count_of(tail_.load(std::memory_order_acquire));
    const auto len = static_cast<std::int32_t>(enq - deq);
    return len > 0 ? static_cast<std::uint32_t>(len) : 0;
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  // ---- recovery interface (see queue/queue_recovery.hpp) ----

  [[nodiscard]] RobustSpinlock& head_lock() noexcept {
    return head_lock_.value;
  }
  [[nodiscard]] RobustSpinlock& tail_lock() noexcept {
    return tail_lock_.value;
  }

  /// Takes both locks (tail first — the process-wide ordering), repairs
  /// the tail word and re-marks every node reachable from the head (dummy
  /// included) in `mark` (capacity() entries of the node pool). Returns the
  /// number of linked messages. Writes no count of its own: with both
  /// locks held no live producer is between its link and its tail store,
  /// so the repaired count is exact, and a producer still filling its node
  /// outside the lock has not counted itself yet.
  std::uint32_t mark_reachable(std::vector<char>& mark) noexcept {
    NodePool& pool = *pool_;
    RobustGuard gt(tail_lock_.value);
    RobustGuard gh(head_lock_.value);
    repair_tail_under_both_locks(pool);
    std::uint32_t visited = 0;
    for (ShmIndex i = index_of(head_.value.load(std::memory_order_relaxed));
         i != kNullIndex && visited <= pool.capacity();
         i = node_load(pool.node(i).next)) {
      mark[i] = 1;
      ++visited;
    }
    // Elements = everything reachable minus the dummy itself.
    return visited > 0 ? visited - 1 : 0;
  }

  /// Visits every PENDING message under both locks — head->next through
  /// tail, skipping the dummy, whose msg is a stale copy of the last
  /// DELIVERED message. The recovery sweep uses this to pin payload slots
  /// referenced by messages still in flight: a delivered message's slot is
  /// protected by its holder's owner stamp instead, so the dummy (and
  /// free-listed nodes, which also retain stale copies) must not pin —
  /// they would leak dead holders' slots forever once traffic stops.
  template <typename Fn>
  void for_each_pending(Fn&& fn) noexcept {
    NodePool& pool = *pool_;
    RobustGuard gt(tail_lock_.value);
    RobustGuard gh(head_lock_.value);
    repair_tail_under_both_locks(pool);
    std::uint32_t visited = 0;
    ShmIndex i = index_of(head_.value.load(std::memory_order_relaxed));
    if (i != kNullIndex) i = node_load(pool.node(i).next);  // skip the dummy
    for (; i != kNullIndex && visited < pool.capacity();
         i = node_load(pool.node(i).next)) {
      fn(node_load(pool.node(i).msg));
      ++visited;
    }
  }

  /// Drains every message currently in the queue (discarding them),
  /// releasing their nodes back to the pool. Used when reclaiming a dead
  /// peer's queues. Returns the number of messages discarded.
  std::uint32_t drain() noexcept {
    Message scratch;
    std::uint32_t n = 0;
    while (dequeue(&scratch)) ++n;
    return n;
  }

  /// TEST ONLY: performs the first half of an enqueue — allocates and
  /// links the node — then returns with the tail lock STILL HELD and the
  /// tail word not stored. Calling process must exit immediately; this
  /// models a producer dying at the worst possible point of the critical
  /// section. Returns the linked node index. noinline: inlined into a
  /// fork-child lambda, GCC's object-size pass misjudges the arena-resident
  /// queue as size 0 and flags its atomic accesses (-Wstringop-overflow
  /// false positive); cold test-only code anyway.
  [[gnu::noinline]] ShmIndex crash_mid_enqueue_for_test(
      const Message& msg) noexcept {
    NodePool& pool = *pool_;
    const ShmIndex node_idx = pool.allocate();
    if (node_idx == kNullIndex) return kNullIndex;
    MsgNode& node = pool.node(node_idx);
    node_store(node.msg, msg);
    node_store(node.span, SpanStamp{});
    (void)tail_lock_.value.lock();
    node_store(pool.node(index_of(tail_.load(std::memory_order_relaxed))).next,
               node_idx, std::memory_order_release);
    // Deliberately stores no tail word and does not unlock.
    return node_idx;
  }

 private:
  // A side word: node index in the low half, that side's running message
  // count in the high half. Counts wrap; only their difference is read.
  static constexpr std::uint64_t pack(ShmIndex idx,
                                      std::uint32_t count) noexcept {
    return (std::uint64_t{count} << 32) | idx;
  }
  static constexpr ShmIndex index_of(std::uint64_t word) noexcept {
    return static_cast<ShmIndex>(word);
  }
  static constexpr std::uint32_t count_of(std::uint64_t word) noexcept {
    return static_cast<std::uint32_t>(word >> 32);
  }

  [[nodiscard]] std::uint32_t room_after(std::uint32_t len) const noexcept {
    return len >= capacity_ ? 0 : capacity_ - len;
  }

  /// How many of `want` messages fit, as seen before taking the tail lock.
  /// An under-estimate: the cached dequeue count is never newer than the
  /// head word's and is read before the tail word, so the cached length
  /// can only over-state the real one. The head word is read only when the
  /// cached length leaves too little room. noinline: inlined into callers
  /// that reach the queue through an OffsetPtr, GCC 12's object-size pass
  /// misjudges the queue as size 0 and flags these loads at -O3
  /// (-Wstringop-overflow false positive, as for crash_mid_enqueue_for_test).
  [[gnu::noinline]] [[nodiscard]] std::uint32_t room_for(
      std::uint32_t want) const noexcept {
    const std::uint32_t seen = deq_seen_.load(std::memory_order_acquire);
    std::uint32_t len = count_of(tail_.load(std::memory_order_acquire)) - seen;
    if (room_after(len) < want) len = size();
    return std::min(want, room_after(len));
  }

  /// Caller holds the tail lock, and `enq` is the count in the tail word:
  /// how many of `want` messages the capacity bound admits. Trusts the
  /// cached dequeue count while it shows room; otherwise re-reads the head
  /// word and caches its count.
  std::uint32_t admit_locked(std::uint32_t enq, std::uint32_t want) noexcept {
    std::uint32_t room =
        room_after(enq - deq_seen_.load(std::memory_order_relaxed));
    if (room < want) {
      const std::uint32_t deq =
          count_of(head_.value.load(std::memory_order_acquire));
      deq_seen_.store(deq, std::memory_order_release);
      room = room_after(enq - deq);
    }
    return std::min(room, want);
  }

  /// Fixes the one invariant a dead enqueuer can break: the tail word must
  /// name the last linked node and count every linked message. Caller
  /// holds the tail lock; this briefly takes the head lock too
  /// (tail-then-head order) because the stale tail index may name a node
  /// that dequeuers already released — it must be recomputed from the
  /// head, never followed.
  void repair_tail_from_head(NodePool& pool) noexcept {
    RobustGuard gh(head_lock_.value);
    repair_tail_under_both_locks(pool);
  }

  void repair_tail_under_both_locks(NodePool& pool) noexcept {
    const std::uint64_t head = head_.value.load(std::memory_order_relaxed);
    ShmIndex last = index_of(head);
    std::uint32_t hops = 0;
    for (ShmIndex next = node_load(pool.node(last).next);
         next != kNullIndex && hops <= pool.capacity();
         next = node_load(pool.node(last).next)) {
      last = next;
      ++hops;
    }
    deq_seen_.store(count_of(head), std::memory_order_release);
    tail_.store(pack(last, count_of(head) + hops), std::memory_order_release);
  }

  // False-sharing audit: the consumer side (head lock, head word), the
  // producer side (tail lock; tail word plus the cached dequeue count) and
  // the read-only configuration each get their own cache line(s). The
  // words sit apart from their locks because they are also READ without
  // the lock — by size()/empty() pollers, by the other side's capacity
  // check and by the recovery walker — and sharing a line with a spinlock
  // word that contending processes CAS on would drag those reads into the
  // contention.
  CacheAligned<RobustSpinlock> head_lock_;
  // {head index, dequeue count}
  CacheAligned<std::atomic<std::uint64_t>> head_;

  CacheAligned<RobustSpinlock> tail_lock_;
  // {tail index, enqueue count}
  alignas(kCacheLineSize) std::atomic<std::uint64_t> tail_{0};
  // The head word's dequeue count as last read under the tail lock.
  std::atomic<std::uint32_t> deq_seen_{0};

  alignas(kCacheLineSize) std::uint32_t capacity_ = 0;
  OffsetPtr<NodePool> pool_;

  // Layout guarantees: every CacheAligned member spans whole lines and the
  // struct itself is line-aligned, so consecutive members above can never
  // share a line. (offsetof would be more direct, but CacheAligned is not
  // standard-layout; whole-line sizes imply the same separation.)
  static_assert(sizeof(CacheAligned<RobustSpinlock>) % kCacheLineSize == 0,
                "lock padding must fill whole cache lines");
  static_assert(sizeof(CacheAligned<std::atomic<std::uint64_t>>) ==
                    kCacheLineSize,
                "the head word must own a full cache line");
  static_assert(alignof(CacheAligned<RobustSpinlock>) == kCacheLineSize &&
                    alignof(CacheAligned<std::atomic<std::uint64_t>>) ==
                        kCacheLineSize,
                "per-role members must start on a line boundary");
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "side words are shared between processes");
};

static_assert(alignof(TwoLockQueue) == kCacheLineSize,
              "queue must be line-aligned for the member asserts to hold");

}  // namespace ulipc
