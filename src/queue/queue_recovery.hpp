// Recovery sweep: reclaim queue nodes and payload slots orphaned by dead
// processes.
//
// A process can die (SIGKILL, crash) at any instruction while holding
// resources that live in shared memory:
//   * a queue node it allocated but had not yet linked into a queue
//     (enqueue), or had just unlinked but not yet released (dequeue);
//   * a payload slot referenced by a message it never managed to send.
// Locks heal locally (RobustSpinlock steal + per-structure repair), but
// orphaned *nodes* are invisible to any single critical section — finding
// them requires a global view. sweep_leaked_nodes() builds that view:
//
//   1. mark every node on the pool's free list          (pool.mark_free)
//   2. mark every node reachable from each queue        (q->mark_reachable,
//      which also repairs a lagging tail word, index and count)
//   3. a node that is neither free nor reachable is leaked; release it iff
//      its stamped owner is dead — a LIVE owner may be microseconds from
//      linking it in.
// Payload slots get the same treatment, with "reachable" meaning
// "referenced by the ext_offset of a message still pending in a queue";
// delivered payloads are guarded by their holder's owner-pid stamp.
//
// Concurrency: steps run under the structures' own locks, so the sweep is
// safe against live producers/consumers. But two concurrent sweeps could
// double-release the same leaked node — callers must serialize sweeps (the
// duplex server runs them from a single recovery point).
#pragma once

#include <cstdint>
#include <vector>

#include "explore/hooks.hpp"
#include "queue/ms_two_lock_queue.hpp"
#include "queue/msg_pool.hpp"
#include "queue/payload_pool.hpp"
#include "shm/robust_spinlock.hpp"

namespace ulipc {

struct RecoveryStats {
  std::uint32_t nodes_reclaimed = 0;    // leaked queue nodes returned
  std::uint32_t payloads_reclaimed = 0; // leaked payload slots returned
};

/// Sweeps `pool` (and optionally `payloads`) for nodes/slots leaked by dead
/// processes. `queues` must list EVERY queue drawing from `pool` — a queue
/// left out would have its in-flight nodes misread as leaks. `is_alive` is
/// a liveness oracle (pid -> bool); tests inject failures through it.
/// Callers must serialize sweeps against each other.
template <typename LivenessFn>
RecoveryStats sweep_leaked_nodes(NodePool& pool,
                                 const std::vector<TwoLockQueue*>& queues,
                                 PayloadPool* payloads,
                                 LivenessFn&& is_alive) {
  RecoveryStats stats;
  explore::point(explore::Point::kSweepBegin);

  std::vector<char> node_mark(pool.capacity(), 0);
  pool.mark_free(node_mark);
  for (TwoLockQueue* q : queues) q->mark_reachable(node_mark);
  explore::point(explore::Point::kSweepMarked);

  if (payloads != nullptr) {
    std::vector<char> slot_mark(payloads->capacity(), 0);
    payloads->mark_free(slot_mark);
    // A payload is in play iff it is free-listed or referenced by a message
    // still PENDING in some queue (a dead sender's in-flight request will
    // be served; its slot must survive until the reply is consumed, and
    // the reply message re-pins it). Delivered messages — queue dummies and
    // free-listed nodes retain stale copies of those — must NOT pin: the
    // live holder of a delivered payload is protected by the owner stamp
    // (loan/adopt), and a dead holder's slot has to be reclaimable, or
    // every drained queue would leak its last messages' slots forever.
    for (TwoLockQueue* q : queues) {
      q->for_each_pending([&](const Message& m) {
        if (m.ext_offset != PayloadPool::kNoPayload &&
            payloads->owns_token(m.ext_offset)) {
          slot_mark[payloads->index_of_token(m.ext_offset)] = 1;
        }
      });
    }
    stats.payloads_reclaimed =
        payloads->reclaim_unmarked_dead(slot_mark, is_alive);
  }

  stats.nodes_reclaimed = pool.reclaim_unmarked_dead(node_mark, is_alive);
  explore::point(explore::Point::kSweepDone);
  return stats;
}

/// Convenience overload probing real process liveness via kill(pid, 0).
inline RecoveryStats sweep_leaked_nodes(
    NodePool& pool, const std::vector<TwoLockQueue*>& queues,
    PayloadPool* payloads = nullptr) {
  return sweep_leaked_nodes(pool, queues, payloads,
                            [](std::uint32_t pid) {
                              return process_alive(pid);
                            });
}

}  // namespace ulipc
