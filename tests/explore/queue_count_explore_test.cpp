// Pinned schedules for the two-lock queue's length. size() is the tail
// word's enqueue count minus the head word's dequeue count, and a producer
// counts itself only in the store that follows its link. Each schedule
// parks a producer between allocating its node and finishing its enqueue,
// and checks what the rest of the system reads meanwhile:
//   * a recovery sweep that runs while the producer is parked must leave a
//     count that drains to exactly 0: a count that drops below the linked
//     length wraps to 2^32-1 when the queue drains, and the full queue it
//     then reports refuses every later enqueue (the pool-recovery hang);
//   * a consumer reading size() while a scalar or batch producer is parked
//     must never be promised more than its dequeues then take;
//   * a producer that loses the last slots to another producer while it is
//     parked must link only what fits and give the rest of its nodes back.
// Threads are scheduled by explore::Controller under kReplay. As in the
// paper-interleaving tests, each window is found with a switch-point scan:
// 0^L 1^24 runs the first-spawned thread for L decisions, then prefers the
// second, and the first L whose trace shows the window is the schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "explore/controller.hpp"
#include "explore/hooks.hpp"
#include "explore/invariants.hpp"
#include "queue/ms_two_lock_queue.hpp"
#include "queue/queue_recovery.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

using explore::Controller;
using explore::Options;
using explore::Point;
using explore::Policy;
using explore::TraceEntry;

Options replay_options(std::vector<std::uint32_t> schedule) {
  Options o;
  o.policy = Policy::kReplay;
  o.replay = std::move(schedule);
  o.step_timeout = std::chrono::milliseconds(2000);
  return o;
}

/// Runs `scenario` on 0^L 1^24 for L = 1, 2, ... and returns the first run
/// whose trace shows the scenario's window (nullopt if none does).
template <typename Scenario>
auto scan_for_window(Scenario&& scenario)
    -> std::optional<decltype(scenario(std::vector<std::uint32_t>{}))> {
  for (std::size_t zeros = 1; zeros <= 12; ++zeros) {
    std::vector<std::uint32_t> sched(zeros, 0);
    sched.insert(sched.end(), 24, 1);
    auto r = scenario(sched);
    if (r.ran_ok && r.matched) return r;
  }
  return std::nullopt;
}

std::ptrdiff_t first_at_or_after(const std::vector<TraceEntry>& trace,
                                 std::ptrdiff_t from, std::uint32_t tid,
                                 Point p = Point::kNone) {
  for (auto i = static_cast<std::size_t>(std::max<std::ptrdiff_t>(from, 0));
       i < trace.size(); ++i) {
    if (trace[i].tid == tid && (p == Point::kNone || trace[i].point == p)) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

std::ptrdiff_t last_of(const std::vector<TraceEntry>& trace,
                       std::uint32_t tid) {
  std::ptrdiff_t last = -1;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].tid == tid) last = static_cast<std::ptrdiff_t>(i);
  }
  return last;
}

/// One queue on its own pool, nothing else in the region.
struct QueueRig {
  explicit QueueRig(std::uint32_t capacity)
      : region(ShmRegion::create_anonymous(256 * 1024)),
        arena(ShmArena::format(region)),
        pool(NodePool::create(arena, 32)),
        q(TwoLockQueue::create(arena, pool, capacity)),
        free0(pool->free_count()) {}

  void fill(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, -1.0 - i)));
    }
  }

  bool conserved() {
    return explore::check_invariants(*pool, {q}).ok() &&
           pool->free_count() + q->size() == free0;
  }

  ShmRegion region;
  ShmArena arena;
  NodePool* pool;
  TwoLockQueue* q;
  std::uint32_t free0;
};

// ----------------------------------------- sweep under a parked producer

struct SweepRun {
  bool ran_ok = false;
  bool matched = false;
  std::string trace;
  std::string schedule;
  std::uint32_t reclaimed = 0;
  std::uint32_t drained = 0;
  std::uint32_t size_after = 0;
  bool empty_after = false;
  bool enqueue_after = false;
  bool conserved = false;
};

/// The producer parks at kQEnqueueNodeReady (node allocated and filled,
/// not linked) while the sweeper runs a whole recovery sweep; then the
/// producer links, and the queue is drained.
SweepRun run_sweep_under_parked_producer(
    const std::vector<std::uint32_t>& sched) {
  constexpr std::uint32_t kProducer = 0, kSweeper = 1;
  QueueRig rig(8);
  SweepRun r;
  {
    Controller c(replay_options(sched));
    c.spawn("producer", [&] {
      (void)rig.q->enqueue(Message(Op::kEcho, 0, 7.0));
    });
    c.spawn("sweeper", [&] {
      // Every pid alive: the parked producer's node must be spared.
      const RecoveryStats stats = sweep_leaked_nodes(
          *rig.pool, {rig.q}, nullptr, [](std::uint32_t) { return true; });
      r.reclaimed = stats.nodes_reclaimed;
    });
    r.ran_ok = c.run();
    r.trace = c.trace_string();
    r.schedule = c.schedule_string();

    const auto& t = c.trace();
    const auto ready = first_at_or_after(t, 0, kProducer,
                                         Point::kQEnqueueNodeReady);
    const auto swept = first_at_or_after(t, 0, kSweeper, Point::kSweepDone);
    const auto linked = first_at_or_after(t, 0, kProducer,
                                          Point::kQEnqueueLinked);
    r.matched = ready >= 0 && ready < swept && swept < linked;
  }
  Message m;
  while (rig.q->dequeue(&m)) ++r.drained;
  r.size_after = rig.q->size();
  r.empty_after = rig.q->empty();
  r.enqueue_after = rig.q->enqueue(Message(Op::kEcho, 0, 8.0));
  r.conserved = rig.conserved();
  return r;
}

TEST(QueueCountExplore, SweepUnderParkedProducerLeavesAnHonestCount) {
  const std::optional<SweepRun> found =
      scan_for_window(run_sweep_under_parked_producer);
  ASSERT_TRUE(found.has_value()) << "scan never parked the producer across "
                                    "a whole sweep";

  // Pin it: the recorded schedule must reproduce the identical marker
  // trace, twice.
  const std::vector<std::uint32_t> pinned =
      explore::parse_schedule(found->schedule);
  const SweepRun first = run_sweep_under_parked_producer(pinned);
  const SweepRun second = run_sweep_under_parked_producer(pinned);
  ASSERT_TRUE(first.ran_ok && second.ran_ok) << first.trace;
  ASSERT_TRUE(first.matched) << "pinned schedule lost the sweep window\n"
                             << first.trace;
  EXPECT_EQ(first.trace, second.trace)
      << "same schedule must produce the identical marker trace";

  for (const SweepRun* r : {&first, &second}) {
    EXPECT_EQ(r->reclaimed, 0u) << "the live producer's node was swept";
    EXPECT_EQ(r->drained, 1u);
    EXPECT_EQ(r->size_after, 0u)
        << "the sweep lost the parked producer's count";
    EXPECT_TRUE(r->empty_after);
    EXPECT_TRUE(r->enqueue_after) << "a drained queue refused an enqueue";
    EXPECT_TRUE(r->conserved);
  }
}

// ------------------------------------ size() while a producer is parked

struct ParkRun {
  bool ran_ok = false;
  bool matched = false;
  std::string trace;
  std::uint32_t size_seen = 0;  // the consumer's size(), producer parked
  std::uint32_t taken = 0;      // what the consumer's dequeues then took
  std::uint32_t size_final = 0;
  std::uint32_t left_final = 0;
  bool conserved = false;
};

constexpr std::uint32_t kPrefill = 2;
constexpr std::uint32_t kBatch = 3;

/// The producer parks at `park` — kQEnqueueNodeReady, or kQEnqueueLinked
/// (tail lock held, link published, tail word not yet stored) — while the
/// consumer reads size() and then dequeues until the queue is empty.
ParkRun run_parked_producer(bool batch, Point park,
                            const std::vector<std::uint32_t>& sched) {
  constexpr std::uint32_t kProducer = 0, kConsumer = 1;
  QueueRig rig(16);
  rig.fill(kPrefill);
  ParkRun r;
  {
    Controller c(replay_options(sched));
    c.spawn("producer", [&] {
      if (batch) {
        const Message in[kBatch] = {Message(Op::kEcho, 0, 1.0),
                                    Message(Op::kEcho, 0, 2.0),
                                    Message(Op::kEcho, 0, 3.0)};
        (void)rig.q->enqueue_batch(in, kBatch);
      } else {
        (void)rig.q->enqueue(Message(Op::kEcho, 0, 1.0));
      }
    });
    c.spawn("consumer", [&] {
      r.size_seen = rig.q->size();
      Message m;
      while (rig.q->dequeue(&m)) ++r.taken;
    });
    r.ran_ok = c.run();
    r.trace = c.trace_string();

    const auto& t = c.trace();
    const auto parked = first_at_or_after(t, 0, kProducer, park);
    const auto resumed = first_at_or_after(t, parked + 1, kProducer);
    r.matched = parked >= 0 &&
                first_at_or_after(t, 0, kConsumer) == parked + 1 &&
                last_of(t, kConsumer) < resumed;
  }
  r.size_final = rig.q->size();
  r.left_final = rig.q->drain();
  r.conserved = rig.conserved();
  return r;
}

TEST(QueueCountExplore, ParkedProducerNeverOverstatesTheLength) {
  for (const bool batch : {false, true}) {
    for (const Point park : {Point::kQEnqueueNodeReady,
                             Point::kQEnqueueLinked}) {
      SCOPED_TRACE(std::string(batch ? "batch" : "scalar") + " producer at " +
                   explore::point_name(park));
      const std::optional<ParkRun> found = scan_for_window(
          [&](const std::vector<std::uint32_t>& sched) {
            return run_parked_producer(batch, park, sched);
          });
      ASSERT_TRUE(found.has_value()) << "scan never parked the producer there";
      const ParkRun& r = *found;
      EXPECT_LE(r.size_seen, r.taken)
          << "size() promised more than dequeue could take";
      const std::uint32_t k = batch ? kBatch : 1;
      const bool linked = park == Point::kQEnqueueLinked;
      EXPECT_EQ(r.size_seen, kPrefill)
          << "the parked producer must not count before its tail store";
      EXPECT_EQ(r.taken, kPrefill + (linked ? k : 0))
          << "dequeue decides by the link";
      EXPECT_EQ(r.size_final, linked ? 0u : k);
      EXPECT_EQ(r.left_final, r.size_final);
      EXPECT_TRUE(r.conserved);
    }
  }
}

// -------------------------- losing the last slots while parked

struct RaceRun {
  bool ran_ok = false;
  bool matched = false;
  std::string trace;
  std::uint32_t parked_linked = 0;  // what the parked producer appended
  bool rival_linked = false;
  std::uint32_t free_before = 0;  // pool free count before both enqueues
  std::uint32_t free_after = 0;
  std::uint32_t size_after = 0;
  std::vector<double> order;
  bool conserved = false;
};

/// The parked producer stops at kQEnqueueNodeReady with its nodes
/// allocated while the rival's whole scalar enqueue takes a slot.
RaceRun run_race_for_last_slots(bool batch,
                                const std::vector<std::uint32_t>& sched) {
  constexpr std::uint32_t kParked = 0, kRival = 1;
  constexpr std::uint32_t kCapacity = 4;
  QueueRig rig(kCapacity);
  // Scalar: room for 1. Batch: room for 3, and the batch asks for 10.
  rig.fill(batch ? 1 : kCapacity - 1);
  RaceRun r;
  r.free_before = rig.pool->free_count();
  {
    Controller c(replay_options(sched));
    c.spawn("parked", [&] {
      if (batch) {
        Message in[10];
        for (int i = 0; i < 10; ++i) in[i] = Message(Op::kEcho, 0, 10.0 + i);
        r.parked_linked = rig.q->enqueue_batch(in, 10);
      } else {
        r.parked_linked = rig.q->enqueue(Message(Op::kEcho, 0, 10.0)) ? 1 : 0;
      }
    });
    c.spawn("rival", [&] {
      r.rival_linked = rig.q->enqueue(Message(Op::kEcho, 0, 5.0));
    });
    r.ran_ok = c.run();
    r.trace = c.trace_string();

    const auto& t = c.trace();
    const auto ready = first_at_or_after(t, 0, kParked,
                                         Point::kQEnqueueNodeReady);
    const auto rival_done = first_at_or_after(t, 0, kRival,
                                              Point::kQEnqueueDone);
    const auto resumed = first_at_or_after(t, ready + 1, kParked);
    r.matched = ready >= 0 && ready < rival_done &&
                (resumed < 0 || rival_done < resumed);
  }
  r.free_after = rig.pool->free_count();
  r.size_after = rig.q->size();
  Message m;
  while (rig.q->dequeue(&m)) r.order.push_back(m.value);
  r.conserved = rig.conserved();
  return r;
}

TEST(QueueCountExplore, ProducerThatLosesTheLastSlotsReturnsItsNodes) {
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "batch" : "scalar");
    const std::optional<RaceRun> found =
        scan_for_window([&](const std::vector<std::uint32_t>& sched) {
          return run_race_for_last_slots(batch, sched);
        });
    ASSERT_TRUE(found.has_value()) << "scan never produced the race";
    const RaceRun& r = *found;
    EXPECT_TRUE(r.rival_linked);
    EXPECT_EQ(r.parked_linked, batch ? 2u : 0u)
        << "only the room left under the tail lock may be linked";
    EXPECT_EQ(r.size_after, 4u);
    EXPECT_EQ(r.free_before - r.free_after, 1u + r.parked_linked)
        << "nodes that did not fit must go back to the pool";
    const std::vector<double> want =
        batch ? std::vector<double>{-1.0, 5.0, 10.0, 11.0}
              : std::vector<double>{-1.0, -2.0, -3.0, 5.0};
    EXPECT_EQ(r.order, want);
    EXPECT_TRUE(r.conserved);
  }
}

}  // namespace
}  // namespace ulipc
