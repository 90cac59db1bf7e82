// The aggregate-wait race discipline pinned as replayable schedules, on
// BOTH waitset backends (futex_waitv and the eventfd bridge).
//
// The WaitSet extends C.1–C.5 one level up (runtime/waitset.hpp): arm the
// member doorbells (clearing awake on the unarmed->armed transition),
// recheck every member queue, and only then block on the doorbell
// snapshots. The two races a producer's V() can run against that cycle:
//
//   * recheck-vs-V — the producer's enqueue+ring lands between the arm
//     pass and the recheck pass: the recheck must CLAIM the member
//     (kWsRecheckHit) and absorb the banked token without ever blocking;
//   * arm-vs-V (the lost-wakeup window) — the whole enqueue+ring lands
//     between kWsRecheckEmpty and kWsBlock: the ring bumped the doorbell
//     generation, so the backend's snapshot compare fails and the block
//     returns immediately (kWsUngate) instead of sleeping on a message
//     that will never ring again.
//
// Each shape is found with the same deterministic switch-point scan the
// Figure-4 suite uses, then replayed twice with identical marker traces.
// A bounded DFS (explore_all) then sweeps every schedule prefix of the
// waiter-vs-producer scenario and requires zero invariant violations on
// both backends.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "explore/controller.hpp"
#include "explore/hooks.hpp"
#include "explore/invariants.hpp"
#include "protocols/detail.hpp"
#include "runtime/shm_channel.hpp"
#include "runtime/waitset.hpp"
#include "shm/futex_waitv.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

using explore::Controller;
using explore::Options;
using explore::Point;
using explore::Policy;
using explore::TraceEntry;

constexpr std::uint32_t kWaiter = 0;  // spawn order fixes the tids
constexpr std::uint32_t kProducer = 1;

std::ptrdiff_t find_entry(const std::vector<TraceEntry>& trace,
                          std::uint32_t tid, Point p) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].tid == tid && trace[i].point == p) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

std::size_t count_point(const std::vector<TraceEntry>& trace, Point p) {
  std::size_t n = 0;
  for (const TraceEntry& e : trace) n += e.point == p;
  return n;
}

std::vector<std::uint32_t> switch_schedule(std::size_t zeros) {
  std::vector<std::uint32_t> s(zeros, 0);
  s.insert(s.end(), 24, 1);
  return s;
}

Options replay_options(std::vector<std::uint32_t> schedule) {
  Options o;
  o.policy = Policy::kReplay;
  o.replay = std::move(schedule);
  o.step_timeout = std::chrono::milliseconds(2000);
  return o;
}

/// One waiter-vs-producer round through the aggregate wait: the waiter
/// parks a two-member WaitSet, the producer enqueues one message on member
/// A through the full producer protocol (enqueue, tas, V + doorbell ring).
struct WaitSetRun {
  bool ran_ok = false;
  bool recheck_hit_shape = false;  // ring between arm and recheck, no block
  bool blocked_shape = false;      // ring inside the recheck->block window
  std::string trace;
  std::string schedule;
  Status wait_status = Status::kTimeout;
  std::vector<std::uint64_t> ready;
  double value = 0.0;
  std::uint64_t doorbell_arms = 0;
  std::uint64_t waiter_blocks = 0;
  std::uint64_t waiter_absorbs = 0;
  std::uint64_t spurious = 0;
  std::uint32_t sem_residue = 0;
  bool awake_set = false;
  bool invariants_ok = false;
  std::string invariants;
};

WaitSetRun run_waitset_race(WaitSetBackend backend,
                            const std::vector<std::uint32_t>& sched) {
  ShmChannel::Config cfg;
  cfg.max_clients = 2;
  cfg.queue_capacity = 16;
  cfg.payload_max_bytes = 0;
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);
  NativeEndpoint& a = channel.server_endpoint();
  NativeEndpoint& b = channel.client_endpoint(0);  // quiet second member

  NativePlatform wait_plat, prod_plat;
  WaitSetRun r;
  {
    WaitSetOptions wopts;
    wopts.backend = backend;
    WaitSet ws(wait_plat, wopts);
    Message m{};
    {
      Controller c(replay_options(sched));
      c.spawn("waiter", [&] {
        if (!ws.add(&a, 1) || !ws.add(&b, 2)) return;
        r.wait_status =
            ws.wait(wait_plat.time_ns() + 5'000'000'000, &r.ready);
        if (r.wait_status == Status::kOk) (void)a.queue->dequeue(&m);
      });
      c.spawn("producer", [&] {
        detail::enqueue_and_wake(prod_plat, a, Message(Op::kEcho, 0, 42.0));
      });
      r.ran_ok = c.run();
      r.trace = c.trace_string();
      r.schedule = c.schedule_string();

      const auto& t = c.trace();
      const std::ptrdiff_t arm = find_entry(t, kWaiter, Point::kWsArm);
      const std::ptrdiff_t rung = find_entry(t, kProducer, Point::kWsRung);
      const std::ptrdiff_t hit =
          find_entry(t, kWaiter, Point::kWsRecheckHit);
      const std::ptrdiff_t empty =
          find_entry(t, kWaiter, Point::kWsRecheckEmpty);
      const std::ptrdiff_t block = find_entry(t, kWaiter, Point::kWsBlock);
      const std::ptrdiff_t ungate =
          find_entry(t, kWaiter, Point::kWsUngate);
      r.recheck_hit_shape = arm >= 0 && rung >= 0 && hit >= 0 &&
                            arm < rung && rung < hit &&
                            count_point(t, Point::kWsBlock) == 0;
      r.blocked_shape = empty >= 0 && rung >= 0 && block >= 0 &&
                        ungate >= 0 && hit >= 0 && empty < rung &&
                        rung < block && block < ungate && ungate < hit;
    }
    r.value = m.value;
    r.doorbell_arms = wait_plat.counters().doorbell_arms;
    r.waiter_blocks = wait_plat.counters().blocks;
    r.waiter_absorbs = wait_plat.counters().sem_absorbs;
    r.spurious = wait_plat.counters().spurious_ungates;
    // WaitSet destructor detaches both members here: any banked token is
    // absorbed and both endpoints return to the resting state.
  }
  r.sem_residue = a.fsem.value();
  r.awake_set = a.awake.is_set();
  const explore::InvariantReport rep = explore::check_invariants(
      channel.node_pool(), channel.all_queues(), nullptr, {&a, &b});
  r.invariants_ok = rep.ok();
  r.invariants = rep.to_string();
  return r;
}

class WaitSetExploreTest : public ::testing::TestWithParam<WaitSetBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == WaitSetBackend::kFutexWaitv &&
        !futex_waitv_available()) {
      GTEST_SKIP() << "kernel lacks futex_waitv";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, WaitSetExploreTest,
                         ::testing::Values(WaitSetBackend::kFutexWaitv,
                                           WaitSetBackend::kEventfdBridge),
                         [](const auto& param_info) {
                           return std::string(
                               waitset_backend_name(param_info.param));
                         });

/// Common to both pinned shapes: one arm cycle, exactly one banked token,
/// claimed (not lost), and the members restored to resting state.
void expect_claimed_outcome(const WaitSetRun& r) {
  EXPECT_EQ(r.wait_status, Status::kOk);
  ASSERT_EQ(r.ready.size(), 1u);
  EXPECT_EQ(r.ready[0], 1u) << "member A must be the claimed tag";
  EXPECT_DOUBLE_EQ(r.value, 42.0);
  EXPECT_EQ(r.doorbell_arms, 2u) << "one arm per member, one cycle";
  EXPECT_EQ(r.waiter_absorbs, 1u)
      << "the producer's V is banked against the cleared flag and must be "
         "absorbed by the claim";
  EXPECT_EQ(r.sem_residue, 0u) << "no token may outlive the claim";
  EXPECT_TRUE(r.awake_set) << "claim must restore the resting awake flag";
  EXPECT_TRUE(r.invariants_ok) << r.invariants;
}

// recheck-vs-V: the producer's enqueue+ring lands between the arm pass and
// the recheck pass — the recheck claims the member and the waiter never
// blocks at all.
TEST_P(WaitSetExploreTest, RecheckVsRingPinnedAndReplayable) {
  std::optional<WaitSetRun> found;
  for (std::size_t zeros = 1; zeros <= 24 && !found; ++zeros) {
    WaitSetRun r = run_waitset_race(GetParam(), switch_schedule(zeros));
    if (r.ran_ok && r.recheck_hit_shape) found = std::move(r);
  }
  ASSERT_TRUE(found.has_value())
      << "switch-point scan never produced the recheck-vs-ring shape";

  const std::vector<std::uint32_t> pinned =
      explore::parse_schedule(found->schedule);
  const WaitSetRun first = run_waitset_race(GetParam(), pinned);
  const WaitSetRun second = run_waitset_race(GetParam(), pinned);
  EXPECT_TRUE(first.ran_ok && second.ran_ok);
  EXPECT_TRUE(first.recheck_hit_shape)
      << "pinned schedule lost the shape\n"
      << first.trace;
  EXPECT_EQ(first.trace, second.trace)
      << "same schedule must produce the identical marker trace";

  expect_claimed_outcome(first);
  EXPECT_EQ(first.waiter_blocks, 0u)
      << "the recheck claim must preempt the block entirely";
}

// arm-vs-V, the lost-wakeup window: the producer's whole enqueue+ring
// lands between kWsRecheckEmpty and kWsBlock. The ring bumped the doorbell
// generation, so the backend's snapshot compare fails, the block returns
// immediately, and the next recheck claims the message — the aggregate
// analogue of the C.3 recheck closing the clear-awake -> P() window.
TEST_P(WaitSetExploreTest, ArmVsRingLostWakeupWindowPinned) {
  std::optional<WaitSetRun> found;
  for (std::size_t zeros = 1; zeros <= 24 && !found; ++zeros) {
    WaitSetRun r = run_waitset_race(GetParam(), switch_schedule(zeros));
    if (r.ran_ok && r.blocked_shape) found = std::move(r);
  }
  ASSERT_TRUE(found.has_value())
      << "switch-point scan never produced the arm-vs-ring shape";

  const std::vector<std::uint32_t> pinned =
      explore::parse_schedule(found->schedule);
  const WaitSetRun first = run_waitset_race(GetParam(), pinned);
  const WaitSetRun second = run_waitset_race(GetParam(), pinned);
  EXPECT_TRUE(first.ran_ok && second.ran_ok);
  EXPECT_TRUE(first.blocked_shape) << "pinned schedule lost the shape\n"
                                   << first.trace;
  EXPECT_EQ(first.trace, second.trace)
      << "same schedule must produce the identical marker trace";

  expect_claimed_outcome(first);
  EXPECT_EQ(first.waiter_blocks, 1u)
      << "the waiter must have entered (and immediately left) the block";
}

// Bounded DFS over every schedule prefix of the waiter-vs-producer
// scenario: whatever the interleaving, the message is claimed through the
// aggregate wait, no token leaks, and the channel invariants hold. The
// budget is ULIPC_EXPLORE_BUDGET (CI explore job: 2000; nightly: 20000+).
TEST_P(WaitSetExploreTest, BoundedDfsFindsNoViolations) {
  const std::uint64_t budget = explore::default_budget(192);
  Options base;
  base.step_timeout = std::chrono::milliseconds(2000);

  const std::string name =
      std::string("waitset_dfs_") + waitset_backend_name(GetParam());
  std::uint64_t bad_outcomes = 0;
  std::string last_bad;  // why the most recent bad schedule was rejected
  const explore::DfsStats stats = explore::explore_all(
      name, base, budget, [&](Controller& c) {
        ShmChannel::Config cfg;
        cfg.max_clients = 2;
        cfg.queue_capacity = 16;
        cfg.payload_max_bytes = 0;
        ShmRegion region =
            ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
        ShmChannel channel = ShmChannel::create(region, cfg);
        NativeEndpoint& a = channel.server_endpoint();
        NativeEndpoint& b = channel.client_endpoint(0);

        NativePlatform wait_plat, prod_plat;
        Status st = Status::kTimeout;
        Message m{};
        {
          WaitSetOptions wopts;
          wopts.backend = GetParam();
          WaitSet ws(wait_plat, wopts);
          c.spawn("waiter", [&] {
            if (!ws.add(&a, 1) || !ws.add(&b, 2)) return;
            std::vector<std::uint64_t> ready;
            st = ws.wait(wait_plat.time_ns() + 5'000'000'000, &ready);
            // The recheck reads the queue's counts, and a producer counts
            // its message only after linking it, so a ready verdict names
            // a linked message. The scalar consumer protocol takes it,
            // exactly as the fan-in server's drain loop does.
            if (st == Status::kOk) {
              detail::dequeue_or_sleep(wait_plat, a, &m,
                                       /*pre_busy_wait=*/false);
            }
          });
          c.spawn("producer", [&] {
            detail::enqueue_and_wake(prod_plat, a,
                                     Message(Op::kEcho, 0, 42.0));
          });
          if (!c.run()) {
            ++bad_outcomes;
            last_bad = c.timed_out() ? "controller wedge (step timeout)"
                                     : "controller run failed";
            return false;
          }
        }
        const explore::InvariantReport rep = explore::check_invariants(
            channel.node_pool(), channel.all_queues(), nullptr, {&a, &b});
        const bool ok = st == Status::kOk && m.value == 42.0 &&
                        a.fsem.value() == 0 && a.awake.is_set() && rep.ok();
        if (!ok) {
          ++bad_outcomes;
          last_bad = "st=" + std::to_string(static_cast<int>(st)) +
                     " value=" + std::to_string(m.value) +
                     " fsem=" + std::to_string(a.fsem.value()) +
                     " awake=" + std::to_string(a.awake.is_set()) +
                     " invariants=" + rep.to_string();
        }
        return ok;
      });

  EXPECT_FALSE(stats.failed) << "failing schedule: "
                             << stats.failing_schedule << "\nreason: "
                             << last_bad << "\ntrace:\n"
                             << stats.failing_trace;
  EXPECT_EQ(bad_outcomes, 0u);
  EXPECT_GT(stats.schedules, 1u);
  // The prefix tree for two threads over this scenario is small enough
  // that modest budgets exhaust it; record which regime this run was in.
  if (!stats.exhausted) {
    EXPECT_TRUE(stats.budget_hit);
  }
}

}  // namespace
}  // namespace ulipc
