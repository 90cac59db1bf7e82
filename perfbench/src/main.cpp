// perfbench: pinned, closed-loop echo workloads over ulipc's public API.
//
//   perfbench --workload echo-spin|echo-think|pool-window --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Load comes from generator threads of this process; the servers are
// forked processes running the library's own server loops
// (run_echo_server, run_pool_worker). Every process and thread is pinned
// from one CPU map, and no workload runs more threads than the host has
// CPUs. Every run uses the configuration the README shows:
// Bsls<NativePlatform>(20) with NativePlatform::Config{}, 24-byte kEcho
// messages and the default queue engine.
//
// A run is a series of segments. Each segment builds a fresh channel,
// forks its servers, connects, warms up, measures for its share of
// --seconds, then tears down and checks the outputs. End-to-end metrics
// (--trace 0) pool the segments' timed intervals; set-up time is the
// median over the segments. The traced run (--trace 1)
// alternates untraced and traced segments: the traced ones give the
// per-layer metrics, the pair gives the tracing overhead.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only if every check passed.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis.hpp"
#include "common/affinity.hpp"
#include "common/clock.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "protocols/bsls.hpp"
#include "protocols/channel.hpp"
#include "queue/queue_engine.hpp"
#include "runtime/native_platform.hpp"
#include "runtime/server_pool.hpp"
#include "runtime/shm_channel.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using ulipc::Bsls;
using ulipc::ChildProcess;
using ulipc::Message;
using ulipc::NativeEndpoint;
using ulipc::NativePlatform;
using ulipc::Op;
using ulipc::ProtocolCounters;
using ulipc::ShmChannel;
using ulipc::ShmRegion;
using ulipc::TscClock;

constexpr std::uint32_t kMaxSpin = 20;     // Bsls<NativePlatform>(20), fixed
constexpr std::uint32_t kWindow = 16;      // pool-window requests in flight
constexpr double kThinkMeanNs = 50'000.0;  // echo-think mean think time
constexpr std::size_t kSpanCapacity = 1u << 18;  // kept spans per recorder

enum class Shape : std::uint8_t { kEcho, kPool };

struct Workload {
  const char* name;
  Shape shape;
  bool think;                 // client sleeps a seeded think time per reply
  int cpus;                   // threads in total, one pinned per CPU
  std::uint64_t warmup;       // requests (windows) per generator before timing
  std::uint64_t sample_every; // traced runs keep 1 request (window) in this many
};

constexpr Workload kWorkloads[] = {
    {"echo-spin", Shape::kEcho, false, 2, 2'000, 256},
    {"echo-think", Shape::kEcho, true, 2, 200, 32},
    {"pool-window", Shape::kPool, false, 4, 200, 128},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

// ---- host and placement ----

/// The fixed CPU map: slot i of every workload is the i-th CPU this
/// process may run on. Servers take the low slots, generators the next.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

std::string kernel_release() {
  utsname u{};
  return uname(&u) == 0 ? std::string(u.release) : std::string("?");
}

/// A forked server dies with the benchmark, whatever kills it.
void die_with_parent(pid_t parent) {
  (void)prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(3);
}

/// CPU time of a whole process (0 = this one), in seconds; -1 on failure.
double process_cpu_s(pid_t pid) {
  clockid_t cid = CLOCK_PROCESS_CPUTIME_ID;
  if (pid != 0 && clock_getcpuclockid(pid, &cid) != 0) return -1.0;
  timespec ts{};
  if (clock_gettime(cid, &ts) != 0) return -1.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_csw() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
}

// ---- the request stream ----

/// Requests come only from the seed: distinct integer echo values in
/// [1, 2^48] (exact in a double, and a window of them sums exactly in any
/// order) and exponential think times. One stream per segment and
/// generator.
class Stream {
 public:
  Stream(std::uint64_t seed, std::uint32_t segment, std::uint32_t generator)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + segment * 1'000'003ULL +
             generator * 7919ULL + 1) {}

  double value() { return static_cast<double>((rng_() >> 16) + 1); }

  std::int64_t think_ns() {
    const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
    return std::llround(-kThinkMeanNs * std::log1p(-u));
  }

 private:
  ulipc::Xoshiro256 rng_;
};

bool echoed(const Message& ans, const Message& req) {
  return ans.opcode == req.opcode && ans.channel == req.channel &&
         ans.value == req.value;
}

// ---- what the forked servers report back ----

struct ChildReport {
  std::uint64_t echo_messages = 0;
  double csw = 0.0;  // voluntary + involuntary, whole process life
  std::uint64_t kept = 0;
  CallCounts counts;
};

/// Anonymous shared mapping the servers write before they exit: one
/// report per server process, then the traced echo server's kept spans.
struct SharedBlock {
  ChildReport child[2];
};

std::size_t shared_bytes(std::size_t span_capacity) {
  return sizeof(SharedBlock) + span_capacity * sizeof(SpanRec);
}
SpanRec* shared_spans(const ShmRegion& r) {
  return reinterpret_cast<SpanRec*>(static_cast<char*>(r.base()) +
                                    sizeof(SharedBlock));
}

void report_rusage(ChildReport& r) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.csw = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
}

// ---- one segment's results ----

struct Segment {
  bool traced = false;
  double setup_s = 0.0;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t attempted = 0;  // messages sent in the timed interval
  std::uint64_t verified = 0;   // ... whose reply was checked correct
  std::vector<std::uint32_t> lat_ticks;  // per request (window on pool-window)
  std::vector<std::string> failures;
  // Traced segments only.
  std::vector<std::vector<SpanRec>> cli_spans;  // one array per generator
  std::vector<SpanRec> srv_spans;               // traced echo server
  CallCounts cli_counts;
  CallCounts srv_counts;
  double cli_csw = 0.0;  // generator threads, timed interval
  double srv_csw = 0.0;  // server processes, whole life
  ProtocolCounters cli_reg;
  ProtocolCounters srv_reg;
};

void fail(Segment& s, std::string what) { s.failures.push_back(std::move(what)); }

std::uint32_t clamp_ticks(std::uint64_t ticks) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(ticks, UINT32_MAX));
}

/// Reads one registry slot after its writer exited. A failed or unbound
/// read is a failed check, never zeros.
void read_slot(ShmChannel& ch, std::uint32_t slot, ProtocolCounters* sum,
               Segment& seg, const char* who) {
  ulipc::obs::SlotSnapshot snap;
  if (!ch.has_obs() || !ch.obs().slot(slot).read_snapshot(&snap) ||
      !snap.bound()) {
    fail(seg, std::string("registry slot of ") + who + " unreadable");
    return;
  }
  *sum += snap.counters;
}

/// The generator's platform and protocol: plain, or traced with its own
/// recorder. Not movable: the traced platform points at the recorder.
template <bool kTraced>
struct Generator;

template <>
struct Generator<false> {
  explicit Generator(std::uint64_t /*sample_every*/) {}
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;
  NativePlatform p{NativePlatform::Config{}};
  Bsls<NativePlatform> proto{kMaxSpin};
};

template <>
struct Generator<true> {
  explicit Generator(std::uint64_t sample_every)
      : kept(kSpanCapacity),
        rec(kept.data(), kept.size(), sample_every),
        p(NativePlatform::Config{}, rec) {}
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;
  std::vector<SpanRec> kept;
  Recorder rec;
  TracedPlatform p;
  TracedBsls proto{kMaxSpin};
};

/// A traced generator's request span, named after the request's (first)
/// echo value; nothing on an untraced one.
template <bool kTraced>
struct RequestSpan {
  RequestSpan(Generator<false>& /*g*/, double /*tag*/) {}
};

template <>
struct RequestSpan<true> {
  RequestSpan(Generator<true>& g, double tag)
      : scope((g.rec.tag(tag), g.rec), Kind::kRequest) {}
  Scope scope;
};

/// One synchronous request, from send to verified reply.
template <bool kTraced>
bool echo_once(Generator<kTraced>& g, NativeEndpoint& srv,
               NativeEndpoint& mine, const Message& req) {
  const RequestSpan<kTraced> span(g, req.value);
  Message ans;
  g.proto.send(g.p, srv, mine, req, &ans);
  return echoed(ans, req);
}

/// One window of kWindow requests with send_batch. Replies may come back
/// permuted, so the check is order-insensitive: every answer must be an
/// echo on this channel, and the values must sum to what was sent.
template <bool kTraced>
bool window_once(Generator<kTraced>& g, NativeEndpoint& srv,
                 NativeEndpoint& mine, const Message* reqs, double sent_sum) {
  const RequestSpan<kTraced> span(g, reqs[0].value);
  Message ans[kWindow];
  g.proto.send_batch(g.p, srv, mine, reqs, kWindow, ans);
  double sum = 0.0;
  for (const Message& a : ans) {
    if (a.opcode != Op::kEcho || a.channel != reqs[0].channel) return false;
    sum += a.value;
  }
  return sum == sent_sum;
}

// ---- echo-spin / echo-think ----

template <bool kTraced>
int echo_server(ShmChannel& channel, const ShmRegion& shared, int cpu,
                std::uint64_t sample_every, pid_t parent) {
  die_with_parent(parent);
  ulipc::pin_to_cpu(cpu);
  auto& report = static_cast<SharedBlock*>(shared.base())->child[0];
  channel.register_server();
  const auto reply_ep = [&](std::uint32_t id) -> NativeEndpoint& {
    return channel.client_endpoint(id);
  };
  ulipc::ServerResult r;
  if constexpr (kTraced) {
    // Fault the span pages in now: a page fault inside a kept request
    // would land on that request's critical path.
    std::memset(static_cast<void*>(shared_spans(shared)), 0,
                kSpanCapacity * sizeof(SpanRec));
    Recorder rec(shared_spans(shared), kSpanCapacity, sample_every);
    TracedPlatform p(NativePlatform::Config{}, rec);
    channel.bind_server_obs(p);
    TracedBsls proto(kMaxSpin);
    r = ulipc::run_echo_server(p, proto, channel.server_endpoint(), reply_ep, 1);
    report.kept = rec.kept();
    report.counts = rec.counts;
  } else {
    (void)sample_every;
    NativePlatform p{NativePlatform::Config{}};
    channel.bind_server_obs(p);
    Bsls<NativePlatform> proto(kMaxSpin);
    r = ulipc::run_echo_server(p, proto, channel.server_endpoint(), reply_ep, 1);
  }
  channel.deregister_server();
  report.echo_messages = r.echo_messages;
  report_rusage(report);
  return 0;
}

template <bool kTraced>
Segment echo_segment(const Options& o, const std::vector<int>& cpus,
                     std::uint32_t index, double seconds) {
  const Workload& w = *o.workload;
  Segment seg;
  seg.traced = kTraced;
  const std::int64_t setup0 = ulipc::now_ns();
  // Calibrate before forking so the server inherits it (bind_obs would
  // otherwise pay ~2 ms in the child).
  const double ns_per_tick = TscClock::cached().ns_per_tick;

  ShmChannel::Config cfg;
  cfg.max_clients = 1;
  ShmRegion region = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);
  ShmRegion shared =
      ShmRegion::create_anonymous(shared_bytes(kTraced ? kSpanCapacity : 0));
  auto* block = new (shared.base()) SharedBlock();
  const std::uint32_t free0 = channel.node_pool().free_count();

  const pid_t self = getpid();
  ChildProcess server = ChildProcess::spawn([&] {
    return echo_server<kTraced>(channel, shared, cpus[0], w.sample_every, self);
  });

  Generator<kTraced> g(w.sample_every);
  NativeEndpoint& srv = channel.server_endpoint();
  NativeEndpoint& mine = channel.client_endpoint(0);
  channel.register_client(0);
  channel.bind_client_obs(g.p, 0);
  ulipc::client_connect(g.p, g.proto, srv, mine, 0);

  Stream stream(o.seed, index, 0);
  std::uint64_t warm_bad = 0;
  for (std::uint64_t i = 0; i < w.warmup; ++i) {
    const Message req(Op::kEcho, 0, stream.value());
    warm_bad += echo_once<kTraced>(g, srv, mine, req) ? 0 : 1;
    if (w.think) ulipc::sleep_ns_eintr(stream.think_ns());
  }
  if (warm_bad != 0) fail(seg, "warm-up replies failed verification");

  // Timed interval.
  if constexpr (kTraced) g.rec.reset();
  const double cpu0 = process_cpu_s(0) + process_cpu_s(server.pid());
  const double csw0 = thread_csw();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9 / ns_per_tick);
  const std::uint64_t start = TscClock::now();
  seg.setup_s = static_cast<double>(ulipc::now_ns() - setup0) * 1e-9;
  const std::uint64_t deadline = start + budget;
  std::uint64_t t1 = start;
  while (t1 < deadline) {
    const Message req(Op::kEcho, 0, stream.value());
    const std::uint64_t t0 = TscClock::now();
    const bool ok = echo_once<kTraced>(g, srv, mine, req);
    t1 = TscClock::now();
    seg.lat_ticks.push_back(clamp_ticks(t1 - t0));
    ++seg.attempted;
    seg.verified += ok ? 1 : 0;
    if (w.think) {
      ulipc::sleep_ns_eintr(stream.think_ns());
      t1 = TscClock::now();
    }
  }
  seg.elapsed_s = static_cast<double>(t1 - start) * ns_per_tick * 1e-9;
  seg.cli_csw = thread_csw() - csw0;
  const double cpu1 = process_cpu_s(0) + process_cpu_s(server.pid());
  seg.cpu_s = cpu1 - cpu0;
  if (cpu0 < 0.0 || cpu1 < 0.0) fail(seg, "cannot read process CPU clocks");

  ulipc::client_disconnect(g.p, g.proto, srv, mine, 0);
  channel.deregister_client(0);
  if (server.join() != 0) fail(seg, "echo server exited non-zero");

  // Checks after every participant has exited.
  const ChildReport& rep = block->child[0];
  if (rep.echo_messages != w.warmup + seg.attempted) {
    fail(seg, "server served a different number of echoes than were sent");
  }
  read_slot(channel, ShmChannel::server_obs_slot(), &seg.srv_reg, seg, "server");
  read_slot(channel, channel.client_obs_slot(0), &seg.cli_reg, seg, "client");
  if (channel.node_pool().free_count() != free0) {
    fail(seg, "node pool free count differs from its initial value");
  }
  seg.srv_csw = rep.csw;
  if constexpr (kTraced) {
    seg.cli_counts = g.rec.counts;
    seg.cli_spans.emplace_back(g.rec.spans(), g.rec.spans() + g.rec.kept());
    seg.srv_counts = rep.counts;
    const SpanRec* s = shared_spans(shared);
    seg.srv_spans.assign(s, s + std::min<std::uint64_t>(rep.kept, kSpanCapacity));
  }
  return seg;
}

// ---- pool-window ----

/// What one pool generator thread measured.
struct GenOut {
  std::vector<std::uint32_t> lat_ticks;
  std::uint64_t attempted = 0;
  std::uint64_t verified = 0;
  std::uint64_t end_tick = 0;
  double csw = 0.0;
  bool warm_ok = true;
  std::string error;
};

template <bool kTraced>
Segment pool_segment(const Options& o, const std::vector<int>& cpus,
                     std::uint32_t index, double seconds) {
  const Workload& w = *o.workload;
  constexpr std::uint32_t kShards = 2;
  constexpr std::uint32_t kClients = 2;
  Segment seg;
  seg.traced = kTraced;
  const std::int64_t setup0 = ulipc::now_ns();
  const double ns_per_tick = TscClock::cached().ns_per_tick;

  ShmChannel::Config cfg;
  cfg.max_clients = kClients;
  cfg.shards = kShards;
  ShmRegion region = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);
  ShmRegion shared = ShmRegion::create_anonymous(shared_bytes(0));
  auto* block = new (shared.base()) SharedBlock();
  const std::uint32_t free0 = channel.node_pool().free_count();

  ulipc::ServerPoolOptions wopts;
  wopts.expected_clients = kClients;
  const pid_t self = getpid();
  std::vector<ChildProcess> workers;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    workers.push_back(ChildProcess::spawn([&, s] {
      die_with_parent(self);
      ulipc::pin_to_cpu(cpus[s]);
      const ulipc::PoolWorkerResult r = ulipc::run_pool_worker(
          channel, Bsls<NativePlatform>(kMaxSpin), s, wopts,
          NativePlatform::Config{});
      block->child[s].echo_messages = r.server.echo_messages;
      report_rusage(block->child[s]);
      return 0;
    }));
    channel.register_worker_pid(s, static_cast<std::uint32_t>(workers.back().pid()));
  }

  Generator<kTraced> gens[kClients] = {Generator<kTraced>(w.sample_every),
                                       Generator<kTraced>(w.sample_every)};
  GenOut outs[kClients];
  std::atomic<std::uint32_t> arrived{0};
  std::atomic<std::uint64_t> deadline{0};
  std::atomic<std::uint32_t> finished{0};
  std::uint64_t start = 0;
  double cpu0 = 0.0;

  const auto body = [&](std::uint32_t id) {
    ulipc::pin_to_cpu(cpus[kShards + id]);
    Generator<kTraced>& g = gens[id];
    GenOut& out = outs[id];
    NativeEndpoint& mine = channel.client_endpoint(id);
    channel.register_client(id);
    channel.bind_client_obs(g.p, id);
    ulipc::pool_client_connect(g.p, g.proto, channel, id,
                               ulipc::PlacementPolicy::kLeastLoaded, id);
    Stream stream(o.seed, index, id);
    Message reqs[kWindow];
    const auto fill = [&] {
      double sum = 0.0;
      for (auto& r : reqs) {
        r = Message(Op::kEcho, id, stream.value());
        sum += r.value;
      }
      return sum;
    };
    const auto shard_ep = [&]() -> NativeEndpoint& {
      return channel.shard_endpoint(channel.shard_map().assignment(id));
    };
    for (std::uint64_t i = 0; i < w.warmup; ++i) {
      const double sum = fill();
      out.warm_ok &= window_once<kTraced>(g, shard_ep(), mine, reqs, sum);
    }
    arrived.fetch_add(1, std::memory_order_acq_rel);
    if (id == 0) {
      while (arrived.load(std::memory_order_acquire) < kClients) {
      }
      cpu0 = process_cpu_s(0) + process_cpu_s(workers[0].pid()) +
             process_cpu_s(workers[1].pid());
      start = TscClock::now();
      seg.setup_s = static_cast<double>(ulipc::now_ns() - setup0) * 1e-9;
      deadline.store(start + static_cast<std::uint64_t>(seconds * 1e9 / ns_per_tick),
                     std::memory_order_release);
    }
    std::uint64_t end = 0;
    while ((end = deadline.load(std::memory_order_acquire)) == 0) {
    }
    if constexpr (kTraced) g.rec.reset();
    const double csw0 = thread_csw();
    std::uint64_t t1 = TscClock::now();
    while (t1 < end) {
      const double sum = fill();
      NativeEndpoint& srv = shard_ep();
      const std::uint64_t t0 = TscClock::now();
      const bool ok = window_once<kTraced>(g, srv, mine, reqs, sum);
      t1 = TscClock::now();
      out.lat_ticks.push_back(clamp_ticks(t1 - t0));
      out.attempted += kWindow;
      out.verified += ok ? kWindow : 0;
    }
    out.end_tick = t1;
    out.csw = thread_csw() - csw0;
    finished.fetch_add(1, std::memory_order_acq_rel);
    while (finished.load(std::memory_order_acquire) < kClients) {
    }
    ulipc::pool_client_disconnect(g.p, g.proto, channel, id);
  };
  const auto guarded = [&](std::uint32_t id) {
    try {
      body(id);
    } catch (const std::exception& e) {
      outs[id].error = e.what();
      // Release the partner from the start and finish gates.
      arrived.store(kClients, std::memory_order_release);
      deadline.store(1, std::memory_order_release);
      finished.store(kClients, std::memory_order_release);
    }
  };
  std::thread second(guarded, 1);
  guarded(0);
  second.join();
  const double cpu1 = process_cpu_s(0) + process_cpu_s(workers[0].pid()) +
                      process_cpu_s(workers[1].pid());
  seg.cpu_s = cpu1 - cpu0;
  if (cpu0 < 0.0 || cpu1 < 0.0) fail(seg, "cannot read process CPU clocks");

  std::uint64_t end_tick = start;
  for (GenOut& out : outs) {
    if (!out.error.empty()) fail(seg, "generator: " + out.error);
    if (!out.warm_ok) fail(seg, "warm-up windows failed verification");
    seg.attempted += out.attempted;
    seg.verified += out.verified;
    seg.cli_csw += out.csw;
    end_tick = std::max(end_tick, out.end_tick);
    seg.lat_ticks.insert(seg.lat_ticks.end(), out.lat_ticks.begin(),
                         out.lat_ticks.end());
  }
  seg.elapsed_s = static_cast<double>(end_tick - start) * ns_per_tick * 1e-9;

  std::uint64_t served = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (workers[s].join() != 0) fail(seg, "pool worker exited non-zero");
    served += block->child[s].echo_messages;
    seg.srv_csw += block->child[s].csw;
    read_slot(channel, channel.duplex_obs_slot(s), &seg.srv_reg, seg, "pool worker");
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    read_slot(channel, channel.client_obs_slot(c), &seg.cli_reg, seg, "generator");
  }
  if (served != kClients * w.warmup * kWindow + seg.attempted) {
    fail(seg, "pool served a different number of echoes than were sent");
  }
  if (channel.node_pool().free_count() != free0) {
    fail(seg, "node pool free count differs from its initial value");
  }
  if constexpr (kTraced) {
    for (Generator<kTraced>& g : gens) {
      seg.cli_counts += g.rec.counts;
      seg.cli_spans.emplace_back(g.rec.spans(), g.rec.spans() + g.rec.kept());
    }
  }
  return seg;
}

template <bool kTraced>
Segment run_segment(const Options& o, const std::vector<int>& cpus,
                    std::uint32_t index, double seconds) {
  return o.workload->shape == Shape::kPool
             ? pool_segment<kTraced>(o, cpus, index, seconds)
             : echo_segment<kTraced>(o, cpus, index, seconds);
}

// ---- trace digest ----

/// Span data folded per kind and per request, in nanoseconds.
struct Digest {
  std::vector<double> dur_ns[kKinds];
  std::vector<double> self_ns[kKinds];
  std::unordered_map<double, std::array<double, kLayers>> layer_ns_by_tag;
  std::unordered_map<double, double> request_ns_by_tag;  // generator roots
  std::uint64_t requests = 0;  // request roots seen (generator side)

  void add(const std::vector<SpanRec>& spans, double ns_per_tick) {
    std::size_t g0 = 0;
    while (g0 < spans.size()) {
      std::size_t g1 = g0 + 1;
      while (g1 < spans.size() && spans[g1].parent >= 0) ++g1;
      std::vector<Interval> iv(g1 - g0);
      for (std::size_t i = g0; i < g1; ++i) {
        const auto base = static_cast<std::int32_t>(g0);
        iv[i - g0] = Interval{spans[i].t0, spans[i].t1,
                              spans[i].parent < 0 ? -1 : spans[i].parent - base};
      }
      const std::vector<std::int64_t> self = self_times(iv);
      auto& layers = layer_ns_by_tag[spans[g0].tag];
      if (spans[g0].kind == Kind::kRequest) {
        ++requests;
        request_ns_by_tag[spans[g0].tag] =
            static_cast<double>(spans[g0].t1 - spans[g0].t0) * ns_per_tick;
      }
      for (std::size_t i = g0; i < g1; ++i) {
        const auto k = static_cast<int>(spans[i].kind);
        const double dur = static_cast<double>(spans[i].t1 - spans[i].t0) * ns_per_tick;
        const double own = static_cast<double>(self[i - g0]) * ns_per_tick;
        dur_ns[k].push_back(dur);
        self_ns[k].push_back(own);
        layers[static_cast<int>(layer_of(spans[i].kind))] += own;
      }
      g0 = g1;
    }
  }

  [[nodiscard]] std::vector<double> pooled(bool self, bool (*pick)(Kind)) const {
    std::vector<double> v;
    for (int k = 0; k < kKinds; ++k) {
      if (!pick(static_cast<Kind>(k))) continue;
      const auto& src = self ? self_ns[k] : dur_ns[k];
      v.insert(v.end(), src.begin(), src.end());
    }
    return v;
  }

  [[nodiscard]] double total(bool (*pick)(Kind)) const {
    double t = 0.0;
    for (int k = 0; k < kKinds; ++k) {
      if (!pick(static_cast<Kind>(k))) continue;
      for (const double d : dur_ns[k]) t += d;
    }
    return t;
  }

  /// Median over requests of each layer's self time within a request.
  [[nodiscard]] std::array<double, kLayers> layer_medians_ns() const {
    std::array<std::vector<double>, kLayers> per;
    for (const auto& [tag, layers] : layer_ns_by_tag) {
      for (int l = 0; l < kLayers; ++l) per[l].push_back(layers[l]);
    }
    std::array<double, kLayers> m{};
    for (int l = 0; l < kLayers; ++l) m[l] = median(per[l]);
    return m;
  }

  /// Mean self time per layer over the requests whose duration lies
  /// between the 45th and 55th percentile: where the median request's time
  /// went. The layers add up to the band's mean duration, which sits at
  /// the traced median.
  [[nodiscard]] std::array<double, kLayers> median_band_ns() const {
    std::vector<double> durs;
    for (const auto& [tag, ns] : request_ns_by_tag) durs.push_back(ns);
    std::sort(durs.begin(), durs.end());
    const double lo = percentile_sorted(durs, 0.45).value;
    const double hi = percentile_sorted(durs, 0.55).value;
    std::array<double, kLayers> sum{};
    double n = 0.0;
    for (const auto& [tag, ns] : request_ns_by_tag) {
      if (ns < lo || ns > hi) continue;
      const auto& layers = layer_ns_by_tag.at(tag);
      for (int l = 0; l < kLayers; ++l) sum[l] += layers[l];
      n += 1.0;
    }
    for (double& v : sum) v = per_msg(v, n);
    return sum;
  }
};

bool pick_protocol(Kind k) { return layer_of(k) == Layer::kProtocols; }
bool pick_runtime(Kind k) { return layer_of(k) == Layer::kRuntime; }
bool pick_sem_v(Kind k) { return k == Kind::kSemV; }
bool pick_sem_p(Kind k) { return k == Kind::kSemP; }

// ---- output ----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_kind_table(const char* side, const Digest& d, const CallCounts& c,
                      double msgs) {
  std::printf("# %s calls per msg and span medians (ns):\n", side);
  for (int k = 0; k < kKinds; ++k) {
    if (c.calls[k] == 0) continue;
    std::printf("#   %-14s %9.3f/msg  dur %9.1f  self %9.1f  (n=%zu)\n",
                kKindNames[k], per_msg(static_cast<double>(c.calls[k]), msgs),
                median(d.dur_ns[k]), median(d.self_ns[k]), d.dur_ns[k].size());
  }
  std::printf("#   dequeues empty %.4f of %llu; empty right after queue_empty() "
              "said non-empty %.4f of %llu\n",
              per_msg(static_cast<double>(c.dequeues_empty),
                      static_cast<double>(c.dequeues)),
              static_cast<unsigned long long>(c.dequeues),
              per_msg(static_cast<double>(c.false_nonempty),
                      static_cast<double>(c.after_nonempty)),
              static_cast<unsigned long long>(c.after_nonempty));
  const auto lm = d.layer_medians_ns();
  std::printf("#   median self per request (us):");
  for (int l = 0; l < kLayers; ++l) {
    std::printf(" %s %.3f", kLayerNames[l], lm[l] * 1e-3);
  }
  std::printf("\n");
}

/// End-to-end metrics over the run's timed intervals: latency percentiles
/// of all samples pooled, throughput and CPU as totals over the summed
/// intervals, and set-up time as the median over the segments' set-ups.
std::vector<Metric> end_to_end(const std::vector<Segment>& segs,
                               const TickHistogram& lat, double ns_per_tick) {
  std::vector<double> setup;
  double verified = 0.0;
  double elapsed = 0.0;
  double cpu = 0.0;
  for (const Segment& s : segs) {
    setup.push_back(s.setup_s);
    verified += static_cast<double>(s.verified);
    elapsed += s.elapsed_s;
    cpu += s.cpu_s;
  }
  const double us_per_tick = ns_per_tick * 1e-3;
  const Pct p99 = lat.percentile(0.99);
  std::printf("# lat_p99_us: %zu samples over %zu segments, %zu beyond the "
              "99th percentile\n", p99.n, segs.size(), p99.beyond);
  return {
      {"setup_s", median(setup), "s"},
      {"msgs_per_s", per_msg(verified, elapsed), "msgs/s"},
      {"lat_p50_us", lat.percentile(0.5).value * us_per_tick, "us"},
      {"lat_p99_us", p99.value * us_per_tick, "us"},
      {"cpu_us_per_msg", per_msg(cpu * 1e6, verified), "us/msg"},
  };
}

std::vector<Metric> per_layer(const std::vector<Segment>& segs,
                              const TickHistogram& untraced_lat,
                              const TickHistogram& traced_lat,
                              double ns_per_tick, const Options& o) {
  const double window = o.workload->shape == Shape::kPool ? kWindow : 1.0;
  Digest cli;
  Digest srv;
  CallCounts cc;
  CallCounts sc;
  ProtocolCounters cr;
  ProtocolCounters sr;
  double msgs = 0.0;
  double cli_csw = 0.0;
  double srv_csw = 0.0;
  for (const Segment& s : segs) {
    if (!s.traced) continue;
    for (const auto& spans : s.cli_spans) cli.add(spans, ns_per_tick);
    srv.add(s.srv_spans, ns_per_tick);
    cc += s.cli_counts;
    sc += s.srv_counts;
    cr += s.cli_reg;
    sr += s.srv_reg;
    msgs += static_cast<double>(s.verified);
    cli_csw += s.cli_csw;
    srv_csw += s.srv_csw;
  }
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  const auto calls = [&](bool (*pick)(Kind)) {
    double n = 0.0;
    for (int k = 0; k < kKinds; ++k) {
      if (pick(static_cast<Kind>(k))) n += d(cc.calls[k]);
    }
    return n;
  };
  const double cli_sends = d(cr.sends);
  const double srv_recv = d(sr.receives);
  const double sampled_msgs = d(cli.requests) * window;

  const double untraced_p50 = untraced_lat.percentile(0.5).value * ns_per_tick * 1e-3;
  const double traced_p50 = traced_lat.percentile(0.5).value * ns_per_tick * 1e-3;
  const double overhead = per_msg(traced_p50, untraced_p50) - 1.0;

  std::printf("# traced: %.0f msgs; spans kept for %llu requests (1 in %llu)\n",
              msgs, static_cast<unsigned long long>(cli.requests),
              static_cast<unsigned long long>(o.workload->sample_every));
  print_kind_table("generator", cli, cc, msgs);
  if (!srv.layer_ns_by_tag.empty()) {
    print_kind_table("echo server", srv, sc, d(sr.receives));
  }
  // The generator's send path, layer by layer, for the median request. Its
  // sum exceeds the untraced p50 by the tracing overhead, give or take the
  // 5 points the 45-55th percentile band spans.
  const auto band = cli.median_band_ns();
  double path_ns = 0.0;
  std::printf("# send path of the median request (us):");
  for (int l = 0; l < kLayers; ++l) {
    std::printf("%s %s %.3f", l == 0 ? "" : " +", kLayerNames[l], band[l] * 1e-3);
    path_ns += band[l];
  }
  const double path_frac = per_msg(path_ns * 1e-3, untraced_p50) - 1.0;
  std::printf(" = %.3f; untraced p50 %.3f, traced p50 %.3f: sum %+.1f%%, "
              "tracing overhead %+.1f%% (%s)\n",
              path_ns * 1e-3, untraced_p50, traced_p50, path_frac * 100.0,
              overhead * 100.0,
              std::fabs(path_frac - overhead) <= 0.05
                  ? "adds up within the overhead"
                  : "does NOT add up within the overhead");

  return {
      {"queue.calls_per_msg.cli", per_msg(calls(is_queue_call), msgs), "1/msg"},
      {"queue.call_ns_p50.cli", median(cli.pooled(false, is_queue_call)), "ns"},
      {"queue.empty_frac.cli", per_msg(d(cc.dequeues_empty), d(cc.dequeues)), "frac"},
      {"queue.false_nonempty_frac.cli",
       per_msg(d(cc.false_nonempty), d(cc.after_nonempty)), "frac"},
      {"queue.batch_mean.cli", per_msg(d(cc.batch_msgs), d(cc.batch_calls)), "msgs"},
      {"queue.batch_mean.srv", per_msg(d(sr.replies), d(sr.batch_enqueues)), "msgs"},
      {"shm.tas_per_msg.cli",
       per_msg(d(cc.calls[static_cast<int>(Kind::kTasAwake)]), msgs), "1/msg"},
      {"shm.sem_v_per_msg.cli", per_msg(calls(pick_sem_v), msgs), "1/msg"},
      {"shm.sem_v_per_msg.srv", per_msg(d(sr.wakeups), srv_recv), "1/msg"},
      {"shm.sem_v_ns_p50.cli", median(cli.pooled(false, pick_sem_v)), "ns"},
      {"shm.sem_p_per_msg.cli", per_msg(calls(pick_sem_p), msgs), "1/msg"},
      {"shm.sem_p_per_msg.srv", per_msg(d(sr.blocks + sr.sem_absorbs), srv_recv),
       "1/msg"},
      {"shm.sem_p_wait_us_p50.cli", median(cli.pooled(false, pick_sem_p)) * 1e-3,
       "us"},
      {"protocols.self_ns_p50.cli", median(cli.pooled(true, pick_protocol)), "ns"},
      {"protocols.spin_fallthrough_frac.cli",
       per_msg(d(cr.spin_fallthroughs), d(cr.spin_entries)), "frac"},
      {"protocols.spin_fallthrough_frac.srv",
       per_msg(d(sr.spin_fallthroughs), d(sr.spin_entries)), "frac"},
      {"protocols.blocks_per_msg.cli", per_msg(d(cr.blocks), cli_sends), "1/msg"},
      {"protocols.blocks_per_msg.srv", per_msg(d(sr.blocks), srv_recv), "1/msg"},
      {"protocols.absorbs_per_msg.cli", per_msg(d(cr.sem_absorbs), cli_sends), "1/msg"},
      {"protocols.absorbs_per_msg.srv", per_msg(d(sr.sem_absorbs), srv_recv), "1/msg"},
      {"protocols.coalesced_per_msg.cli",
       per_msg(d(cr.wakeups_coalesced), cli_sends), "1/msg"},
      {"protocols.coalesced_per_msg.srv",
       per_msg(d(sr.wakeups_coalesced), srv_recv), "1/msg"},
      {"runtime.poll_calls_per_msg.cli", per_msg(calls(pick_runtime), msgs), "1/msg"},
      {"runtime.poll_calls_per_msg.srv",
       per_msg(d(sr.polls + sr.busy_waits + sr.yields), srv_recv), "1/msg"},
      {"runtime.poll_us_per_msg.cli", per_msg(cli.total(pick_runtime) * 1e-3, sampled_msgs),
       "us/msg"},
      {"runtime.csw_per_msg.cli", per_msg(cli_csw, msgs), "1/msg"},
      {"runtime.csw_per_msg.srv", per_msg(srv_csw, srv_recv), "1/msg"},
      {"runtime.pool.receive_batch_mean",
       per_msg(srv_recv, d(sr.spin_entries) - d(sr.timeouts)), "msgs"},
      {"runtime.pool.worker_blocks_per_msg", per_msg(d(sr.blocks), srv_recv), "1/msg"},
      {"trace.overhead_frac", overhead, "frac"},
  };
}

/// Writes the first kDumpSpans kept spans of each recorder of the traced
/// segments, one line per span: side, request tag, kind, parent (line
/// index in the file), start (ns from the recorder's first span) and
/// duration in ns.
void write_spans(const std::string& path, const std::vector<Segment>& segs,
                 double ns_per_tick) {
  constexpr std::size_t kDumpSpans = 20'000;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("# cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "side\ttag\tkind\tparent\tstart_ns\tdur_ns\n");
  const auto dump = [&](const char* side, const std::vector<SpanRec>& spans,
                        std::size_t& line) {
    const std::size_t base = line;
    const std::int64_t origin = spans.empty() ? 0 : spans.front().t0;
    std::size_t n = std::min(spans.size(), kDumpSpans);
    while (n < spans.size() && spans[n].parent >= 0) --n;  // whole groups only
    for (std::size_t i = 0; i < n; ++i) {
      const SpanRec& s = spans[i];
      std::fprintf(f, "%s\t%.0f\t%s\t%lld\t%.1f\t%.1f\n", side, s.tag,
                   kKindNames[static_cast<int>(s.kind)],
                   s.parent < 0 ? -1LL
                                : static_cast<long long>(base) + s.parent,
                   static_cast<double>(s.t0 - origin) * ns_per_tick,
                   static_cast<double>(s.t1 - s.t0) * ns_per_tick);
      ++line;
    }
  };
  std::size_t line = 0;
  for (const Segment& s : segs) {
    for (const auto& spans : s.cli_spans) dump("cli", spans, line);
    dump("srv", s.srv_spans, line);
  }
  std::fclose(f);
  std::printf("# spans written to %s\n", path.c_str());
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

bool parse(int argc, char** argv, Options* o) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, val) == 0) o->workload = &w;
      }
    } else if (key == "--seed") {
      o->seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && o->seconds > 0.0 &&
                     o->seconds <= 120.0;
    } else if (key == "--trace") {
      o->trace = std::strcmp(val, "1") == 0;
      have_trace = o->trace || std::strcmp(val, "0") == 0;
    } else if (key == "--out-dir") {
      o->out_dir = val;
    } else {
      return false;
    }
  }
  return o->workload != nullptr && have_seed && have_seconds && have_trace;
}

int run(const Options& o) {
  const Workload& w = *o.workload;
  const std::vector<int> cpus = allowed_cpus();
  const int nproc = ulipc::cpu_count();
  if (w.cpus > nproc || static_cast<int>(cpus.size()) < w.cpus) {
    std::fprintf(stderr,
                 "perfbench: %s pins %d threads, one per CPU, but only %d "
                 "CPUs are online and %zu allowed; refusing to oversubscribe\n",
                 w.name, w.cpus, nproc, cpus.size());
    return 3;
  }
  // A hung server must not hang the benchmark: SIGALRM ends this process
  // and PR_SET_PDEATHSIG ends the servers with it.
  alarm(static_cast<unsigned>(o.seconds * 3.0) + 60);
  if (w.think) (void)prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us sleep slack

  const ulipc::QueueEnginePolicy engines = ulipc::QueueEnginePolicy::from_env();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("# host: cpus=%d kernel=%s build=%s engines=server:%s,reply:%s,"
              "shard:%s protocol=Bsls(%u,fixed) platform=NativePlatform::Config{}\n",
              nproc, kernel_release().c_str(), PERFBENCH_BUILD_TYPE,
              ulipc::queue_engine_name(engines.server),
              ulipc::queue_engine_name(engines.reply),
              ulipc::queue_engine_name(engines.shard), kMaxSpin);
  if (w.shape == Shape::kPool) {
    std::printf("# placement: workers cpu%d,cpu%d; generators cpu%d,cpu%d; "
                "window %u per generator\n", cpus[0], cpus[1], cpus[2], cpus[3],
                kWindow);
  } else {
    std::printf("# placement: echo server cpu%d; generator cpu%d%s\n", cpus[0],
                cpus[1], w.think ? "; exponential think time, mean 50 us" : "");
  }
  ulipc::pin_to_cpu(cpus[w.shape == Shape::kPool ? 2 : 1]);

  // --trace 0: one-second untraced segments (at least five); their medians
  // ride out the host's short stalls and regime flips. --trace 1:
  // untraced and traced segments alternate, so both halves see the same
  // host conditions.
  const auto n = o.trace ? 4u
                         : static_cast<std::uint32_t>(
                               std::max(5L, std::lround(o.seconds)));
  std::vector<Segment> segs;
  TickHistogram lat[2];  // untraced, traced
  for (std::uint32_t i = 0; i < n; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    const double secs = o.seconds / n;
    segs.push_back(traced ? run_segment<true>(o, cpus, i, secs)
                          : run_segment<false>(o, cpus, i, secs));
    Segment& s = segs.back();
    std::printf("# segment %u%s: setup %.4f s, %llu msgs in %.3f s\n", i,
                traced ? " (traced)" : "", s.setup_s,
                static_cast<unsigned long long>(s.verified), s.elapsed_s);
    for (const std::uint32_t t : s.lat_ticks) lat[traced ? 1 : 0].add(t);
    s.lat_ticks = {};
  }

  // Read only now: the first segment's set-up pays the clock calibration.
  const double ns_per_tick = TscClock::cached().ns_per_tick;
  std::uint64_t attempted = 0;
  std::uint64_t verified = 0;
  bool checks_ok = true;
  for (const Segment& s : segs) {
    attempted += s.attempted;
    verified += s.verified;
    for (const std::string& f : s.failures) {
      std::printf("# CHECK FAILED: %s\n", f.c_str());
      checks_ok = false;
    }
  }
  const std::uint64_t failed = attempted - verified;
  std::vector<Metric> metrics;
  if (o.trace) {
    metrics = per_layer(segs, lat[0], lat[1], ns_per_tick, o);
    if (!o.out_dir.empty()) {
      write_spans(o.out_dir + "/spans-" + w.name + ".tsv", segs, ns_per_tick);
    }
  } else {
    metrics = end_to_end(segs, lat[0], ns_per_tick);
  }
  for (const Metric& m : metrics) {
    std::printf("%-38s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("%-38s %.6g frac (%llu of %llu attempted)\n", "failed_frac",
              per_msg(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  const bool correct = checks_ok && failed == 0 && attempted > 0;
  print_json(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload echo-spin|echo-think|pool-window "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
