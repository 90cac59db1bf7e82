// Scenario engine implementation: fork the pool, fork the clients, drive
// the named workload, optionally kill processes mid-load, audit the SLOs.
// See scenario.hpp for the contract.
#include "runtime/scenario.hpp"

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/affinity.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "explore/hooks.hpp"
#include "obs/hooks.hpp"
#include "protocols/bsw.hpp"
#include "runtime/server_pool.hpp"
#include "runtime/waitset.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {

namespace {

/// Per-client progress cells in a MAP_SHARED region: written incrementally
/// by the client processes so the counts survive a SIGKILL and so the
/// parent can watch aggregate progress (the parent-kill chaos trigger).
struct ClientCell {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> verified{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> sheds{0};
  std::atomic<std::uint64_t> stale{0};
  std::atomic<std::uint64_t> bytes{0};  // payload bytes verified end-to-end
};

struct ScenarioShared {
  std::atomic<std::uint32_t> stop{0};  // ServerPoolOptions::stop_flag
  ClientCell clients[kMaxClients];
};

double pareto_us(Xoshiro256& rng, const ScenarioSpec& spec) {
  const double u = rng.uniform01();
  const double w =
      spec.pareto_xm_us * std::pow(1.0 - u, -1.0 / spec.pareto_alpha);
  return w > spec.pareto_cap_us ? spec.pareto_cap_us : w;
}

/// Pareto-distributed payload size in [payload_min, payload_max] — the
/// heavy-tailed "mostly small keys, occasional megabyte blob" shape real
/// IPC payloads follow.
std::uint32_t pareto_bytes(Xoshiro256& rng, const ScenarioSpec& spec) {
  const double xm = spec.payload_min > 0 ? spec.payload_min : 1.0;
  const double u = rng.uniform01();
  const double x = xm * std::pow(1.0 - u, -1.0 / spec.payload_alpha);
  const auto cap = static_cast<double>(spec.payload_max);
  return static_cast<std::uint32_t>(x > cap ? cap : x);
}

/// Streaming clients bypass the resilience layer: the windowed batched
/// echo loop is the throughput shape (one lock pass + one coalesced wake
/// per window), and the streaming scenario runs without chaos.
int run_streaming_client(const ScenarioSpec& spec, std::uint32_t id,
                         ScenarioShared& sh, ShmChannel& channel,
                         NativePlatform& p) {
  Bsw<NativePlatform> proto;
  ClientCell& cell = sh.clients[id];
  Xoshiro256 rng(spec.seed * 0x2545f4914f6cdd1dULL + id);
  bool ok = true;
  for (std::uint32_t cy = 0; cy < spec.cycles; ++cy) {
    channel.register_client(id);
    pool_client_connect(p, proto, channel, id, PlacementPolicy::kLeastLoaded);
    cell.attempted.fetch_add(spec.messages, std::memory_order_relaxed);
    std::uint64_t v = 0;
    if (spec.payloads()) {
      std::uint64_t bytes = 0;
      v = pool_client_echo_loop_windowed_loaned(
          p, proto, channel, id, spec.messages, spec.window,
          [&] { return pareto_bytes(rng, spec); }, &bytes);
      cell.bytes.fetch_add(bytes, std::memory_order_relaxed);
    } else {
      v = pool_client_echo_loop_windowed(
          p, proto, channel, id, spec.messages, spec.window, spec.work_us);
    }
    cell.verified.fetch_add(v, std::memory_order_relaxed);
    ok &= v == spec.messages;
    pool_client_disconnect(p, proto, channel, id);
  }
  return ok ? 0 : 1;
}

/// One resilient client process: `cycles` rounds of connect -> workload
/// loop -> disconnect, every operation bounded by the resilience config.
/// Chaos victims ignore the cycle budget and loop until killed — by their
/// own armed crash point (explore builds) or by the parent (default
/// builds) — so the kill always lands on a live, mid-traffic process.
int run_client(const ScenarioSpec& spec, std::uint32_t id, bool victim,
               ScenarioShared& sh, ShmChannel& channel,
               const NativePlatform::Config& pcfg) {
  NativePlatform p(pcfg);
  channel.bind_loadgen_obs(p, id);
#ifdef ULIPC_EXPLORE_ENABLED
  if (victim) {
    explore::arm_crash(
        explore::Point::kProtEnqueued,
        static_cast<std::uint32_t>(spec.chaos.kill_after_replies));
  }
#endif
  if (spec.workload == Workload::kStreaming) {
    return run_streaming_client(spec, id, sh, channel, p);
  }

  ResilienceConfig rcfg = spec.resilience;
  rcfg.seed ^= spec.seed;
  ResilientPoolClient client(channel, id, rcfg);
  Xoshiro256 rng(spec.seed * 0x9e3779b97f4a7c15ULL + id);
  ClientCell& cell = sh.clients[id];
  PayloadPool* plane = spec.payloads() ? channel.payload_plane() : nullptr;
  bool ok = true;

  // One resilient data request, loaning a payload when the spec asks for
  // one. A shed or timed-out loaned request has its loan released by the
  // resilience layer, so every retry round loans afresh; an exhausted
  // plane falls back to a payload-less request rather than stalling.
  const auto issue = [&](Op op, double arg, std::uint32_t psz,
                         Message* ans) {
    std::uint64_t token = PayloadPool::kNoPayload;
    if (plane != nullptr && psz > 0) token = plane->loan(psz);
    if (token == PayloadPool::kNoPayload) {
      return client.request(p, op, arg, ans);
    }
    const std::int64_t lt0 = obs::loan_made(p);
    std::memset(plane->data(token), static_cast<int>('a' + psz % 26), psz);
    plane->publish(token, psz);
    const RequestOutcome o =
        client.request_loaned(p, op, arg, token, ans, lt0);
    if (o == RequestOutcome::kOk) {
      // The verified reply batons the loan back (the echo is in place —
      // same slot, same bytes): consume, then release exactly once here.
      if (plane->read(ans->ext_offset).size() == psz) {
        cell.bytes.fetch_add(psz, std::memory_order_relaxed);
      }
      plane->release(ans->ext_offset);
      obs::loan_released(p, lt0);
    }
    return o;
  };

  for (std::uint32_t cy = 0; ok && (victim || cy < spec.cycles); ++cy) {
    if (client.connect(p, PlacementPolicy::kLeastLoaded) !=
        RequestOutcome::kOk) {
      ok = false;
      break;
    }
    for (std::uint64_t i = 0; ok && (victim || i < spec.messages); ++i) {
      Op op = spec.work_us > 0.0 ? Op::kCompute : Op::kEcho;
      double arg =
          spec.work_us > 0.0 ? spec.work_us : static_cast<double>(i);
      if (spec.workload == Workload::kParetoCompute) {
        op = Op::kCompute;
        arg = pareto_us(rng, spec);
      }
      const std::uint32_t psz =
          spec.payloads() ? pareto_bytes(rng, spec) : 0;
      cell.attempted.fetch_add(1, std::memory_order_relaxed);
      Message ans;
      RequestOutcome o = issue(op, arg, psz, &ans);
      while (o == RequestOutcome::kOverloaded) {
        // Shed = delayed, never lost: back off, then re-issue the same
        // logical request (a fresh tag; the shed one was never sent).
        sleep_ns_eintr(rcfg.backoff_base_ns);
        o = issue(op, arg, psz, &ans);
      }
      if (o == RequestOutcome::kOk && ans.value == arg &&
          ans.channel == id) {
        cell.verified.fetch_add(1, std::memory_order_relaxed);
      } else {
        ok = false;
      }
      if (spec.workload == Workload::kBursty && spec.window > 0 &&
          (i + 1) % spec.window == 0) {
        sleep_ns_eintr(spec.burst_off_ns);
      }
    }
    if (ok) ok = client.disconnect(p) == RequestOutcome::kOk;
    cell.retries.store(client.stats().retries, std::memory_order_relaxed);
    cell.sheds.store(client.stats().sheds, std::memory_order_relaxed);
    cell.stale.store(client.stats().stale_dropped,
                     std::memory_order_relaxed);
  }
  return ok ? 0 : 1;
}

}  // namespace

std::string ScenarioResult::json() const {
  const auto b = [](bool v) { return v ? "true" : "false"; };
  char num[64];
  std::ostringstream os;
  os << "{\"scenario\":\"" << name << "\",\"workload\":\""
     << workload_name(workload) << "\",\"completed\":" << b(completed)
     << ",\"attempted\":" << attempted << ",\"verified\":" << verified
     << ",\"retries\":" << retries << ",\"sheds\":" << sheds
     << ",\"stale_dropped\":" << stale_dropped
     << ",\"workers_killed\":" << workers_killed
     << ",\"clients_killed\":" << clients_killed;
  std::snprintf(num, sizeof(num), "%.3f",
                static_cast<double>(orphan_drain_ns) / 1e6);
  os << ",\"orphan_drain_ms\":" << num;
  std::snprintf(num, sizeof(num), "%.3f",
                static_cast<double>(elapsed_ns) / 1e6);
  os << ",\"elapsed_ms\":" << num;
  std::snprintf(num, sizeof(num), "%.2f", msgs_per_ms);
  os << ",\"msgs_per_ms\":" << num;
  os << ",\"payload_bytes\":" << payload_bytes;
  std::snprintf(num, sizeof(num), "%.0f", bytes_per_s);
  os << ",\"bytes_per_s\":" << num;
  os << ",\"slo\":{\"no_lost_replies\":" << b(slo_no_lost_replies)
     << ",\"orphan_drain\":" << b(slo_orphan_drain)
     << ",\"nodes_conserved\":" << b(slo_nodes_conserved)
     << ",\"payloads_conserved\":" << b(slo_payloads_conserved)
     << ",\"pass\":" << b(slo_pass()) << "}}";
  return os.str();
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  ULIPC_INVARIANT(spec.workers >= 1 && spec.workers <= kMaxShards,
                  "scenario worker count out of range");
  ULIPC_INVARIANT(spec.clients >= 1 && spec.clients <= kMaxClients,
                  "scenario client count out of range");
  ULIPC_INVARIANT(spec.chaos.kill_workers < spec.workers,
                  "chaos must leave at least one worker alive");
  ULIPC_INVARIANT(spec.chaos.kill_clients < spec.clients,
                  "chaos must leave at least one client alive");

  ScenarioResult res;
  res.name = spec.name;
  res.workload = spec.workload;
  res.workers_killed = spec.chaos.kill_workers;
  res.clients_killed = spec.chaos.kill_clients;

  ShmChannel::Config cfg;
  cfg.max_clients = spec.clients;
  cfg.queue_capacity = spec.queue_capacity;
  cfg.shards = spec.workers;
  if (spec.payloads()) cfg.payload_max_bytes = spec.payload_max;
  // ULIPC_SCENARIO_SHM names the channel's region so external tools
  // (ulipc-stat --watch/--spans) can attach to the live run; default stays
  // anonymous. With --quick each scenario reuses the name serially (the
  // region is unlinked between runs).
  const char* shm_name = std::getenv("ULIPC_SCENARIO_SHM");
  ShmRegion region =
      shm_name != nullptr
          ? ShmRegion::create_named(shm_name, ShmChannel::required_bytes(cfg))
          : ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);

  ShmRegion shared_region =
      ShmRegion::create_anonymous(sizeof(ScenarioShared));
  auto* shared = new (shared_region.base()) ScenarioShared();

  const std::uint32_t free0 = channel.node_pool().free_count();
  const std::uint32_t pfree0 = channel.has_payload_plane()
                                   ? channel.payload_plane()->free_count()
                                   : 0;

  NativePlatform::Config pcfg;
  pcfg.multiprocessor = cpu_count() > 1;
  NativePlatform parent_p(pcfg);

  ServerPoolOptions wopts;
  wopts.expected_clients = spec.clients * spec.cycles;
  wopts.liveness_timeout_ns = 20'000'000;
  wopts.stop_flag = &shared->stop;

  // Workers first (victims are the low shards; the invariant above
  // guarantees survivors). Seats are taken by the parent at spawn so a
  // victim killed arbitrarily early still reads as crashed.
  std::vector<ChildProcess> workers;
  for (std::uint32_t s = 0; s < spec.workers; ++s) {
    const bool victim = s < spec.chaos.kill_workers;
    workers.push_back(ChildProcess::spawn([&, s, victim] {
#ifdef ULIPC_EXPLORE_ENABLED
      if (victim) {
        explore::arm_crash(
            explore::Point::kProtEnqueued,
            static_cast<std::uint32_t>(spec.chaos.kill_after_replies));
      }
#else
      (void)victim;
#endif
      (void)run_pool_worker(channel, Bsw<NativePlatform>{}, s, wopts, pcfg);
      return 0;
    }));
    channel.register_worker_pid(
        s, static_cast<std::uint32_t>(workers.back().pid()));
  }

  const std::int64_t t0 = parent_p.time_ns();
  std::vector<ChildProcess> clients;
  for (std::uint32_t c = 0; c < spec.clients; ++c) {
    const bool victim = c < spec.chaos.kill_clients;
    clients.push_back(ChildProcess::spawn(
        [&, c, victim] { return run_client(spec, c, victim, *shared,
                                           channel, pcfg); }));
    channel.register_client_pid(
        c, static_cast<std::uint32_t>(clients.back().pid()));
  }

  bool completed = true;
  if (spec.chaos.enabled()) {
#ifndef ULIPC_EXPLORE_ENABLED
    // Parent-kill trigger: wait until the survivors have verified enough
    // replies that the kill lands mid-load, then SIGKILL the victims (who
    // loop until killed, so they are guaranteed to still be running).
    const std::int64_t wait_cap = parent_p.time_ns() + 60'000'000'000LL;
    for (;;) {
      std::uint64_t sum = 0;
      for (std::uint32_t c = spec.chaos.kill_clients; c < spec.clients;
           ++c) {
        sum += shared->clients[c].verified.load(std::memory_order_acquire);
      }
      if (sum >= spec.chaos.kill_after_replies) break;
      if (parent_p.time_ns() > wait_cap) {
        completed = false;
        break;
      }
      sleep_ns_eintr(1'000'000);
    }
    for (std::uint32_t s = 0; s < spec.chaos.kill_workers; ++s) {
      workers[s].kill();
    }
    for (std::uint32_t c = 0; c < spec.chaos.kill_clients; ++c) {
      clients[c].kill();
    }
#endif
    // Victim workers must die by SIGKILL (self-armed or parent-sent).
    for (std::uint32_t s = 0; s < spec.chaos.kill_workers; ++s) {
      completed &= workers[s].join() == -SIGKILL;
    }
    // Orphan-drain SLO: from the moment the last victim worker is
    // certainly dead, survivors must retire every victim shard and leave
    // its queue empty within the bound.
    const std::int64_t t_dead = parent_p.time_ns();
    bool drained = spec.chaos.kill_workers == 0;
    while (!drained &&
           parent_p.time_ns() - t_dead < spec.chaos.orphan_drain_bound_ns) {
      drained = true;
      for (std::uint32_t s = 0; s < spec.chaos.kill_workers; ++s) {
        drained &=
            channel.shard_map().state(s) == PoolShardMap::kRetired &&
            channel.shard_endpoint(s).queue->size() == 0;
      }
      if (!drained) sleep_ns_eintr(1'000'000);
    }
    res.orphan_drain_ns = parent_p.time_ns() - t_dead;
    res.slo_orphan_drain = drained;
    for (std::uint32_t c = 0; c < spec.chaos.kill_clients; ++c) {
      completed &= clients[c].join() == -SIGKILL;
    }
  } else {
    res.slo_orphan_drain = true;  // trivially: nothing to drain
  }

  // Surviving clients run to completion (every operation they issue is
  // deadline-bounded, so this join cannot hang past the retry budget).
  for (std::uint32_t c = spec.chaos.kill_clients; c < spec.clients; ++c) {
    completed &= clients[c].join() == 0;
  }
  const std::int64_t t_end = parent_p.time_ns();
  shared->stop.store(1, std::memory_order_release);
  for (std::uint32_t s = spec.chaos.kill_workers; s < spec.workers; ++s) {
    completed &= workers[s].join() == 0;
  }

  // Post-mortem accounting (survivors only: a killed client's in-flight
  // requests were served, but its replies legitimately died with it).
  bool none_lost = true;
  for (std::uint32_t c = spec.chaos.kill_clients; c < spec.clients; ++c) {
    const ClientCell& cell = shared->clients[c];
    const std::uint64_t att = cell.attempted.load(std::memory_order_acquire);
    const std::uint64_t ver = cell.verified.load(std::memory_order_acquire);
    res.attempted += att;
    res.verified += ver;
    res.retries += cell.retries.load(std::memory_order_acquire);
    res.sheds += cell.sheds.load(std::memory_order_acquire);
    res.stale_dropped += cell.stale.load(std::memory_order_acquire);
    res.payload_bytes += cell.bytes.load(std::memory_order_acquire);
    none_lost &= att == ver && att > 0;
  }
  res.slo_no_lost_replies = none_lost;
  res.elapsed_ns = t_end - t0;
  if (res.elapsed_ns > 0) {
    res.msgs_per_ms = static_cast<double>(res.verified) /
                      (static_cast<double>(res.elapsed_ns) / 1e6);
    res.bytes_per_s = static_cast<double>(res.payload_bytes) /
                      (static_cast<double>(res.elapsed_ns) / 1e9);
  }

  // Node-conservation SLO: drain what the dead left behind (replies
  // addressed to corpses, requests stranded in retired queues), reclaim
  // any still-occupied corpse seats, run the sweep, and require the free
  // list to hold exactly its initial population again.
  Message leftover;
  for (TwoLockQueue* q : channel.all_queues()) {
    while (q->dequeue(&leftover)) {
    }
  }
  for (std::uint32_t c = 0; c < spec.clients; ++c) {
    if (channel.client_crashed(c)) {
      (void)channel.reclaim_client(c);
      channel.shard_map().unplace(c);
    }
  }
  for (std::uint32_t s = 0; s < spec.workers; ++s) {
    if (channel.worker_crashed(s)) {
      channel.shard_map().retire(s);
      channel.deregister_worker(s);
    }
  }
  {
    RobustGuard g(channel.header().recovery_lock);
    (void)sweep_leaked_nodes(channel.node_pool(), channel.all_queues(),
                             channel.payload_plane());
  }
  res.slo_nodes_conserved = channel.node_pool().free_count() == free0;
  // Payload-slot conservation: every loan — including those of SIGKILLed
  // clients, reclaimed by the sweep just above — is back on a free list.
  res.slo_payloads_conserved =
      !channel.has_payload_plane() ||
      channel.payload_plane()->free_count() == pfree0;
  res.completed = completed;
  // ULIPC_SCENARIO_LINGER_MS holds the (named) region mapped after the run
  // so a post-hoc `ulipc-stat --spans` can still assemble the rings.
  if (const char* linger = std::getenv("ULIPC_SCENARIO_LINGER_MS")) {
    char* end = nullptr;
    const long ms = std::strtol(linger, &end, 10);
    if (end != linger && ms > 0) {
      std::printf("[scenario] lingering %ld ms — inspect with: ulipc-stat %s\n",
                  ms, shm_name != nullptr ? shm_name : "<anonymous>");
      std::fflush(stdout);
      sleep_ns_eintr(ms * 1'000'000);
    }
  }
  return res;
}

ScenarioResult run_fanin_scenario(const FaninScenarioSpec& spec) {
  ULIPC_INVARIANT(spec.channels >= 1, "fanin scenario needs a channel");
  ULIPC_INVARIANT(spec.messages >= 1, "fanin scenario needs traffic");

  ScenarioResult res;
  res.name = spec.name;
  res.workload = Workload::kFanIn;

  // One single-client channel per client process; the waitset is what lets
  // one worker serve them all. Regions are anonymous and fork-inherited.
  ShmChannel::Config cfg;
  cfg.max_clients = 1;
  cfg.queue_capacity = spec.queue_capacity;
  cfg.payload_max_bytes = 0;  // echo-only: no payload plane per channel
  std::vector<ShmRegion> regions;
  std::vector<ShmChannel> chans;
  regions.reserve(spec.channels);
  chans.reserve(spec.channels);
  for (std::uint32_t c = 0; c < spec.channels; ++c) {
    regions.push_back(
        ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg)));
    chans.push_back(ShmChannel::create(regions.back(), cfg));
  }
  std::vector<std::uint32_t> free0(spec.channels);
  for (std::uint32_t c = 0; c < spec.channels; ++c) {
    free0[c] = chans[c].node_pool().free_count();
  }

  // Per-client progress cells (attempted/verified), SIGKILL-durable like
  // the pool scenarios' ClientCell.
  ShmRegion cells_region = ShmRegion::create_anonymous(
      spec.channels * sizeof(std::atomic<std::uint64_t>) * 2);
  auto* cells =
      static_cast<std::atomic<std::uint64_t>*>(cells_region.base());
  for (std::uint32_t c = 0; c < 2 * spec.channels; ++c) {
    new (&cells[c]) std::atomic<std::uint64_t>(0);
  }

  NativePlatform::Config pcfg;
  pcfg.multiprocessor = cpu_count() > 1;
  NativePlatform parent_p(pcfg);

  ChildProcess server = ChildProcess::spawn([&] {
    NativePlatform p(pcfg);
    chans[0].bind_server_obs(p);  // waitset counters land in channel 0's obs
    std::vector<ShmChannel*> ptrs;
    ptrs.reserve(spec.channels);
    for (ShmChannel& ch : chans) ptrs.push_back(&ch);
    FaninOptions fo;
    fo.liveness_timeout_ns = spec.liveness_timeout_ns;
    const FaninResult fr =
        run_waitset_fanin_server(p, ptrs, spec.channels, fo);
    return fr.gave_up || fr.disconnected != spec.channels ? 2 : 0;
  });

  const std::int64_t t0 = parent_p.time_ns();
  std::vector<ChildProcess> clients;
  clients.reserve(spec.channels);
  for (std::uint32_t c = 0; c < spec.channels; ++c) {
    clients.push_back(ChildProcess::spawn([&, c] {
      NativePlatform p(pcfg);
      chans[c].bind_client_obs(p, 0);
      Bsw<NativePlatform> proto;
      NativeEndpoint& srv = chans[c].server_endpoint();
      NativeEndpoint& mine = chans[c].client_endpoint(0);
      client_connect(p, proto, srv, mine, 0);
      cells[2 * c].store(spec.messages, std::memory_order_release);
      const std::uint64_t v =
          client_echo_loop(p, proto, srv, mine, 0, spec.messages);
      cells[2 * c + 1].store(v, std::memory_order_release);
      client_disconnect(p, proto, srv, mine, 0);
      chans[c].deregister_client(0);
      return v == spec.messages ? 0 : 1;
    }));
    chans[c].register_client_pid(
        0, static_cast<std::uint32_t>(clients.back().pid()));
  }

  bool completed = true;
  for (ChildProcess& c : clients) completed &= c.join() == 0;
  const std::int64_t t_end = parent_p.time_ns();
  completed &= server.join() == 0;

  bool none_lost = true;
  for (std::uint32_t c = 0; c < spec.channels; ++c) {
    const std::uint64_t att = cells[2 * c].load(std::memory_order_acquire);
    const std::uint64_t ver =
        cells[2 * c + 1].load(std::memory_order_acquire);
    res.attempted += att;
    res.verified += ver;
    none_lost &= att == ver && att > 0;
  }
  res.slo_no_lost_replies = none_lost;
  res.slo_orphan_drain = true;       // trivially: no chaos, nothing orphaned
  res.slo_payloads_conserved = true; // trivially: no payload plane
  bool conserved = true;
  for (std::uint32_t c = 0; c < spec.channels; ++c) {
    conserved &= chans[c].node_pool().free_count() == free0[c];
  }
  res.slo_nodes_conserved = conserved;
  res.elapsed_ns = t_end - t0;
  if (res.elapsed_ns > 0) {
    res.msgs_per_ms = static_cast<double>(res.verified) /
                      (static_cast<double>(res.elapsed_ns) / 1e6);
  }
  res.completed = completed;
  return res;
}

std::vector<ScenarioSpec> builtin_scenarios(bool quick, std::uint64_t seed) {
  const std::uint64_t m = quick ? 1 : 4;
  std::vector<ScenarioSpec> v;

  ScenarioSpec rr;
  rr.name = "request-response";
  rr.workload = Workload::kRequestResponse;
  rr.workers = 2;
  rr.clients = 4;
  rr.messages = 300 * m;
  rr.seed = seed;
  v.push_back(rr);

  ScenarioSpec st;
  st.name = "streaming";
  st.workload = Workload::kStreaming;
  st.workers = 2;
  st.clients = 4;
  st.messages = 1024 * m;
  st.window = 32;
  st.seed = seed;
  v.push_back(st);

  ScenarioSpec fi;
  fi.name = "fan-in";
  fi.workload = Workload::kFanIn;
  fi.workers = 1;
  fi.clients = 8;
  fi.messages = 200 * m;
  fi.seed = seed;
  v.push_back(fi);

  ScenarioSpec bu;
  bu.name = "bursty";
  bu.workload = Workload::kBursty;
  bu.workers = 2;
  bu.clients = 4;
  bu.messages = 200 * m;
  bu.window = 16;
  bu.burst_off_ns = 1'000'000;
  bu.seed = seed;
  v.push_back(bu);

  ScenarioSpec pc;
  pc.name = "pareto-compute";
  pc.workload = Workload::kParetoCompute;
  pc.workers = 2;
  pc.clients = 4;
  pc.messages = 150 * m;
  pc.pareto_cap_us = quick ? 50.0 : 200.0;
  pc.seed = seed;
  v.push_back(pc);

  ScenarioSpec ch;
  ch.name = "churn";
  ch.workload = Workload::kChurn;
  ch.workers = 2;
  ch.clients = 6;
  ch.cycles = 8;
  ch.messages = 25 * m;
  ch.seed = seed;
  v.push_back(ch);

  ScenarioSpec cc;
  cc.name = "churn-chaos";
  cc.workload = Workload::kChurn;
  cc.workers = 3;
  cc.clients = 6;
  cc.cycles = 6;
  cc.messages = 30 * m;
  cc.seed = seed;
  cc.resilience.request_deadline_ns = 100'000'000;
  cc.chaos.kill_workers = 1;
  cc.chaos.kill_clients = 1;
  cc.chaos.kill_after_replies = 40;
  v.push_back(cc);

  return v;
}

}  // namespace ulipc
