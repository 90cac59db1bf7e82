// Round-trip latency distribution per protocol (native, one client,
// pinned or not) — the tail-latency view the paper's throughput plots
// cannot show. Blocking protocols trade a little median latency (syscall
// on the miss path) for not burning the machine; the distribution shows
// where that cost actually lands.
//
// --batched [--window=N] switches the client to the windowed fast path:
// N requests per send_batch (one queue pass, one coalesced wake) with the
// replies collected off the SPSC ring. Reported latencies are then
// per-message (window time / N), and the wk/msg column shows the wake-up
// syscall coalescing. SYSV has no batched path and keeps its scalar loop
// as the kernel-mediated baseline. The scalar mode (no flags) remains the
// paper-faithful synchronous measurement.
//
// Wake-up accounting (wk/msg, coal/msg) is read from the channel's shared
// metrics registry after the children exit — the same numbers `ulipc-stat`
// shows on a live run. --registry-dump additionally prints one
// "[registry] {...}" JSON line per protocol for record_bench.sh; the line
// carries the span plane's per-phase percentiles (queue residency, wake in
// flight, service, reply path — sampled 1-in-2^ULIPC_SPAN_SHIFT) so the
// perf trajectory tracks WHERE round-trip time goes, not just how much.
// --phases additionally prints those phases as a human-readable table.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "benchsupport/args.hpp"
#include "common/affinity.hpp"
#include "common/clock.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/hooks.hpp"
#include "protocols/bsls.hpp"
#include "protocols/protocol_set.hpp"
#include "queue/payload_pool.hpp"
#include "runtime/shm_channel.hpp"
#include "runtime/sysv_transport.hpp"
#include "runtime/waitset.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

using namespace ulipc;
using namespace ulipc::bench;

namespace {

struct LatencyReport {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
  double wakeups_per_msg = 0;    // client + server V() syscalls per message
  double coalesced_per_msg = 0;  // messages that rode an earlier wake
  // Registry-side view (read by the parent out of the shared metrics
  // slots after the children exit): the same round trips as sampled above,
  // but recorded by the protocol hooks into the shm histograms.
  obs::SlotSnapshot server_slot;
  obs::SlotSnapshot client_slot;
  bool ok = false;
};

LatencyReport run_protocol(ProtocolKind kind, std::uint64_t messages,
                           bool pin, std::uint32_t window) {
  ShmChannel::Config cc;
  cc.max_clients = 1;
  cc.queue_capacity = 256;  // >= the largest reply window
  cc.create_sysv_queues = (kind == ProtocolKind::kSysv);
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cc));
  ShmChannel channel = ShmChannel::create(region, cc);

  // Only the child-sampled scalars cross the process boundary; the (large)
  // registry snapshots are read by the parent directly from the channel's
  // metrics slots after join.
  struct SharedOut {
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double max = 0;
    bool ok = false;
  };
  static_assert(sizeof(SharedOut) <= 4096);
  ShmRegion out_region = ShmRegion::create_anonymous(4096);
  auto* out = new (out_region.base()) SharedOut{};

  ChildProcess server = ChildProcess::spawn([&] {
    if (pin) pin_to_cpu(0);
    if (kind == ProtocolKind::kSysv) {
      SysvTransport t(channel);
      t.run_server(1);
      return 0;
    }
    NativePlatform plat;
    channel.bind_server_obs(plat);
    with_protocol<NativePlatform>(kind, 20, [&](auto proto) {
      auto reply_ep = [&](std::uint32_t id) -> NativeEndpoint& {
        return channel.client_endpoint(id);
      };
      run_echo_server(plat, proto, channel.server_endpoint(), reply_ep, 1);
    });
    return 0;
  });

  ChildProcess client = ChildProcess::spawn([&] {
    if (pin) pin_to_cpu(0);
    SampleSet samples(messages);
    std::uint64_t expected_samples = messages;
    if (kind == ProtocolKind::kSysv) {
      SysvTransport t(channel);
      t.client_connect(0);
      for (std::uint64_t i = 0; i < messages; ++i) {
        Stopwatch sw;
        t.client_echo_loop(0, 1);
        samples.add(sw.elapsed_us());
      }
      t.client_disconnect(0);
    } else {
      NativePlatform plat;
      channel.bind_client_obs(plat, 0);
      with_protocol<NativePlatform>(kind, 20, [&](auto proto) {
        NativeEndpoint& srv = channel.server_endpoint();
        NativeEndpoint& mine = channel.client_endpoint(0);
        client_connect(plat, proto, srv, mine, 0);
        if (window <= 1) {
          for (std::uint64_t i = 0; i < messages; ++i) {
            Message ans;
            Stopwatch sw;
            proto.send(plat, srv, mine,
                       Message(Op::kEcho, 0, static_cast<double>(i)), &ans);
            const std::int64_t ns = sw.elapsed_ns();
            samples.add(static_cast<double>(ns) / 1e3);
            // Mirror the sample into the registry histogram: this scalar
            // loop bypasses client_echo_loop (whose hooks would do it), so
            // the registry's round-trip series must be fed here for
            // ulipc-stat to agree with the sampled percentiles.
            plat.obs_round_trip(ns, 1);
          }
        } else {
          // One sample per window; report per-message time so the columns
          // stay comparable with the scalar mode.
          const std::uint64_t batches = messages / window;
          expected_samples = batches;
          for (std::uint64_t b = 0; b < batches; ++b) {
            Stopwatch sw;
            client_echo_loop_batched(plat, proto, srv, mine, 0, window,
                                     window);
            samples.add(sw.elapsed_us() / static_cast<double>(window));
          }
        }
        client_disconnect(plat, proto, srv, mine, 0);
      });
    }
    out->p50 = samples.percentile(50);
    out->p95 = samples.percentile(95);
    out->p99 = samples.percentile(99);
    out->max = samples.stats().max();
    out->ok = samples.size() == expected_samples;
    return 0;
  });

  const bool children_ok = client.join() == 0 && server.join() == 0;

  LatencyReport report;
  report.p50 = out->p50;
  report.p95 = out->p95;
  report.p99 = out->p99;
  report.max = out->max;
  report.ok = out->ok && children_ok;

  // Wake-up accounting now comes from the shared metrics registry instead
  // of ad-hoc per-child plumbing, so scalar and --batched runs report
  // through the identical path (the batched run's coalesced messages were
  // previously invisible here). SYSV never binds a slot: both stay 0.
  const obs::ObsHeader& oh = channel.obs();
  (void)oh.slot(0).read_snapshot(&report.server_slot);
  (void)oh.slot(1).read_snapshot(&report.client_slot);
  const auto& sc = report.server_slot.counters;
  const auto& cc2 = report.client_slot.counters;
  const auto m = static_cast<double>(messages);
  report.wakeups_per_msg = static_cast<double>(sc.wakeups + cc2.wakeups) / m;
  report.coalesced_per_msg =
      static_cast<double>(sc.wakeups_coalesced + cc2.wakeups_coalesced) / m;
  return report;
}

/// --registry-dump: one machine-parseable line per protocol with the
/// registry's own view of the run (record_bench.sh folds these into the
/// perf snapshot).
void dump_registry_line(ProtocolKind kind, std::uint64_t messages,
                        std::uint32_t window, const LatencyReport& r) {
  const auto& sc = r.server_slot.counters;
  const auto& cc = r.client_slot.counters;
  const auto& rt = r.client_slot.h(obs::HistKind::kRoundTripNs);
  const auto& slp = r.server_slot.h(obs::HistKind::kSleepNs);
  // Span-plane phase histograms: the serving side records queue residency,
  // service time, and the request-leg wake in flight; the client side
  // records the reply path and the reply-leg wake in flight.
  const auto& qres = r.server_slot.h(obs::HistKind::kQueueResidencyNs);
  const auto& svc = r.server_slot.h(obs::HistKind::kServiceNs);
  const auto& wreq = r.server_slot.h(obs::HistKind::kWakeInFlightNs);
  const auto& rply = r.client_slot.h(obs::HistKind::kReplyPathNs);
  const auto& wrep = r.client_slot.h(obs::HistKind::kWakeInFlightNs);
  std::printf(
      "[registry] {\"protocol\":\"%s\",\"messages\":%llu,\"window\":%u,"
      "\"wakeups\":%llu,\"wakeups_coalesced\":%llu,\"server_blocks\":%llu,"
      "\"client_blocks\":%llu,\"spin_fallthroughs\":%llu,"
      "\"rt_count\":%llu,\"rt_p50_ns\":%.0f,\"rt_p99_ns\":%.0f,"
      "\"sleep_p50_ns\":%.0f,"
      "\"span_samples\":%llu,\"span_qres_p50_ns\":%.0f,"
      "\"span_qres_p99_ns\":%.0f,\"span_service_p50_ns\":%.0f,"
      "\"span_service_p99_ns\":%.0f,\"span_reply_p50_ns\":%.0f,"
      "\"span_reply_p99_ns\":%.0f,\"span_wake_req_p50_ns\":%.0f,"
      "\"span_wake_rep_p50_ns\":%.0f}\n",
      protocol_name(kind), static_cast<unsigned long long>(messages), window,
      static_cast<unsigned long long>(sc.wakeups + cc.wakeups),
      static_cast<unsigned long long>(sc.wakeups_coalesced +
                                      cc.wakeups_coalesced),
      static_cast<unsigned long long>(sc.blocks),
      static_cast<unsigned long long>(cc.blocks),
      static_cast<unsigned long long>(sc.spin_fallthroughs +
                                      cc.spin_fallthroughs),
      static_cast<unsigned long long>(rt.count), rt.percentile(50),
      rt.percentile(99), slp.percentile(50),
      static_cast<unsigned long long>(qres.count), qres.percentile(50),
      qres.percentile(99), svc.percentile(50), svc.percentile(99),
      rply.percentile(50), rply.percentile(99), wreq.percentile(50),
      wrep.percentile(50));
}

/// --phases: the span plane's per-phase latency breakdown as a table row
/// set per protocol — where each protocol's round trip spends its time
/// (sampled spans, 1-in-2^ULIPC_SPAN_SHIFT of sends). SYSV never binds
/// obs slots, so its rows would be all-zero and are skipped.
void add_phase_rows(TextTable& table, ProtocolKind kind,
                    const LatencyReport& r) {
  const auto row = [&](const char* phase, const auto& h) {
    table.add_row({protocol_name(kind), phase,
                   std::to_string(static_cast<unsigned long long>(h.count)),
                   TextTable::num(h.percentile(50) / 1e3, 2),
                   TextTable::num(h.percentile(95) / 1e3, 2),
                   TextTable::num(h.percentile(99) / 1e3, 2)});
  };
  row("queue-residency", r.server_slot.h(obs::HistKind::kQueueResidencyNs));
  row("wake-in-flight(req)", r.server_slot.h(obs::HistKind::kWakeInFlightNs));
  row("service", r.server_slot.h(obs::HistKind::kServiceNs));
  row("wake-in-flight(rep)", r.client_slot.h(obs::HistKind::kWakeInFlightNs));
  row("reply-path", r.client_slot.h(obs::HistKind::kReplyPathNs));
}

// ---- --payload: bytes/s over the zero-copy payload plane ----
//
// Two modes per payload size, identical protocol work (Bsls, one client,
// per-message loan/publish/release through the channel's plane):
//   loan: the client produces the payload IN PLACE in the loaned slot and
//         the server consumes it in place — the zero-copy path;
//   copy: the client produces into a private buffer and memcpys it through
//         the slot; the server memcpys it out before consuming — the
//         copy-through-slot baseline every conventional IPC design pays.
// The delta is pure memcpy cost, so bytes/s separates with payload size.

struct PayloadReport {
  double p50 = 0;
  double p99 = 0;
  double elapsed_ms = 0;
  double bytes_per_s = 0;
  bool ok = false;
};

PayloadReport run_payload_point(std::uint32_t payload_bytes,
                                std::uint64_t messages, bool pin,
                                bool copy_mode) {
  ShmChannel::Config cc;
  cc.max_clients = 1;
  cc.queue_capacity = 256;
  cc.payload_max_bytes = 1u << 20;
  cc.payload_slots_per_class = 4;
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cc));
  ShmChannel channel = ShmChannel::create(region, cc);

  struct SharedOut {
    double p50 = 0;
    double p99 = 0;
    double elapsed_ms = 0;
    bool ok = false;
  };
  static_assert(sizeof(SharedOut) <= 4096);
  ShmRegion out_region = ShmRegion::create_anonymous(4096);
  auto* out = new (out_region.base()) SharedOut{};

  ChildProcess server = ChildProcess::spawn([&] {
    if (pin) pin_to_cpu(0);
    NativePlatform plat;
    channel.bind_server_obs(plat);
    Bsls<NativePlatform> proto(20);
    PayloadPool* plane = channel.payload_plane();
    NativeEndpoint& srv = channel.server_endpoint();
    std::vector<char> staging(payload_bytes > 0 ? payload_bytes : 1);
    std::uint64_t checksum = 0;
    for (;;) {
      Message msg;
      proto.receive(plat, srv, &msg);
      if (msg.opcode == Op::kEcho &&
          msg.ext_offset != PayloadPool::kNoPayload) {
        const std::string_view view = plane->read(msg.ext_offset);
        const char* data = view.data();
        if (copy_mode) {
          // Copy-through baseline: lift the payload out of the shared slot
          // before consuming it.
          std::memcpy(staging.data(), data, view.size());
          data = staging.data();
        }
        for (std::size_t i = 0; i < view.size(); i += 64) {
          checksum += static_cast<unsigned char>(data[i]);
        }
      }
      proto.reply(plat, channel.client_endpoint(msg.channel), msg);
      if (msg.opcode == Op::kDisconnect) break;
    }
    return checksum == 1 ? 1 : 0;  // keep the consume loop observable
  });

  ChildProcess client = ChildProcess::spawn([&] {
    if (pin) pin_to_cpu(0);
    NativePlatform plat;
    channel.bind_client_obs(plat, 0);
    Bsls<NativePlatform> proto(20);
    PayloadPool* plane = channel.payload_plane();
    NativeEndpoint& srv = channel.server_endpoint();
    NativeEndpoint& mine = channel.client_endpoint(0);
    client_connect(plat, proto, srv, mine, 0);
    SampleSet samples(messages);
    std::vector<char> staging(payload_bytes > 0 ? payload_bytes : 1);
    bool all_ok = true;
    Stopwatch total;
    for (std::uint64_t i = 0; i < messages && all_ok; ++i) {
      Stopwatch sw;
      const std::uint64_t token = plane->loan(payload_bytes);
      if (token == PayloadPool::kNoPayload) {
        all_ok = false;
        break;
      }
      const std::int64_t lt0 = obs::loan_made(plat);
      const auto fill = static_cast<int>('a' + i % 26);
      if (copy_mode) {
        // Produce privately, then pay the copy into the slot.
        std::memset(staging.data(), fill, payload_bytes);
        std::memcpy(plane->data(token), staging.data(), payload_bytes);
      } else {
        // Zero-copy: produce straight into the loaned slot.
        std::memset(plane->data(token), fill, payload_bytes);
      }
      plane->publish(token, payload_bytes);
      Message ans;
      proto.send(plat, srv, mine,
                 Message(Op::kEcho, 0, static_cast<double>(i), token), &ans);
      all_ok &= ans.ext_offset == token &&
                ans.value == static_cast<double>(i);
      plane->release(ans.ext_offset);
      obs::loan_released(plat, lt0);
      samples.add(sw.elapsed_us());
    }
    out->elapsed_ms = static_cast<double>(total.elapsed_ns()) / 1e6;
    client_disconnect(plat, proto, srv, mine, 0);
    out->p50 = samples.percentile(50);
    out->p99 = samples.percentile(99);
    out->ok = all_ok && samples.size() == messages;
    return 0;
  });

  const bool children_ok = client.join() == 0 && server.join() == 0;
  PayloadReport r;
  r.p50 = out->p50;
  r.p99 = out->p99;
  r.elapsed_ms = out->elapsed_ms;
  r.ok = out->ok && children_ok;
  if (r.elapsed_ms > 0) {
    r.bytes_per_s = static_cast<double>(payload_bytes) *
                    static_cast<double>(messages) / (r.elapsed_ms / 1e3);
  }
  return r;
}

int run_payload_bench(const std::string& payload_arg, std::uint64_t messages,
                      bool pin) {
  std::vector<std::uint32_t> sizes;
  if (payload_arg == "sweep") {
    for (std::uint32_t b = 64; b <= (1u << 20); b <<= 2) sizes.push_back(b);
    if (sizes.back() != (1u << 20)) sizes.push_back(1u << 20);
  } else {
    sizes.push_back(static_cast<std::uint32_t>(std::stoul(payload_arg)));
  }

  std::cout << "Payload plane bytes/s: loaned (in-place) vs copy-through "
               "(one client, Bsls"
            << (pin ? ", pinned" : "") << ")\n\n";
  TextTable table({"bytes", "mode", "msgs", "p50 us", "p99 us", "MB/s"});
  int failed = 0;
  for (const std::uint32_t bytes : sizes) {
    // Keep the per-size byte volume roughly level so the 1 MiB points do
    // not dominate wall clock: full message count up to 4 KiB, scaled
    // down (floor 64) above it.
    const std::uint64_t msgs = std::max<std::uint64_t>(
        bytes <= 4096 ? messages : messages * 4096 / bytes, 64);
    double loan_bps = 0.0;
    for (const bool copy_mode : {false, true}) {
      const PayloadReport r = run_payload_point(bytes, msgs, pin, copy_mode);
      const char* mode = copy_mode ? "copy" : "loan";
      if (!r.ok) {
        std::cout << "[shape MISMATCH] payload " << bytes << " " << mode
                  << " run failed\n";
        ++failed;
        continue;
      }
      if (!copy_mode) loan_bps = r.bytes_per_s;
      table.add_row({std::to_string(bytes), mode, std::to_string(msgs),
                     TextTable::num(r.p50, 2), TextTable::num(r.p99, 2),
                     TextTable::num(r.bytes_per_s / 1e6, 1)});
      std::printf(
          "[payload] {\"bytes\":%u,\"mode\":\"%s\",\"msgs\":%llu,"
          "\"elapsed_ms\":%.3f,\"p50_us\":%.3f,\"p99_us\":%.3f,"
          "\"bytes_per_s\":%.0f}\n",
          bytes, mode, static_cast<unsigned long long>(msgs), r.elapsed_ms,
          r.p50, r.p99, r.bytes_per_s);
      if (copy_mode && bytes >= 4096) {
        // The acceptance shape: at >= 4 KiB the zero-copy path should win
        // on bytes/s. Reported, not failed — perf ordering on a loaded
        // 1-CPU CI box is informative, not a correctness gate.
        std::cout << (loan_bps >= r.bytes_per_s ? "[shape OK]       "
                                                : "[shape MISMATCH] ")
                  << "loan >= copy at " << bytes << " B\n";
      }
    }
  }
  table.render(std::cout);
  return failed;
}

// ---- --fanin: one waitset worker serving N single-client channels ----
//
// The readiness-plane axis: 1 worker process parks one WaitSet
// (runtime/waitset.hpp) across N channels; N client processes each drive a
// synchronous echo loop on their own channel. Client 0 is the latency
// probe (per-round-trip samples); the rest are pure load. The [fanin] JSON
// line carries aggregate throughput (msgs/ms and message-header bytes/s),
// the wake-syscall rate, and the waitset's own counters (doorbell arms,
// spurious ungates) read from the shared metrics registry.

int run_fanin_bench(std::uint32_t channels, std::uint64_t messages,
                    bool pin) {
  if (channels == 0) {
    std::cerr << "--fanin needs at least one channel\n";
    return 1;
  }
  ShmChannel::Config cc;
  cc.max_clients = 1;
  cc.queue_capacity = 256;
  cc.payload_max_bytes = 0;
  std::vector<ShmRegion> regions;
  std::vector<ShmChannel> chans;
  regions.reserve(channels);
  chans.reserve(channels);
  for (std::uint32_t c = 0; c < channels; ++c) {
    regions.push_back(
        ShmRegion::create_anonymous(ShmChannel::required_bytes(cc)));
    chans.push_back(ShmChannel::create(regions.back(), cc));
  }

  struct SharedOut {
    double p50 = 0;
    double p99 = 0;
    double max = 0;
    double elapsed_ms = 0;
    std::atomic<std::uint64_t> verified{0};
    bool probe_ok = false;
  };
  static_assert(sizeof(SharedOut) <= 4096);
  ShmRegion out_region = ShmRegion::create_anonymous(4096);
  auto* out = new (out_region.base()) SharedOut{};

  ChildProcess server = ChildProcess::spawn([&] {
    if (pin) pin_to_cpu(0);
    NativePlatform plat;
    chans[0].bind_server_obs(plat);  // waitset counters -> channel 0's slot
    std::vector<ShmChannel*> ptrs;
    ptrs.reserve(channels);
    for (ShmChannel& ch : chans) ptrs.push_back(&ch);
    FaninOptions fo;
    fo.liveness_timeout_ns = 20'000'000'000;
    const FaninResult fr = run_waitset_fanin_server(plat, ptrs, channels, fo);
    return fr.gave_up || fr.disconnected != channels ? 1 : 0;
  });

  std::vector<ChildProcess> clients;
  clients.reserve(channels);
  Stopwatch total;
  for (std::uint32_t c = 0; c < channels; ++c) {
    clients.push_back(ChildProcess::spawn([&, c] {
      if (pin) pin_to_cpu(0);
      NativePlatform plat;
      chans[c].bind_client_obs(plat, 0);
      Bsw<NativePlatform> proto;
      NativeEndpoint& srv = chans[c].server_endpoint();
      NativeEndpoint& mine = chans[c].client_endpoint(0);
      client_connect(plat, proto, srv, mine, 0);
      std::uint64_t v = 0;
      if (c == 0) {
        // The probe client: per-round-trip latency samples.
        SampleSet samples(messages);
        Stopwatch run;
        for (std::uint64_t i = 0; i < messages; ++i) {
          Message ans;
          Stopwatch sw;
          proto.send(plat, srv, mine,
                     Message(Op::kEcho, 0, static_cast<double>(i)), &ans);
          const std::int64_t ns = sw.elapsed_ns();
          samples.add(static_cast<double>(ns) / 1e3);
          plat.obs_round_trip(ns, 1);
          if (ans.value == static_cast<double>(i)) ++v;
        }
        out->elapsed_ms = static_cast<double>(run.elapsed_ns()) / 1e6;
        out->p50 = samples.percentile(50);
        out->p99 = samples.percentile(99);
        out->max = samples.stats().max();
        out->probe_ok = samples.size() == messages;
      } else {
        v = client_echo_loop(plat, proto, srv, mine, 0, messages);
      }
      out->verified.fetch_add(v, std::memory_order_relaxed);
      client_disconnect(plat, proto, srv, mine, 0);
      return v == messages ? 0 : 1;
    }));
  }

  bool children_ok = true;
  for (ChildProcess& c : clients) children_ok &= c.join() == 0;
  const double elapsed_ms = static_cast<double>(total.elapsed_ns()) / 1e6;
  children_ok &= server.join() == 0;

  // Aggregate wake accounting across every channel's registry, plus the
  // waitset's own counters from channel 0's server slot.
  std::uint64_t wakeups = 0;
  obs::SlotSnapshot snap;
  for (std::uint32_t c = 0; c < channels; ++c) {
    for (const std::uint32_t slot : {0u, 1u}) {
      if (chans[c].obs().slot(slot).read_snapshot(&snap)) {
        wakeups += snap.counters.wakeups;
      }
    }
  }
  obs::SlotSnapshot server_slot;
  const bool have_server_slot =
      chans[0].obs().slot(0).read_snapshot(&server_slot);
  const std::uint64_t arms =
      have_server_slot ? server_slot.counters.doorbell_arms : 0;
  const std::uint64_t spurious =
      have_server_slot ? server_slot.counters.spurious_ungates : 0;

  const std::uint64_t verified =
      out->verified.load(std::memory_order_acquire);
  const std::uint64_t expected =
      static_cast<std::uint64_t>(channels) * messages;
  const double m = static_cast<double>(expected);
  const double wk_per_msg = static_cast<double>(wakeups) / m;
  // Header bytes only (no payload plane): request + reply per round trip.
  const double bytes =
      static_cast<double>(verified) * 2.0 * sizeof(Message);
  const double msgs_per_ms =
      elapsed_ms > 0 ? static_cast<double>(verified) / elapsed_ms : 0.0;
  const double bytes_per_s =
      elapsed_ms > 0 ? bytes / (elapsed_ms / 1e3) : 0.0;

  const WaitSetBackend backend =
      WaitSet::resolve_backend(WaitSetBackend::kAuto);
  std::cout << "Fan-in over the readiness plane: 1 waitset worker ("
            << waitset_backend_name(backend) << "), " << channels
            << " channels x " << messages << " msgs"
            << (pin ? ", pinned" : "") << "\n\n";
  TextTable table({"channels", "msgs", "p50 us", "p99 us", "wk/msg",
                   "msgs/ms", "MB/s"});
  table.add_row({std::to_string(channels), std::to_string(expected),
                 TextTable::num(out->p50, 2), TextTable::num(out->p99, 2),
                 TextTable::num(wk_per_msg, 3),
                 TextTable::num(msgs_per_ms, 1),
                 TextTable::num(bytes_per_s / 1e6, 2)});
  table.render(std::cout);
  std::printf(
      "[fanin] {\"channels\":%u,\"messages\":%llu,\"verified\":%llu,"
      "\"backend\":\"%s\",\"elapsed_ms\":%.3f,\"msgs_per_ms\":%.2f,"
      "\"bytes_per_s\":%.0f,\"wk_per_msg\":%.3f,\"doorbell_arms\":%llu,"
      "\"spurious_ungates\":%llu,\"p50_us\":%.3f,\"p99_us\":%.3f}\n",
      channels, static_cast<unsigned long long>(expected),
      static_cast<unsigned long long>(verified),
      waitset_backend_name(backend), elapsed_ms, msgs_per_ms, bytes_per_s,
      wk_per_msg, static_cast<unsigned long long>(arms),
      static_cast<unsigned long long>(spurious), out->p50, out->p99);

  const bool ok = children_ok && out->probe_ok && verified == expected;
  std::cout << (ok ? "[shape OK]       " : "[shape MISMATCH] ")
            << "all " << expected << " fan-in round trips verified\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::uint64_t messages = args.messages(20'000);
  const bool pin = args.has_flag("pinned");
  const bool batched = args.has_flag("batched");
  const bool registry_dump = args.has_flag("registry-dump");
  const bool phases = args.has_flag("phases");
  // --payload=N|sweep selects the payload-plane bytes/s axis instead of
  // the per-protocol latency table.
  if (const auto payload = args.value("payload"); payload.has_value()) {
    return run_payload_bench(*payload, messages, pin);
  }
  // --fanin=N selects the readiness-plane axis: one waitset worker, N
  // channels. Messages default lower than the scalar mode — the volume is
  // per client and N clients multiply it.
  if (const auto fanin = args.value("fanin"); fanin.has_value()) {
    return run_fanin_bench(
        static_cast<std::uint32_t>(std::stoul(*fanin)),
        static_cast<std::uint64_t>(args.value_or("messages",
                                                 std::int64_t{200})),
        pin);
  }
  const std::uint32_t window =
      batched
          ? static_cast<std::uint32_t>(args.value_or("window", std::int64_t{16}))
          : 1;

  std::cout << "Round-trip latency percentiles per protocol (native, one "
               "client"
            << (pin ? ", pinned" : "")
            << (batched ? ", batched window=" + std::to_string(window) : "")
            << ", us)\n\n";

  TextTable table(
      {"protocol", "p50", "p95", "p99", "max", "wk/msg", "coal/msg"});
  TextTable phase_table(
      {"protocol", "phase", "samples", "p50 us", "p95 us", "p99 us"});
  int failed = 0;
  double bss_p50 = 0.0;
  double bsw_p50 = 0.0;
  for (const ProtocolKind kind :
       {ProtocolKind::kBss, ProtocolKind::kBsls, ProtocolKind::kBslsFixed,
        ProtocolKind::kBswy, ProtocolKind::kBsw, ProtocolKind::kSysv}) {
    const LatencyReport r = run_protocol(kind, messages, pin, window);
    if (!r.ok) {
      std::cout << "[shape MISMATCH] " << protocol_name(kind)
                << " run failed\n";
      ++failed;
      continue;
    }
    if (kind == ProtocolKind::kBss) bss_p50 = r.p50;
    if (kind == ProtocolKind::kBsw) bsw_p50 = r.p50;
    table.add_row({protocol_name(kind), TextTable::num(r.p50, 3),
                   TextTable::num(r.p95, 2), TextTable::num(r.p99, 2),
                   TextTable::num(r.max, 1),
                   TextTable::num(r.wakeups_per_msg, 3),
                   TextTable::num(r.coalesced_per_msg, 3)});
    if (registry_dump) dump_registry_line(kind, messages, window, r);
    if (phases && kind != ProtocolKind::kSysv) add_phase_rows(phase_table, kind, r);
  }
  table.render(std::cout);
  if (phases) {
    std::cout << "\nSpan phase breakdown (sampled spans, "
                 "1-in-2^ULIPC_SPAN_SHIFT of sends)\n\n";
    phase_table.render(std::cout);
  }

  const bool ordering = bss_p50 > 0.0 && bss_p50 <= bsw_p50 * 1.5;
  std::cout << (ordering ? "[shape OK]       " : "[shape MISMATCH] ")
            << "spinning median latency <= ~blocking median latency\n";
  if (!ordering) ++failed;
  return failed;
}
