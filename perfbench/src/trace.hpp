// Tracing for the benchmark's traced run: a span recorder, a platform that
// times every Platform-concept call the protocols make into the queue, shm
// and runtime layers, and a protocol wrapper that times the protocol calls
// themselves.
//
// Spans are recorded for every request, so every request pays the same
// tracing cost; only the spans of sampled requests are kept. A request is
// sampled by its echo value, which both sides see, so the generator and the
// echo server keep the spans of the same requests and those spans share the
// value as their identifier. Counts are exact: every call is counted,
// sampled or not.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/clock.hpp"
#include "protocols/bsls.hpp"
#include "runtime/native_platform.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kRequest, kProtocols, kQueue, kShm, kRuntime };
inline constexpr int kLayers = 5;
inline constexpr const char* kLayerNames[kLayers] = {"request", "protocols",
                                                     "queue", "shm", "runtime"};

// clang-format off
#define PERFBENCH_SPAN_KINDS(X)                                   \
  X(kRequest, Layer::kRequest, "request")                        \
  X(kSend, Layer::kProtocols, "send")                            \
  X(kSendBatch, Layer::kProtocols, "send_batch")                 \
  X(kReceiveBatch, Layer::kProtocols, "receive_batch")           \
  X(kReplyBatch, Layer::kProtocols, "reply_batch")               \
  X(kEnqueue, Layer::kQueue, "enqueue")                          \
  X(kDequeue, Layer::kQueue, "dequeue")                          \
  X(kEnqueueBatch, Layer::kQueue, "enqueue_batch")               \
  X(kDequeueBatch, Layer::kQueue, "dequeue_batch")               \
  X(kQueueEmpty, Layer::kQueue, "queue_empty")                   \
  X(kTasAwake, Layer::kShm, "tas_awake")                         \
  X(kClearAwake, Layer::kShm, "clear_awake")                     \
  X(kSetAwake, Layer::kShm, "set_awake")                         \
  X(kSemP, Layer::kShm, "sem_p")                                 \
  X(kSemV, Layer::kShm, "sem_v")                                 \
  X(kYield, Layer::kRuntime, "yield")                            \
  X(kBusyWait, Layer::kRuntime, "busy_wait")                     \
  X(kPollQueue, Layer::kRuntime, "poll_queue")
// clang-format on

enum class Kind : std::uint8_t {
#define PERFBENCH_KIND_ENUM(k, layer, name) k,
  PERFBENCH_SPAN_KINDS(PERFBENCH_KIND_ENUM)
#undef PERFBENCH_KIND_ENUM
};
inline constexpr Layer kKindLayer[] = {
#define PERFBENCH_KIND_LAYER(k, layer, name) layer,
    PERFBENCH_SPAN_KINDS(PERFBENCH_KIND_LAYER)
#undef PERFBENCH_KIND_LAYER
};
inline constexpr const char* kKindNames[] = {
#define PERFBENCH_KIND_NAME(k, layer, name) name,
    PERFBENCH_SPAN_KINDS(PERFBENCH_KIND_NAME)
#undef PERFBENCH_KIND_NAME
};
inline constexpr int kKinds = sizeof(kKindNames) / sizeof(kKindNames[0]);

inline Layer layer_of(Kind k) { return kKindLayer[static_cast<int>(k)]; }
inline bool is_queue_call(Kind k) {
  return k == Kind::kEnqueue || k == Kind::kDequeue ||
         k == Kind::kEnqueueBatch || k == Kind::kDequeueBatch;
}

/// True iff the request with this echo value is one of the 1 in `every`
/// whose spans are kept. Value 0 is the connect/disconnect handshake and is
/// never kept.
inline bool sampled(double value, std::uint64_t every) {
  const auto v = static_cast<std::uint64_t>(value);
  return v != 0 && v % every == 0;
}

/// One closed span. Times are TSC ticks; `parent` indexes the same kept
/// array (-1 for a group's root). 32 bytes, so a server process can keep
/// its spans in a shared mapping its parent reads after it exits.
struct SpanRec {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  double tag = 0.0;
  std::int32_t parent = -1;
  Kind kind = Kind::kRequest;
};
static_assert(sizeof(SpanRec) == 32);

/// Exact call counts at the same boundaries the spans cover.
struct CallCounts {
  std::uint64_t calls[kKinds] = {};
  std::uint64_t dequeues = 0;        // dequeue + dequeue_batch calls
  std::uint64_t dequeues_empty = 0;  // ... that moved nothing
  std::uint64_t after_nonempty = 0;  // dequeues right after queue_empty()
                                     // said non-empty on that endpoint
  std::uint64_t false_nonempty = 0;  // ... that moved nothing
  std::uint64_t batch_calls = 0;     // batched queue calls that moved >= 1
  std::uint64_t batch_msgs = 0;      // messages those calls moved

  CallCounts& operator+=(const CallCounts& o) {
    for (int k = 0; k < kKinds; ++k) calls[k] += o.calls[k];
    dequeues += o.dequeues;
    dequeues_empty += o.dequeues_empty;
    after_nonempty += o.after_nonempty;
    false_nonempty += o.false_nonempty;
    batch_calls += o.batch_calls;
    batch_msgs += o.batch_msgs;
    return *this;
  }
};

/// Per-thread span recorder. Spans of the current group (one top-level
/// span and everything inside it) collect in `pending_`; when the group's
/// root closes, the group is copied into the kept array if its tag is
/// sampled and there is room, and dropped otherwise.
class Recorder {
 public:
  /// `kept` holds up to `capacity` spans; it may live in shared memory.
  /// Groups are kept for 1 request in `sample_every`.
  Recorder(SpanRec* kept, std::size_t capacity, std::uint64_t sample_every)
      : kept_(kept), capacity_(capacity), sample_every_(sample_every) {
    pending_.reserve(1024);
  }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  std::int32_t begin(Kind k) {
    const auto idx = static_cast<std::int32_t>(pending_.size());
    SpanRec s;
    s.kind = k;
    s.parent = depth_ > 0 ? open_[std::min(depth_, kMaxDepth) - 1] : -1;
    if (depth_ < kMaxDepth) open_[depth_] = idx;
    ++depth_;
    ++counts.calls[static_cast<int>(k)];
    s.t0 = static_cast<std::int64_t>(ulipc::TscClock::now());
    pending_.push_back(s);
    return idx;
  }

  void end(std::int32_t idx) {
    pending_[static_cast<std::size_t>(idx)].t1 =
        static_cast<std::int64_t>(ulipc::TscClock::now());
    --depth_;
    if (depth_ == 0) {
      if (defer_) {
        defer_ = false;
      } else {
        close_group();
      }
    }
  }

  /// Names the current group (the request's echo value).
  void tag(double value) { tag_ = value; }

  /// Keeps the current group open past the close of its root, so the next
  /// root joins it. The echo server uses this to keep a request's receive
  /// and reply in one group, which moves the copy into the kept array off
  /// the request's critical path (after the reply is out).
  void defer_commit() { defer_ = true; }

  /// Drops everything kept and counted so far (the generator calls this
  /// when its timed interval starts).
  void reset() {
    kept_n_ = 0;
    counts = CallCounts{};
  }

  [[nodiscard]] std::size_t kept() const { return kept_n_; }
  [[nodiscard]] const SpanRec* spans() const { return kept_; }

  CallCounts counts;

 private:
  static constexpr int kMaxDepth = 16;

  void close_group() {
    if (sampled(tag_, sample_every_) && kept_n_ + pending_.size() <= capacity_) {
      const auto base = static_cast<std::int32_t>(kept_n_);
      for (SpanRec s : pending_) {
        s.tag = tag_;
        if (s.parent >= 0) s.parent += base;
        kept_[kept_n_++] = s;
      }
    }
    pending_.clear();
    tag_ = 0.0;
  }

  SpanRec* kept_;
  std::size_t capacity_;
  std::uint64_t sample_every_;
  std::size_t kept_n_ = 0;
  std::vector<SpanRec> pending_;
  std::int32_t open_[kMaxDepth] = {};
  int depth_ = 0;
  double tag_ = 0.0;
  bool defer_ = false;
};

/// Opens a span for the enclosing scope.
class Scope {
 public:
  Scope(Recorder& r, Kind k) : r_(r), idx_(r.begin(k)) {}
  ~Scope() { r_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& r_;
  std::int32_t idx_;
};

/// NativePlatform with a span and a count around every Platform-concept
/// call into the queue, shm and runtime layers. The protocols are
/// templates over the platform type, so Bsls<TracedPlatform> calls these
/// re-declared members; everything else is inherited unchanged.
class TracedPlatform : public ulipc::NativePlatform {
 public:
  TracedPlatform(const Config& cfg, Recorder& rec)
      : NativePlatform(cfg), rec_(&rec) {}

  [[nodiscard]] Recorder& rec() noexcept { return *rec_; }

  bool enqueue(Endpoint& ep, const ulipc::Message& m) noexcept {
    Scope s(*rec_, Kind::kEnqueue);
    nonempty_ep_ = nullptr;
    return NativePlatform::enqueue(ep, m);
  }
  bool dequeue(Endpoint& ep, ulipc::Message* out) noexcept {
    Scope s(*rec_, Kind::kDequeue);
    const bool ok = NativePlatform::dequeue(ep, out);
    note_dequeue(ep, ok ? 1 : 0, /*batched=*/false);
    return ok;
  }
  bool queue_empty(Endpoint& ep) noexcept {
    Scope s(*rec_, Kind::kQueueEmpty);
    const bool empty = NativePlatform::queue_empty(ep);
    nonempty_ep_ = empty ? nullptr : &ep;
    return empty;
  }
  std::uint32_t enqueue_batch(Endpoint& ep, const ulipc::Message* msgs,
                              std::uint32_t n) noexcept {
    Scope s(*rec_, Kind::kEnqueueBatch);
    nonempty_ep_ = nullptr;
    const std::uint32_t done = NativePlatform::enqueue_batch(ep, msgs, n);
    if (done > 0) {
      ++rec_->counts.batch_calls;
      rec_->counts.batch_msgs += done;
    }
    return done;
  }
  std::uint32_t dequeue_batch(Endpoint& ep, ulipc::Message* out,
                              std::uint32_t max) noexcept {
    Scope s(*rec_, Kind::kDequeueBatch);
    const std::uint32_t got = NativePlatform::dequeue_batch(ep, out, max);
    note_dequeue(ep, got, /*batched=*/true);
    return got;
  }

  bool tas_awake(Endpoint& ep) noexcept {
    Scope s(*rec_, Kind::kTasAwake);
    return NativePlatform::tas_awake(ep);
  }
  void clear_awake(Endpoint& ep) noexcept {
    Scope s(*rec_, Kind::kClearAwake);
    NativePlatform::clear_awake(ep);
  }
  void set_awake(Endpoint& ep) noexcept {
    Scope s(*rec_, Kind::kSetAwake);
    NativePlatform::set_awake(ep);
  }
  void sem_p(Endpoint& ep) {
    Scope s(*rec_, Kind::kSemP);
    NativePlatform::sem_p(ep);
  }
  bool sem_p_until(Endpoint& ep, std::int64_t deadline_ns) {
    Scope s(*rec_, Kind::kSemP);
    return NativePlatform::sem_p_until(ep, deadline_ns);
  }
  void sem_v(Endpoint& ep) {
    Scope s(*rec_, Kind::kSemV);
    NativePlatform::sem_v(ep);
  }

  void yield() noexcept {
    Scope s(*rec_, Kind::kYield);
    NativePlatform::yield();
  }
  void busy_wait(Endpoint& ep) noexcept {
    Scope s(*rec_, Kind::kBusyWait);
    NativePlatform::busy_wait(ep);
  }
  void poll_queue(Endpoint& ep) noexcept {
    Scope s(*rec_, Kind::kPollQueue);
    NativePlatform::poll_queue(ep);
  }

 private:
  void note_dequeue(Endpoint& ep, std::uint32_t got, bool batched) noexcept {
    CallCounts& c = rec_->counts;
    ++c.dequeues;
    if (got == 0) ++c.dequeues_empty;
    if (nonempty_ep_ == &ep) {
      ++c.after_nonempty;
      if (got == 0) ++c.false_nonempty;
    }
    nonempty_ep_ = nullptr;
    if (batched && got > 0) {
      ++c.batch_calls;
      c.batch_msgs += got;
    }
  }

  Recorder* rec_;
  const Endpoint* nonempty_ep_ = nullptr;  // last queue_empty() said "no"
};

static_assert(ulipc::Platform<TracedPlatform>);

/// Bsls over the traced platform, with a protocols-layer span around each
/// call. Exposes the scalar send the generator uses, the batched send the
/// pool generator uses, and the batched receive/reply pair that makes
/// run_echo_server take its batched loop, as it does for plain Bsls.
class TracedBsls {
 public:
  using Endpoint = ulipc::NativeEndpoint;

  explicit TracedBsls(std::uint32_t max_spin) : inner_(max_spin) {}

  void send(TracedPlatform& p, Endpoint& srv, Endpoint& clnt,
            const ulipc::Message& msg, ulipc::Message* ans) {
    Scope s(p.rec(), Kind::kSend);
    inner_.send(p, srv, clnt, msg, ans);
  }
  void send_batch(TracedPlatform& p, Endpoint& srv, Endpoint& clnt,
                  const ulipc::Message* msgs, std::uint32_t n,
                  ulipc::Message* answers) {
    Scope s(p.rec(), Kind::kSendBatch);
    inner_.send_batch(p, srv, clnt, msgs, n, answers);
  }
  std::uint32_t receive_batch(TracedPlatform& p, Endpoint& srv,
                              ulipc::Message* out, std::uint32_t max) {
    Scope s(p.rec(), Kind::kReceiveBatch);
    const std::uint32_t got = inner_.receive_batch(p, srv, out, max);
    p.rec().tag(out[0].value);
    p.rec().defer_commit();  // the reply_batch that follows closes the group
    return got;
  }
  void reply_batch(TracedPlatform& p, Endpoint& clnt,
                   const ulipc::Message* msgs, std::uint32_t n) {
    p.rec().tag(msgs[0].value);
    Scope s(p.rec(), Kind::kReplyBatch);
    inner_.reply_batch(p, clnt, msgs, n);
  }

 private:
  ulipc::Bsls<TracedPlatform> inner_;
};

}  // namespace perfbench
