// Stub: TwoLockQueue is the only queue. This header exists only for the run
// header perfbench prints, which names an engine per endpoint topology; it
// selects nothing and reads no environment.
#pragma once

#include <cstdint>

namespace ulipc {

enum class QueueEngine : std::uint8_t { kTwoLock = 0 };

constexpr const char* queue_engine_name(QueueEngine) noexcept {
  return "twolock";
}

struct QueueEnginePolicy {
  QueueEngine server = QueueEngine::kTwoLock;
  QueueEngine reply = QueueEngine::kTwoLock;
  QueueEngine shard = QueueEngine::kTwoLock;

  static QueueEnginePolicy from_env() noexcept { return {}; }
};

}  // namespace ulipc
