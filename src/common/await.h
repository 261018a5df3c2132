// Await: the one blocking adapter over callback-completing operations.
// `start` receives a completion callback and must invoke it exactly once,
// on any thread; Await blocks the calling thread until then and returns the
// delivered value. The latch is shared-owned, so a completion that runs
// late never touches a dead stack frame. Never call it from a thread the
// operation itself needs in order to complete (e.g. a reactor draining the
// shards the operation posts into).
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace zht {

template <typename T, typename Start>
T Await(Start&& start) {
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<T> value;
  };
  auto latch = std::make_shared<Latch>();
  std::forward<Start>(start)([latch](T value) {
    std::lock_guard<std::mutex> lock(latch->mu);
    latch->value.emplace(std::move(value));
    latch->cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->cv.wait(lock, [&] { return latch->value.has_value(); });
  return std::move(*latch->value);
}

}  // namespace zht
