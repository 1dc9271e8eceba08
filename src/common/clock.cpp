#include "common/clock.hpp"

#include <algorithm>
#include <chrono>

#include "common/timer.hpp"

namespace autogemm::common {

namespace {

class SteadyClock final : public Clock {
 public:
  std::uint64_t now_ns() const override { return common::now_ns(); }
  std::cv_status wait_until(std::condition_variable& cv,
                            std::unique_lock<std::mutex>& lock,
                            std::uint64_t deadline_ns) override {
    // now_ns() is MonotonicClock time since its epoch in nanoseconds, so
    // the deadline converts losslessly to a MonotonicClock time_point.
    return cv.wait_until(
        lock, MonotonicClock::time_point(std::chrono::nanoseconds(deadline_ns)));
  }
};

}  // namespace

void Clock::sleep_for(std::uint64_t ns) {
  std::mutex mu;
  std::condition_variable cv;  // never notified: only the deadline ends it
  std::unique_lock<std::mutex> lock(mu);
  const std::uint64_t deadline = now_ns() + ns;
  while (wait_until(cv, lock, deadline) != std::cv_status::timeout) {
  }
}

Clock& steady_clock() {
  static SteadyClock clock;
  return clock;
}

std::cv_status ManualClock::wait_until(std::condition_variable& cv,
                                       std::unique_lock<std::mutex>& lock,
                                       std::uint64_t deadline_ns) {
  const Waiter self{&cv, deadline_ns};
  {
    std::lock_guard guard(mu_);
    if (now_ns() >= deadline_ns) return std::cv_status::timeout;
    waiters_.push_back(&self);
  }
  cv.wait(lock);
  std::lock_guard guard(mu_);
  waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &self));
  left_.notify_all();
  return now_ns() >= deadline_ns ? std::cv_status::timeout
                                 : std::cv_status::no_timeout;
}

void ManualClock::advance(std::uint64_t ns) {
  std::unique_lock<std::mutex> lock(mu_);
  now_.store(now_ns() + ns, std::memory_order_release);
  const auto due = [this](const Waiter* w) {
    return w->deadline_ns <= now_ns();
  };
  while (std::any_of(waiters_.begin(), waiters_.end(), due)) {
    for (const Waiter* w : waiters_)
      if (due(w)) w->cv->notify_all();
    // Each leaving waiter signals left_. The timeout re-notifies a waiter
    // that registered but had not yet blocked on its cv when notified, so
    // no wakeup is lost.
    left_.wait_for(lock, std::chrono::microseconds(100));
  }
}

}  // namespace autogemm::common
