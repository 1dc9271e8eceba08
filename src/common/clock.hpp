// An injectable clock: one source of timestamps and timed waits.
//
// Components whose behaviour depends on elapsed time (the serve engine's
// heartbeats, breaker cooldowns, batch windows, deadlines, backoffs) take
// a Clock instead of reading the wall clock themselves, so a test or the
// chaos harness can drive their time by hand:
//
//   * steady_clock() reads the same timebase as common::now_ns(), so
//     absolute deadlines computed from now_ns() mean the same thing on it;
//   * ManualClock's time moves only when advance() is called, and a timed
//     wait on it returns only when notified or once an advance() moves the
//     time past its deadline — never because wall time passed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace autogemm::common {

class Clock {
 public:
  Clock() = default;
  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;
  virtual ~Clock() = default;

  /// Nanoseconds on this clock's timebase.
  virtual std::uint64_t now_ns() const = 0;

  /// std::condition_variable::wait_until on this clock: blocks on `cv`
  /// (`lock` held on entry and exit) until it is notified or spuriously
  /// woken (no_timeout), or until now_ns() >= deadline_ns (timeout).
  virtual std::cv_status wait_until(std::condition_variable& cv,
                                    std::unique_lock<std::mutex>& lock,
                                    std::uint64_t deadline_ns) = 0;

  /// Predicate form: waits until pred() holds (true) or the deadline
  /// passes with pred() still false (false).
  template <class Pred>
  bool wait_until(std::condition_variable& cv,
                  std::unique_lock<std::mutex>& lock,
                  std::uint64_t deadline_ns, Pred pred) {
    while (!pred())
      if (wait_until(cv, lock, deadline_ns) == std::cv_status::timeout)
        return pred();
    return true;
  }

  /// Blocks the calling thread for `ns` of this clock's time.
  void sleep_for(std::uint64_t ns);
};

/// The process-wide steady clock: now_ns() is common::now_ns().
Clock& steady_clock();

/// A clock whose time starts at 0 and moves only on advance().
/// Thread-safe.
class ManualClock final : public Clock {
 public:
  std::uint64_t now_ns() const override {
    return now_.load(std::memory_order_acquire);
  }
  std::cv_status wait_until(std::condition_variable& cv,
                            std::unique_lock<std::mutex>& lock,
                            std::uint64_t deadline_ns) override;
  using Clock::wait_until;

  /// Moves the time forward by `ns`, then wakes every waiter whose
  /// deadline it passed and returns once each of them has left its wait
  /// (so the caller must not hold a mutex such a waiter reacquires).
  void advance(std::uint64_t ns);

 private:
  struct Waiter {
    std::condition_variable* cv;
    std::uint64_t deadline_ns;
  };

  std::atomic<std::uint64_t> now_{0};
  std::mutex mu_;  ///< guards waiters_ and writes of now_
  std::condition_variable left_;        ///< a waiter left wait_until
  std::vector<const Waiter*> waiters_;  ///< threads inside wait_until
};

}  // namespace autogemm::common
