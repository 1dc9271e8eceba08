#include "common/threadpool.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <system_error>

#include "common/failpoint.hpp"

namespace autogemm::common {

namespace {

// Region-scoped slot of the current thread (see ThreadPool::worker_index).
// Workers pin theirs for life at spawn; the submitting caller holds slot
// size() only while inside parallel_for, restoring the previous value on
// exit so pools don't leak indices into each other.
thread_local int tls_worker_index = -1;

struct ScopedWorkerIndex {
  int prev;
  explicit ScopedWorkerIndex(int index) : prev(tls_worker_index) {
    tls_worker_index = index;
  }
  ~ScopedWorkerIndex() { tls_worker_index = prev; }
};

// How long an idle participant polls before it sleeps. Long enough to
// bridge the serial glue between one GEMM and the next, short enough that
// an idle pool goes back to sleep at once on a human time scale.
constexpr std::chrono::microseconds kPollFor{50};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// A cursor index past any count: the region it tags has ended.
constexpr std::uint64_t kClosed = 0x7fffffff;

/// Polls `ready` for up to kPollFor; returns whether it became true.
template <class Ready>
bool poll_until(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kPollFor;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
  }
}

}  // namespace

int ThreadPool::worker_index() noexcept { return tls_worker_index; }

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  poll_ = std::thread::hardware_concurrency() > threads;
  workers_.reserve(threads);
  // Worker spawn can fail under resource pressure (std::system_error).
  // Letting that propagate from the constructor would terminate: the
  // already-spawned joinable threads get destroyed. Instead the pool keeps
  // whatever workers it got — zero workers degrades parallel_for to the
  // caller's thread, which is slower but always correct.
  for (unsigned i = 0; i < threads; ++i) {
    try {
      if (failpoint::should_fail("threadpool.spawn"))
        throw std::system_error(std::make_error_code(
            std::errc::resource_unavailable_try_again));
      workers_.emplace_back([this, i] { worker_loop(i); });
    } catch (const std::system_error&) {
      spawn_failures_ = threads - i;
      break;
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunks(std::uint64_t region) {
  // Every field is read after region_ showed `region`, so each holds that
  // region's value unless the region has already ended and the next one
  // was published; then cursor_ no longer carries `region` in its high
  // half (or is closed), the claim below fails and nothing stale runs.
  const IndexFn* fn = body_.load();
  const int count = count_.load();
  const int grain = grain_.load();
  const std::uint64_t tag = (region & 0xffffffffu) << 32;
  std::uint64_t cur = cursor_.load();
  int ran = 0;
  for (;;) {
    const int begin = static_cast<int>(cur & 0xffffffffu);
    if ((cur & ~std::uint64_t{0xffffffffu}) != tag || begin >= count) break;
    const int end = std::min(begin + grain, count);
    if (!cursor_.compare_exchange_weak(cur, tag | static_cast<unsigned>(end)))
      continue;  // `cur` now holds the current cursor
    try {
      if (failpoint::should_fail("threadpool.worker"))
        throw std::runtime_error("failpoint: threadpool.worker");
      for (int i = begin; i < end; ++i) (*fn)(i);
    } catch (...) {
      std::lock_guard lock(error_mu_);
      if (!error_) error_ = std::current_exception();
    }
    ran += end - begin;
    cur = cursor_.load();
  }
  // Only a participant that ran a chunk counts it, so the count never sees
  // a late worker of an ended region.
  if (ran > 0 && done_.fetch_add(ran) + ran == count) {
    std::lock_guard lock(mu_);
    done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop(unsigned index) {
  tls_worker_index = static_cast<int>(index);
  std::uint64_t seen = 0;
  const auto armed = [&] { return stopping_ || region_ != seen; };
  for (;;) {
    if (!poll_ || !poll_until(armed)) {
      std::unique_lock lock(mu_);
      start_cv_.wait(lock, armed);
    }
    if (stopping_) return;
    seen = region_;
    run_chunks(seen);
  }
}

void ThreadPool::parallel_for(int count, IndexFn fn) {
  if (count <= 0) return;
  if (size() <= 1 || count == 1) {
    ScopedWorkerIndex scoped(static_cast<int>(size()));
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }

  std::lock_guard submit(submit_mu_);
  const std::uint64_t region = region_ + 1;
  body_ = &fn;
  count_ = count;
  // ~4 chunks per participant bounds the atomic traffic while letting the
  // dynamic schedule absorb uneven per-block costs (edge tiles are cheaper).
  grain_ = std::max(1, count / (static_cast<int>(size() + 1) * 4));
  done_ = 0;
  error_ = nullptr;
  cursor_ = (region & 0xffffffffu) << 32;
  {
    std::lock_guard lock(mu_);
    region_ = region;
  }
  start_cv_.notify_all();

  {
    // The submitting thread claims chunks too, under slot size().
    ScopedWorkerIndex scoped(static_cast<int>(size()));
    run_chunks(region);
  }

  // Only chunks already claimed are waited for: a worker that has not
  // reached this region yet finds it closed and claims nothing.
  const auto finished = [&] { return done_ == count; };
  if (!poll_ || !poll_until(finished)) {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, finished);
  }
  cursor_ = ((region & 0xffffffffu) << 32) | kClosed;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace autogemm::common
