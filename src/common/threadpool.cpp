#include "common/threadpool.hpp"

#include <algorithm>
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

}  // namespace

int ThreadPool::worker_index() noexcept { return tls_worker_index; }

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
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

void ThreadPool::run_chunks() {
  const std::function<void(int)>& fn = *body_;
  for (;;) {
    const int begin = next_.fetch_add(grain_, std::memory_order_relaxed);
    if (begin >= count_) return;
    const int end = std::min(begin + grain_, count_);
    try {
      if (failpoint::should_fail("threadpool.worker"))
        throw std::runtime_error("failpoint: threadpool.worker");
      for (int i = begin; i < end; ++i) fn(i);
    } catch (...) {
      std::lock_guard lock(error_mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop(unsigned index) {
  tls_worker_index = static_cast<int>(index);
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock(mu_);
      start_cv_.wait(lock, [&] { return stopping_ || region_ != seen; });
      if (stopping_) return;
      seen = region_;
    }
    run_chunks();
    // The region's fields stay valid until every participant has left:
    // parallel_for waits for in_flight_ to reach zero before returning.
    if (in_flight_.fetch_sub(1) == 1) {
      std::lock_guard lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  if (size() <= 1 || count == 1) {
    ScopedWorkerIndex scoped(static_cast<int>(size()));
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }

  std::lock_guard submit(submit_mu_);
  body_ = &fn;
  count_ = count;
  // ~4 chunks per participant bounds the atomic traffic while letting the
  // dynamic schedule absorb uneven per-block costs (edge tiles are cheaper).
  grain_ = std::max(1, count / (static_cast<int>(size() + 1) * 4));
  next_.store(0, std::memory_order_relaxed);
  error_ = nullptr;
  in_flight_.store(size(), std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    ++region_;
  }
  start_cv_.notify_all();

  {
    // The submitting thread claims chunks too, under slot size().
    ScopedWorkerIndex scoped(static_cast<int>(size()));
    run_chunks();
  }

  {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&] { return in_flight_.load() == 0; });
  }
  body_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace autogemm::common
