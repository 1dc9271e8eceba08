// Fixed-size thread pool with a reusable parallel region.
//
// The multi-core host execution path (Figs 9 and 11) schedules cache blocks
// — the paper's "minimum scheduling unit executed by multiple threads" —
// through this pool. Earlier revisions pushed one heap-allocated task per
// chunk through a queue; serving-style callers (autogemm::Context) issue
// thousands of small parallel_for calls per second, so the pool now keeps
// one persistent region the workers re-arm on a generation counter and
// claims iterations through an atomic cursor, and parallel_for takes its
// body by reference (IndexFn): a region allocates nothing.
//
// Waking a sleeping worker costs a futex wake plus, under a hypervisor, an
// interrupt to an idle virtual CPU: about 15 us per region on a 4-vCPU KVM
// guest, and more when the host is busy, which makes back-to-back small
// regions (a decode step's GEMMs) both slow and unsteady. So when every
// participant has a core of its own, an idle worker (and the caller waiting
// for the region to finish) polls for a short while before it sleeps.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace autogemm::common {

/// Non-owning reference to a parallel_for body (any const-callable taking
/// the iteration index): two pointers whatever the closure's size, so
/// binding one allocates nothing. A lambda written in the call outlives the
/// region.
class IndexFn {
 public:
  template <class F>
  IndexFn(const F& f) noexcept  // NOLINT: implicit
      : obj_(&f), call_([](const void* obj, int i) {
          (*static_cast<const F*>(obj))(i);
        }) {}
  void operator()(int i) const { call_(obj_, i); }

 private:
  const void* obj_;
  void (*call_)(const void*, int);
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware_concurrency, min 1).
  /// Worker-spawn failure (std::system_error under resource pressure) is
  /// absorbed, never thrown: the pool keeps the workers it got — possibly
  /// zero, in which case parallel_for degrades to serial execution on the
  /// calling thread. spawn_failures() reports how many spawns failed.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Workers requested at construction that could not be spawned.
  unsigned spawn_failures() const noexcept { return spawn_failures_; }

  /// Threads that can execute iterations of one parallel_for region: the
  /// workers plus the submitting caller. Callers sizing per-worker state
  /// (e.g. packing scratch reused across blocks) allocate this many slots
  /// and index them with worker_index().
  unsigned participants() const noexcept { return size() + 1; }

  /// Slot of the current thread within the executing pool's region:
  /// workers are [0, size()), the submitting caller is size(). Returns -1
  /// on a thread that is not currently executing a parallel_for body.
  static int worker_index() noexcept;

  /// Runs fn(i) for i in [0, count). The calling thread participates in the
  /// work alongside the workers; iterations are claimed in dynamically sized
  /// contiguous chunks. Blocks until all iterations finish. Exceptions from
  /// fn propagate to the caller (first one wins) and the pool stays usable.
  /// Concurrent calls from different threads are serialized; calling from
  /// inside a running region (nested parallelism) is not supported.
  void parallel_for(int count, IndexFn fn);

 private:
  void worker_loop(unsigned index);
  /// Claims and runs chunks of region `region` until none is left; returns
  /// at once if that region has already finished.
  void run_chunks(std::uint64_t region);

  std::vector<std::thread> workers_;
  unsigned spawn_failures_ = 0;
  // Whether idle participants poll before sleeping: only when the workers
  // plus the caller fit on the host's cores, so polling never takes a core
  // from a thread with work.
  bool poll_ = false;

  // Serializes whole regions submitted from different caller threads.
  std::mutex submit_mu_;

  // Region state. parallel_for publishes body_/count_/grain_, resets
  // cursor_ to (region, 0) and bumps region_ under mu_. Participants claim
  // [i, i + grain_) by compare-and-swap on cursor_, which carries the
  // region number in its high 32 bits, and add what they ran to done_;
  // the region ends when done_ reaches count_. The caller then closes the
  // cursor, so a worker that arrives late (its core was busy) claims
  // nothing and the caller never waits for it.
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  // Written under mu_ (so the condition variables see them) and read
  // without it by polling participants. The fields written once per
  // region, the claim cursor and the completion count sit on separate
  // cache lines, so claims and completions do not bounce the lines the
  // other participants poll.
  alignas(64) std::atomic<std::uint64_t> region_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<const IndexFn*> body_{nullptr};
  std::atomic<int> count_{0};
  std::atomic<int> grain_{1};
  alignas(64) std::atomic<std::uint64_t> cursor_{0};
  alignas(64) std::atomic<int> done_{0};

  std::mutex error_mu_;
  std::exception_ptr error_;
};

}  // namespace autogemm::common
