// Allocation accounting for Context's workspaces. This file replaces every
// form of the global operator new and delete for the whole test binary
// with counting wrappers over posix_memalign/free (all forms, so new and
// delete always pair malloc with free, which sanitizer builds check), so a
// test can assert that warm calls allocate nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/failpoint.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"

namespace {

std::atomic<long> g_news{0};

void* counted(std::size_t bytes, std::size_t align) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  return posix_memalign(&p, std::max(align, sizeof(void*)),
                        std::max<std::size_t>(bytes, 1)) == 0
             ? p
             : nullptr;
}

void* counted_or_throw(std::size_t bytes, std::size_t align) {
  if (void* p = counted(bytes, align)) return p;
  throw std::bad_alloc{};
}

constexpr std::size_t kPlain = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t n) { return counted_or_throw(n, kPlain); }
void* operator new[](std::size_t n) { return counted_or_throw(n, kPlain); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n, kPlain);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n, kPlain);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace autogemm {
namespace {

using common::Matrix;

TEST(ContextWorkspace, WarmCallsAllocateNothing) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ContextOptions opts;
    opts.threads = threads;
    Context ctx(opts);
    opts.parallel_strategy = ParallelStrategy::kKSplit;
    Context ksplit(opts);

    const int m = 48, n = 40, k = 64;
    Matrix a(m, k), b(k, n), c(m, n);
    common::fill_random(a.view(), 1);
    common::fill_random(b.view(), 2);
    const int kk = 4096;  // many K blocks, so a pool slices K
    Matrix ka(8, kk), kb(kk, 8), kc(8, 8);
    common::fill_random(ka.view(), 3);
    common::fill_random(kb.view(), 4);
    GemmExParams p;
    p.beta = 0.0f;  // overwrite
    const auto calls = [&] {
      EXPECT_TRUE(ctx.run(a.view(), b.view(), c.view(), p).ok());
      EXPECT_TRUE(ctx.run_const_a(a.view(), b.view(), c.view(), p).ok());
      EXPECT_TRUE(ctx.run_const_b(a.view(), b.view(), c.view(), p).ok());
      EXPECT_TRUE(ctx.run_const_b_i8(a.view(), b.view(), c.view(), 1, 0).ok());
      EXPECT_TRUE(ksplit.run(ka.view(), kb.view(), kc.view(), p).ok());
    };
    // Cold: plans, packings, the pool and the workspaces are made here.
    calls();
    const std::uint64_t ksplit_before = ksplit.stats().strategy_ksplit;

    // Any AlignedBuffer allocation now fails (and is counted as a hit).
    failpoint::arm("alloc.aligned_buffer");
    const long news_before = g_news.load();
    for (int i = 0; i < 3; ++i) calls();
    const long news = g_news.load() - news_before;
    const long hits = failpoint::hits("alloc.aligned_buffer");
    failpoint::disarm_all();

    EXPECT_EQ(news, 0) << "operator new calls during warm calls";
    EXPECT_EQ(hits, 0) << "AlignedBuffer allocations during warm calls";
    EXPECT_EQ(ctx.health().alloc_fallbacks, 0u);
    EXPECT_EQ(ksplit.health().alloc_fallbacks, 0u);
    if (threads > 1) {
      EXPECT_EQ(ksplit.stats().strategy_ksplit, ksplit_before + 3);
    }
  }
}

}  // namespace
}  // namespace autogemm
