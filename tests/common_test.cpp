#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"

namespace autogemm::common {
namespace {

TEST(AlignedBuffer, AlignedAndZeroed) {
  AlignedBuffer buf(100);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kDefaultAlignment,
            0u);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0f);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer a(16);
  a[3] = 7.0f;
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b[3], 7.0f);
  EXPECT_EQ(a.size(), 0u);  // NOLINT: moved-from inspection is the test
  AlignedBuffer c;
  c = std::move(b);
  EXPECT_EQ(c[3], 7.0f);
}

TEST(AlignedBuffer, EmptyIsValid) {
  AlignedBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
}

TEST(Matrix, LeadingDimensionDefaultsToCols) {
  Matrix m(3, 5);
  EXPECT_EQ(m.ld(), 5);
  Matrix padded(3, 5, 8);
  EXPECT_EQ(padded.ld(), 8);
}

TEST(Matrix, RejectsBadLd) {
  EXPECT_THROW(Matrix(3, 5, 4), std::invalid_argument);
}

TEST(Matrix, BlockViewSharesStorage) {
  Matrix m(4, 6);
  m.at(2, 3) = 42.0f;
  MatrixView v = m.view().block(1, 2, 3, 4);
  EXPECT_EQ(v.rows, 3);
  EXPECT_EQ(v.cols, 4);
  EXPECT_EQ(v.at(1, 1), 42.0f);
  v.at(1, 1) = 7.0f;
  EXPECT_EQ(m.at(2, 3), 7.0f);
}

TEST(Matrix, MaxRelErrorDetectsDifference) {
  Matrix a(2, 2), b(2, 2);
  a.at(0, 0) = 1.0f;
  b.at(0, 0) = 1.0f + 1e-3f;
  EXPECT_NEAR(max_rel_error(a.view(), b.view()), 1e-3, 1e-6);
}

TEST(Matrix, MaxRelErrorShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(max_rel_error(a.view(), b.view()), std::invalid_argument);
}

TEST(ReferenceGemm, IdentityTimesMatrix) {
  Matrix eye(3, 3), b(3, 4), c(3, 4);
  for (int i = 0; i < 3; ++i) eye.at(i, i) = 1.0f;
  fill_random(b.view(), 1);
  reference_gemm(eye.view(), b.view(), c.view());
  EXPECT_LT(max_rel_error(c.view(), b.view()), 1e-7);
}

TEST(ReferenceGemm, AccumulatesIntoC) {
  Matrix a(1, 1), b(1, 1), c(1, 1);
  a.at(0, 0) = 2.0f;
  b.at(0, 0) = 3.0f;
  c.at(0, 0) = 10.0f;
  reference_gemm(a.view(), b.view(), c.view());
  EXPECT_FLOAT_EQ(c.at(0, 0), 16.0f);
}

TEST(ReferenceGemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 5), c(2, 5);
  EXPECT_THROW(reference_gemm(a.view(), b.view(), c.view()),
               std::invalid_argument);
}

TEST(ReferenceGemm, FlopCount) { EXPECT_EQ(gemm_flops(2, 3, 4), 48.0); }

TEST(Rng, DeterministicFill) {
  Matrix a(5, 5), b(5, 5);
  fill_random(a.view(), 42);
  fill_random(b.view(), 42);
  EXPECT_EQ(max_rel_error(a.view(), b.view()), 0.0);
  fill_random(b.view(), 43);
  EXPECT_GT(max_rel_error(a.view(), b.view()), 0.0);
}

TEST(Rng, PatternIsPositionDependent) {
  Matrix m(4, 4);
  fill_pattern(m.view());
  EXPECT_EQ(m.at(0, 0), static_cast<float>(0 % 17 - 8));
  EXPECT_EQ(m.at(1, 2), static_cast<float>((31 + 2) % 17 - 8));
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](int) { FAIL(); });
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   10,
                   [](int i) {
                     if (i == 5) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, SingleThreadFallback) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](int i) { sum += i; });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, UsableAfterException) {
  // The reusable-region pool must come back clean after a throwing region:
  // workers stay parked, the stored exception is cleared, and the next
  // region runs normally.
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.parallel_for(
                     20,
                     [](int i) {
                       if (i % 7 == 3) throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    std::vector<std::atomic<int>> hits(50);
    pool.parallel_for(50, [&](int i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ManySequentialRegions) {
  // Regression guard for the region/generation handshake: a missed wakeup
  // or a stale generation would hang or drop indices under rapid reuse.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(round % 13 + 1, [&](int i) { sum += i + 1; });
    const int n = round % 13 + 1;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, LateWorkersNeverRunAnEndedRegion) {
  // More workers than cores, so some reach a region only after it ended
  // and the next one (with a different body and count) was published.
  // Every region must run each of its indices exactly once, with its own
  // body; a stale claim would run an index twice, miss one, or touch a
  // closure that no longer exists.
  ThreadPool pool(2 * std::max(2u, std::thread::hardware_concurrency()));
  for (int round = 0; round < 3000; ++round) {
    const int n = round % 2 == 0 ? round % 5 + 2 : 64 + round % 7;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    std::atomic<int> foreign{0};
    pool.parallel_for(n, [&, round](int i) {
      if (i < 0 || i >= n) {
        foreign.fetch_add(1);
        return;
      }
      hits[static_cast<std::size_t>(i)].fetch_add(round + 1);
    });
    ASSERT_EQ(foreign.load(), 0) << "round " << round;
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), round + 1)
          << "round " << round << " index " << i;
  }
}

TEST(ThreadPool, ConcurrentSubmittersSerialize) {
  // parallel_for from multiple threads at once: regions must serialize
  // (one at a time) without interleaving indices or losing any.
  ThreadPool pool(2);
  constexpr int kSubmitters = 4, kRegions = 25, kCount = 30;
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int r = 0; r < kRegions; ++r)
        pool.parallel_for(kCount, [&](int) { total.fetch_add(1); });
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), kSubmitters * kRegions * kCount);
}

}  // namespace
}  // namespace autogemm::common
