// Quickstart: the 60-second tour of the public API.
//
//   build/examples/quickstart
//
// Multiplies two irregular matrices with autoGEMM, checks the result
// against the reference, and prints the achieved host GFLOPS.
#include <cstdio>

#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"

int main() {
  using namespace autogemm;

  // A tall-skinny problem from the paper's irregular taxonomy.
  const int m = 256, n = 784, k = 64;
  common::Matrix a(m, k), b(k, n), c(m, n), c_ref(m, n);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);

  // One-shot convenience call: C += A * B with a heuristic plan. Every
  // entry point reports through autogemm::Status.
  if (const Status s = gemm(a.view(), b.view(), c.view()); !s.ok()) {
    std::fprintf(stderr, "gemm failed: %s\n", s.to_string().c_str());
    return 1;
  }

  // Verify against the double-precision reference.
  common::reference_gemm(a.view(), b.view(), c_ref.view());
  std::printf("max relative error vs reference: %.2e\n",
              common::max_rel_error(c.view(), c_ref.view()));

  // For repeated calls on one shape, build a Plan once and reuse it. Plans
  // fix the Table III parameters: cache blocking, loop order, packing, and
  // the dynamic micro-tiling of every cache block.
  Plan plan(m, n, k, default_config(m, n, k));
  std::printf("plan: mc=%d nc=%d kc=%d loop=%s packing=%d, projected %.0f "
              "model cycles\n",
              plan.config().mc, plan.config().nc, plan.config().kc,
              loop_order_name(plan.config().loop_order),
              static_cast<int>(plan.config().packing),
              plan.projected_cycles());

  const int reps = 20;
  common::Timer timer;
  for (int i = 0; i < reps; ++i) gemm(a.view(), b.view(), c.view(), plan);
  const double seconds = timer.seconds() / reps;
  std::printf("host: %.3f ms per call, %.2f GFLOPS\n", seconds * 1e3,
              common::gemm_flops(m, n, k) / seconds / 1e9);

  // The serving-style API: a Context caches the plan per shape (and packed
  // constant operands), owns the thread pool, and takes the BLAS-style
  // extended parameters. This is the primary entry point; the free
  // functions above are wrappers over a process-default context.
  Context ctx;
  GemmExParams overwrite;
  overwrite.beta = 0.0f;  // C = A * B
  for (int i = 0; i < 2; ++i) {  // the second call is a cached-plan hit
    if (const Status s = ctx.run(a.view(), b.view(), c.view(), overwrite);
        !s.ok()) {
      std::fprintf(stderr, "Context::run failed: %s\n", s.to_string().c_str());
      return 1;
    }
  }
  const auto stats = ctx.stats();
  std::printf("context: %llu plan hit(s), %llu miss(es) over 2 calls\n",
              static_cast<unsigned long long>(stats.plan_hits),
              static_cast<unsigned long long>(stats.plan_misses));
  return 0;
}
