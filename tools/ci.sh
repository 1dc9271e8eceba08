#!/usr/bin/env bash
# CI driver: build and test the two supported configurations.
#
#   tools/ci.sh            # release + asan, full ctest in each
#   tools/ci.sh release    # just one configuration
#
# The asan configuration builds with -fsanitize=address,undefined (the
# AUTOGEMM_SANITIZE CMake option / the "asan" preset); the concurrent
# Context tests in particular are expected to pass under it. The release
# configuration also re-runs the parallel-path suites with a 4-worker pool
# and runs the context cache-hit and large-K scaling benches once, so the
# JSON artifacts land in build/bench_context_cache.json and
# build/BENCH_kscale.json. An obs smoke pass then runs a traced parallel
# GEMM through the CLI, validates the Chrome-trace export and Prometheus
# text, and runs the (non-gating) obs overhead bench. A serve smoke pass
# replays the canned request trace through the serving engine twice —
# once at low load (zero sheds, clean accounting, results verified) and
# once with a fault-injected full queue (explicit overload events, still
# clean accounting) — then drives 20 seeds of the chaos harness through
# `autogemm chaos` (dispatcher crash/stall, allocation/execution/verify
# faults; any invariant violation is a nonzero exit) and runs the serve
# coalescing + graceful-drain bench (JSON in build/bench_serve.json). A
# sharded-serving pass then replays the same trace
# through a 2-shard ShardedEngine (clean low-load replay, then a
# stall-injected run that must divert work via the router's bounded
# stealing), runs 6 chaos seeds with --shards 2, and runs the open-loop
# scale bench (bench_serve_scale), whose `scale acceptance ... PASS` line
# gates on the 2-shard fleet completing strictly more goodput than 1
# shard at the same offered load (JSON in build/bench_serve_scale.json).
# Bench JSON stays under build/: the committed BENCH_*.json files at the
# repo root are recorded by hand with their host fingerprint, never
# overwritten by a CI run. The serve tests also run under
# the asan configuration via the regular ctest pass, and the asan
# configuration repeats the 4-worker pooled pass, the 20-seed chaos pass
# and the 6-seed sharded chaos pass under the sanitizers.
#
# Right after its build the release configuration checks, on x86-64, that
# only the wide kernel units (kernels/wide_avx512.cpp, wide_avx2.cpp, the
# int8 qwide_avx512.cpp, qwide_avxvnni.cpp, qwide_avx2.cpp and the glue
# math vmath_avx512.cpp, vmath_avx2.cpp) hold ymm/zmm instructions (zmm
# only the three avx512 units) and that they define
# no weak symbols, so no wide instruction can reach a CPU that lacks it. It ends with the backend
# matrix: the full ctest suite re-runs under AUTOGEMM_BACKEND=neon,
# =sve_sim and =x86_wide (kAuto contexts resolve through the env, so every
# registered tier serves the whole test load), followed by the NEON vs
# simulated-SVE vs x86_wide vs reference_gemm crosscheck over an
# irregular-tile sweep (tools/autogemm crosscheck). The asan configuration
# repeats its pooled pass under AUTOGEMM_BACKEND=neon, so the 128-bit path
# keeps sanitizer coverage now that kAuto picks x86_wide on wide CPUs.
# Last, it runs every workload of the repository benchmark
# (perfbench/run.py) for two seconds, which compiles the benchmark driver
# against the public entry points and fails on any correctness check.
#
# Every ctest invocation carries a per-test timeout: a test that hangs (the
# exact failure mode the sim watchdogs and thread-pool hardening exist to
# prevent) fails CI instead of wedging it. The release configuration
# additionally runs a fault-injection pass that re-executes the hardening
# suites with AUTOGEMM_FAILPOINTS set, proving the env-var arming path
# works in the shipped binary, not just the in-process API.
# It then repeats the serve, router and failpoint tests that drive a
# common::ManualClock 20 times (--gtest_repeat), so a wall-clock race
# left in them fails CI instead of flaking once in a while.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
test_timeout=${AUTOGEMM_CI_TEST_TIMEOUT:-120}  # seconds per test
configs=("$@")
[[ ${#configs[@]} -eq 0 ]] && configs=(release asan)

run_config() {
  local name=$1 dir=$2
  shift 2
  echo "==== [$name] configure ===="
  cmake -B "$dir" -S . "$@"
  echo "==== [$name] build ===="
  cmake --build "$dir" -j "$jobs"
  echo "==== [$name] ctest (timeout ${test_timeout}s/test) ===="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" \
    --timeout "$test_timeout"
}

fault_injection_pass() {
  local dir=$1
  echo "==== [fault-injection] env-armed failpoints ===="
  # Arm a benign failpoint through the environment: the FailpointEnv suite
  # proves static init picked it up in the shipped binary. Run alone —
  # the other hardening suites reset the failpoint registry in teardown.
  AUTOGEMM_FAILPOINTS=ci.smoke \
    "$dir/tests/autogemm_tests" --gtest_filter='FailpointEnv.*'
  echo "==== [fault-injection] injected-fault suites ===="
  "$dir/tests/autogemm_tests" --gtest_filter='Failpoints.*:Robustness.*'
}

for config in "${configs[@]}"; do
  case "$config" in
    release)
      run_config release build -DCMAKE_BUILD_TYPE=Release
      if [[ $(uname -m) == x86_64 ]]; then
        echo "==== [release] wide-ISA isolation (objdump, nm) ===="
        # Baseline x86-64 everywhere but the wide units: a ymm/zmm
        # instruction elsewhere could execute on a CPU without AVX, and a
        # weak symbol in a wide unit could be merged into baseline callers.
        leaks=$(objdump -d --no-show-raw-insn build/src/*/libautogemm_*.a |
          awk '/file format/ { obj = $1; sub(/:$/, "", obj); next }
               /%zmm/ && obj !~ /^(q?wide|vmath)_avx512\.cpp\.o$/ { print obj; next }
               /%ymm/ && obj !~ /^(wide_avx(512|2)|qwide_avx(512|2|vnni)|vmath_avx(512|2))\.cpp\.o$/ { print obj }' |
          sort -u)
        weak=$(nm -A build/src/kernels/libautogemm_kernels.a |
          grep -E '(wide_avx(512|2)|qwide_avx(512|2|vnni)|vmath_avx(512|2))\.cpp\.o:.* [WVu] ' || true)
        if [[ -n $leaks || -n $weak ]]; then
          echo "wide instructions outside the wide units: ${leaks:-none}" >&2
          echo "weak symbols in the wide units: ${weak:-none}" >&2
          exit 1
        fi
      fi
      fault_injection_pass build
      echo "==== [release] clock-driven serve tests, 20 repeats ===="
      # These tests move engine time with a common::ManualClock instead of
      # waiting out short real timeouts, so they must pass every repeat on a
      # loaded host; a wall-clock race left in them shows up here.
      ./build/tests/autogemm_tests --gtest_repeat=20 \
        --gtest_filter='Clock.*:Serve.AgedBulk*:Serve.FreshBulk*:Serve.Breaker*:Serve.Dispatcher*:Serve.RestartBudget*:Router.StealsUnderDispatcherStall*:Failpoints.ServeDispatcherStall*'
      echo "==== [release] multi-thread pass (pooled, threads=4) ===="
      # Re-run the parallel-path suites with an explicit 4-worker pool: the
      # strategy heuristic, the k-split determinism contract and the pooled
      # Context/batched paths must hold regardless of host core count.
      AUTOGEMM_TEST_THREADS=4 ./build/tests/autogemm_tests \
        --gtest_filter='Parallel*:KSplit*:PackedPadding*:ThreadPool*:Context*:Batched*:GemmEx*'
      echo "==== [release] context cache bench ===="
      ./build/bench/bench_context_cache build/bench_context_cache.json
      echo "==== [release] large-K scaling bench ===="
      ./build/bench/bench_kscale build/BENCH_kscale.json 4
      echo "==== [release] obs smoke (trace + metrics + report) ===="
      # Traced parallel k-split GEMM: the export must be valid JSON, carry
      # the pack/kernel/reduce phase spans on distinct worker lanes, and
      # the Prometheus text must expose the core counter families — with
      # GEMM latency as one {shape,dtype} family and no unlabeled twin.
      ./build/tools/autogemm trace 8 8 8192 --threads 4 --strategy ksplit \
        --out build/obs_smoke_trace.json --metrics build/obs_smoke_metrics.prom
      python3 -m json.tool build/obs_smoke_trace.json > /dev/null
      python3 tools/trace_report.py build/obs_smoke_trace.json \
        --require pack_a,kernel,reduce
      grep -q 'autogemm_gemm_calls_total' build/obs_smoke_metrics.prom
      grep -q 'autogemm_gemm_seconds_bucket' build/obs_smoke_metrics.prom
      grep -q 'autogemm_gemm_seconds_count{shape=' build/obs_smoke_metrics.prom
      if grep -q '^autogemm_gemm_seconds_count ' build/obs_smoke_metrics.prom; then
        echo "obs smoke: unlabeled autogemm_gemm_seconds series exported" >&2
        exit 1
      fi
      echo "==== [release] obs overhead bench (non-gating) ===="
      ./build/bench/bench_obs_overhead --json-out build/bench_obs_overhead.json \
        || true
      echo "==== [release] serve smoke: low load ===="
      # The canned trace at low load must admit everything (no sheds, no
      # rejects), verify results against the reference, and balance the
      # books.
      ./build/tools/autogemm serve-replay tools/traces/serve_smoke.trace \
        --verify | tee build/serve_smoke_low.txt
      grep -q 'overload_events=0 accounting=clean' build/serve_smoke_low.txt
      echo "==== [release] serve smoke: forced overload ===="
      # Fault-injected full queue against a small capacity: overload must
      # surface as explicit sheds/rejects (nonzero overload events), never
      # as broken accounting.
      AUTOGEMM_FAILPOINTS='serve.queue_full=40' \
        ./build/tools/autogemm serve-replay tools/traces/serve_smoke.trace \
        --capacity 16 | tee build/serve_smoke_overload.txt
      grep -q 'accounting=clean' build/serve_smoke_overload.txt
      grep -Eq 'overload_events=[1-9]' build/serve_smoke_overload.txt
      echo "==== [release] serve chaos pass (20 seeds) ===="
      # Seeded chaos harness through the CLI: 20 distinct seeds of the
      # multi-threaded workload with failpoint combinations firing
      # (dispatcher crash/stall, allocation failure, overload, execution
      # and verification faults). Exit is nonzero on any invariant
      # violation — unresolved future, dishonest status, corrupted C, or
      # broken accounting.
      ./build/tools/autogemm chaos --seed 1 --seeds 20 \
        | tee build/serve_chaos.txt
      grep -q 'chaos: seeds=20 violations=0' build/serve_chaos.txt
      echo "==== [release] serve coalescing bench ===="
      ./build/bench/bench_serve --json-out build/bench_serve.json \
        | tee build/serve_bench.txt
      grep -q 'speedup (batch=8 vs single-dispatch)' build/serve_bench.txt
      grep -q 'drain: backlog=' build/serve_bench.txt
      echo "==== [release] online-tuning smoke: serve-replay --tune ===="
      # Repeated-irregular-shape trace with the online tuner (model-cost,
      # deterministic): pass one must promote at least one searched config
      # while the replay's futures are in flight and persist it; pass two
      # must load the records file and resolve the promoted shapes through
      # the exact rung with no new promotions — the records round trip.
      rm -f build/online_tune_records.txt
      ./build/tools/autogemm serve-replay tools/traces/online_tune.trace \
        --verify --tune --records build/online_tune_records.txt \
        | tee build/online_tune_first.txt
      grep -q 'accounting=clean' build/online_tune_first.txt
      grep -Eq 'tuning: .*promotions=[1-9]' build/online_tune_first.txt
      grep -Eq 'tuning: .*persisted=[1-9]' build/online_tune_first.txt
      ./build/tools/autogemm serve-replay tools/traces/online_tune.trace \
        --verify --tune --records build/online_tune_records.txt \
        | tee build/online_tune_second.txt
      grep -q 'accounting=clean' build/online_tune_second.txt
      grep -Eq 'tuning: .*records_loaded=1' build/online_tune_second.txt
      grep -Eq 'tuning: .*resolved_exact=[1-9]' build/online_tune_second.txt
      echo "==== [release] online tuning bench ===="
      # Real wall-clock tuning beside live traffic; the JSON carries
      # baseline/concurrent/tuned p50+p99 and the dispatcher-impact ratio.
      ./build/bench/bench_online_tune 120 100 \
        --json-out build/bench_online_tune.json \
        | tee build/online_tune_bench.txt
      grep -q 'concurrent p99 / baseline p99' build/online_tune_bench.txt
      echo "==== [release] sharded serve smoke: 2-shard replay ===="
      # The canned trace through a 2-shard ShardedEngine: deterministic
      # shape-hash routing must spread the trace across both workers, all
      # futures resolve, and the aggregate plus every shard balances.
      ./build/tools/autogemm serve-replay tools/traces/serve_smoke.trace \
        --verify --shards 2 | tee build/serve_smoke_sharded.txt
      grep -q 'overload_events=0 accounting=clean' \
        build/serve_smoke_sharded.txt
      grep -q 'shards: n=2' build/serve_smoke_sharded.txt
      echo "==== [release] sharded serve smoke: stall-driven stealing ===="
      # Stall one dispatcher via the env-armed failpoint against a small
      # queue: the router's bounded work-stealing must divert backlog to
      # the healthy shard (nonzero steals) with the books still clean.
      AUTOGEMM_FAILPOINTS='serve.dispatcher_stall=1' \
        ./build/tools/autogemm serve-replay tools/traces/serve_smoke.trace \
        --shards 2 --capacity 16 | tee build/serve_smoke_steal.txt
      grep -q 'accounting=clean' build/serve_smoke_steal.txt
      grep -Eq 'steals=[1-9]' build/serve_smoke_steal.txt
      echo "==== [release] sharded serve chaos pass (6 seeds, 2 shards) ===="
      # Chaos with the fleet in the loop: per-shard failure isolation,
      # stealing under stalls and the merged accounting must survive the
      # same failpoint storms the single-engine pass runs.
      ./build/tools/autogemm chaos --seed 1 --seeds 6 --shards 2 \
        | tee build/serve_chaos_sharded.txt
      grep -q 'chaos: seeds=6 violations=0' build/serve_chaos_sharded.txt
      echo "==== [release] serve scale-out bench (open-loop, 1 vs 2 shards) ===="
      # Open-loop offered-load sweep: the gating acceptance line requires
      # the 2-shard fleet to complete strictly more goodput than 1 shard
      # at every overloaded point, with clean accounting on all of them.
      ./build/bench/bench_serve_scale --json-out build/bench_serve_scale.json \
        | tee build/serve_scale_bench.txt
      grep -Eq 'scale acceptance.*PASS' build/serve_scale_bench.txt
      echo "==== [release] backend matrix (AUTOGEMM_BACKEND=neon|sve_sim|x86_wide) ===="
      # The tier-1 suite must hold under every registered backend: kAuto
      # contexts resolve through the env override, so this exercises the
      # compiled-NEON, portable-fallback-plus-SVE-probe and AVX-512/AVX2
      # paths end to end (x86_wide runs on NEON's kernels on a CPU
      # without AVX2+FMA).
      for backend in neon sve_sim x86_wide; do
        echo "---- backend=$backend ----"
        AUTOGEMM_BACKEND=$backend ctest --test-dir build --output-on-failure \
          -j "$jobs" --timeout "$test_timeout"
      done
      echo "==== [release] backend crosscheck (neon vs sve_sim vs x86_wide vs reference) ===="
      # Irregular-tile sweep: the compiled NEON host kernels, the generated
      # predicated SVE programs (interpreted at every VL from the
      # generation width up to 512-bit) and, on a CPU that runs it, the
      # x86_wide plan with its masked edge kernels must all agree with
      # reference_gemm.
      ./build/tools/autogemm crosscheck | tee build/backend_crosscheck.txt
      grep -Eq 'crosscheck: tiles=[0-9]+ checks=[0-9]+ failures=0' \
        build/backend_crosscheck.txt
      echo "==== [release] quantized crosscheck (portable vs widening vs fp64) ===="
      # The int8 leg over the same irregular tiles: both quantized kernels
      # must meet the 1e-2 relative-Frobenius contract against the fp64
      # reference AND agree with each other bit-for-bit (integer
      # accumulation is exact on both paths).
      ./build/tools/autogemm crosscheck --dtype int8 \
        | tee build/quant_crosscheck.txt
      grep -Eq 'crosscheck: dtype=i8 tiles=[0-9]+ checks=[0-9]+ failures=0' \
        build/quant_crosscheck.txt
      echo "==== [release] quantized serve smoke: GPT-2 decode trace ===="
      # The mixed fp32/int8 token-generation trace (prefill burst + skinny-M
      # decode steps) through a 2-shard fleet: every future resolves, fp32
      # results verify elementwise, int8 results verify against the norm
      # contract, and the books balance on the aggregate and every shard.
      ./build/tools/autogemm serve-replay tools/traces/gpt2_decode.trace \
        --verify --shards 2 | tee build/quant_serve_smoke.txt
      grep -q 'overload_events=0 accounting=clean' build/quant_serve_smoke.txt
      echo "==== [release] quantized GEMM bench ===="
      # Gates the int8 tier's twin contract: rel-err <= 1e-2 vs fp64 on
      # every shape AND >= 1.3x over fp32 at the compute-bound shapes.
      ./build/bench/bench_quant --json-out build/bench_quant.json \
        | tee build/quant_bench.txt
      grep -q 'quant acceptance: PASS' build/quant_bench.txt
      echo "==== [release] quantized serving bench (mixed dtype, 2 shards) ===="
      # Open-loop GPT-2-style mixed trace: zero unresolved futures, clean
      # accounting everywhere, both tiers completing; the JSON carries the
      # fp32-vs-int8 goodput and p99 split.
      ./build/bench/bench_quant_serve \
        --json-out build/bench_quant_serve.json \
        | tee build/quant_serve_bench.txt
      grep -Eq 'quant serve acceptance.*PASS' build/quant_serve_bench.txt
      echo "==== [release] repository benchmark smoke (perfbench) ===="
      # Builds the benchmark driver against the library's public entry
      # points and runs each workload briefly; any failed correctness
      # check makes run.py exit non-zero.
      for workload in resnet50 gpt2_block serve_mixed; do
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2
      done
      ;;
    asan)
      run_config asan build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DAUTOGEMM_SANITIZE=ON
      echo "==== [asan] multi-thread pass (pooled, threads=4) ===="
      # The release leg's 4-worker pass under the sanitizers: pool worker
      # start-up and the shared operand validator on pooled single and
      # batched calls must be clean of races-of-lifetime and UB too.
      AUTOGEMM_TEST_THREADS=4 ./build-asan/tests/autogemm_tests \
        --gtest_filter='Parallel*:KSplit*:PackedPadding*:ThreadPool*:Context*:Batched*:GemmEx*'
      echo "==== [asan] multi-thread pass on the 128-bit tier (AUTOGEMM_BACKEND=neon) ===="
      # kAuto picks x86_wide on an AVX2/AVX-512 CPU; the same pooled
      # suites on neon keep the SSE2 kernels under the sanitizers.
      AUTOGEMM_BACKEND=neon AUTOGEMM_TEST_THREADS=4 \
        ./build-asan/tests/autogemm_tests \
        --gtest_filter='Parallel*:KSplit*:PackedPadding*:ThreadPool*:Context*:Batched*:GemmEx*'
      echo "==== [asan] serve chaos pass (20 seeds) ===="
      # The same 20 chaos seeds under address/undefined sanitizers: the
      # crash/stall recovery and abandoned-thread bookkeeping must be
      # leak- and race-of-lifetime-free, not just functionally clean.
      ./build-asan/tools/autogemm chaos --seed 1 --seeds 20 \
        | tee build-asan/serve_chaos.txt
      grep -q 'chaos: seeds=20 violations=0' build-asan/serve_chaos.txt
      echo "==== [asan] sharded serve chaos pass (6 seeds, 2 shards) ===="
      # The fleet's cross-shard machinery — router stealing, tuner
      # fan-out, concurrent drain, shard teardown — under the sanitizers.
      ./build-asan/tools/autogemm chaos --seed 1 --seeds 6 --shards 2 \
        | tee build-asan/serve_chaos_sharded.txt
      grep -q 'chaos: seeds=6 violations=0' build-asan/serve_chaos_sharded.txt
      echo "==== [asan] quantized crosscheck ===="
      # Bit-identity between the portable and SIMD int8 paths must hold
      # with the sanitizers' memory layout too — scale/pack buffers are
      # the quant tier's pointer-heavy surface.
      ./build-asan/tools/autogemm crosscheck --dtype int8 \
        | tee build-asan/quant_crosscheck.txt
      grep -Eq 'crosscheck: dtype=i8 tiles=[0-9]+ checks=[0-9]+ failures=0' \
        build-asan/quant_crosscheck.txt
      echo "==== [asan] quantized serve smoke: GPT-2 decode trace ===="
      ./build-asan/tools/autogemm serve-replay \
        tools/traces/gpt2_decode.trace --drain-timeout-us 2000000 \
        --verify --shards 2 | tee build-asan/quant_serve_smoke.txt
      grep -q 'overload_events=0 accounting=clean' \
        build-asan/quant_serve_smoke.txt
      echo "==== [asan] quantized GEMM bench ===="
      # The accuracy gate is exact under ASan; the 1.3x compute-bound
      # speedup gate also holds because instrumentation slows fp32 and
      # int8 alike (both sides are measured in the same binary).
      ./build-asan/bench/bench_quant --json-out build-asan/bench_quant.json \
        | tee build-asan/quant_bench.txt
      grep -q 'quant acceptance: PASS' build-asan/quant_bench.txt
      echo "==== [asan] quantized serving bench (mixed dtype, 2 shards) ===="
      ./build-asan/bench/bench_quant_serve 0.3 \
        --json-out build-asan/bench_quant_serve.json \
        | tee build-asan/quant_serve_bench.txt
      grep -Eq 'quant serve acceptance.*PASS' build-asan/quant_serve_bench.txt
      ;;
    *)
      echo "unknown config: $config (expected release or asan)" >&2
      exit 2
      ;;
  esac
done
echo "==== ci: all configurations passed ===="
